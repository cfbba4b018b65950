"""CSV and JSON export helpers shared by the library and the command line.

Every CSV has a fixed header row; floats are printed with 12 significant
digits in both formats.  JSON payloads mirror the CSV data and additionally
carry a schema version and, when written by the CLI, the full resolved
configuration of the run.  A table is written by `write_table` from column
blocks, one sequence or array per header field, so a caller can stream it
block by block (the walk trajectory, one step per block).  The writer
formats each column in bulk, derives a float's JSON token from its CSV text
by a string rule (see `_tokens`), and writes each block to each file in one
call.  It is the one CSV writer: the CSV dialect (quoting, CR LF record
ends) is decided in `_tokens` and `_csv_lines` alone.  `write_json` writes
the payloads that are not tables.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .sequences import SweepReport
from .tomography import BASIS_PAIRS, ProjectionCounts, TomographyResult
from .transport import MomentSeries, PositionDistribution, PowerLawFit
from .walk import WalkState

__all__ = [
    "SCHEMA_VERSION",
    "fmt_float",
    "jsonable",
    "write_json",
    "write_table",
    "trajectory_columns",
    "distribution_columns",
    "entropy_curve_columns",
    "moment_columns",
    "counts_columns",
    "read_moment_series_csv",
    "sweep_report_dict",
    "fit_dict",
    "tomography_dict",
]

SCHEMA_VERSION = 1

TRAJECTORY_HEADER = ("t", "j", "re_a", "im_a", "re_b", "im_b", "probability")
DISTRIBUTION_HEADER = ("j", "probability")
ENTROPY_HEADER = ("t", "entropy")
ENTROPY_EIGEN_HEADER = ("t", "entropy", "eigenvalue_1", "eigenvalue_2")
MOMENT_HEADER = ("t", "m2")
COUNTS_HEADER = ("j", "basis", "outcome", "count")
#: Fields of a `PowerLawFit`, in the order of the fit table.
FIT_HEADER = ("prefactor", "exponent", "residual", "t_min", "t_max")
#: Fields of a `TomographyResult` in the summary table and the JSON summary block.
TOMOGRAPHY_SUMMARY_HEADER = (
    "entropy_hat",
    "exact_entropy",
    "rho_c_fidelity",
    "distribution_similarity",
    "total_counts",
    "seed",
    "noiseless",
)


def fmt_float(x: float) -> str:
    """Format a float with 12 significant digits."""
    return f"{x:.12g}"


def jsonable(obj):
    """Recursively convert numpy containers to JSON-friendly Python values.

    Floats are rounded to 12 significant digits so the JSON mirrors match
    the CSV output digit for digit.
    """
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(fmt_float(float(obj)))
    if isinstance(obj, complex):
        return {"re": jsonable(obj.real), "im": jsonable(obj.imag)}
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def write_json(path: Path | str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2)
        fh.write("\n")


#: JSON tokens of the non-finite floats, whose 12-digit text is nan, inf or -inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
#: Characters that make a CSV field quoted (the excel dialect of Python's csv module).
_CSV_QUOTED = frozenset(',"\r\n')


def _json_float(text: str) -> str:
    """``repr(float(text))`` in JSON spelling for the 12-digit `text` of a nonzero float."""
    _, e, exponent = text.partition("e")
    if not e:
        if "." in text:
            return text
        if text[-1].isdigit():
            return text + ".0"
    elif exponent[0] == "-" and int(exponent) > -308:
        return text
    return _JSON_NONFINITE.get(text) or repr(float(text))


def _float_tokens(x: np.ndarray, with_json: bool) -> tuple[list[str], list[str] | None]:
    """CSV and JSON tokens of a float array: exact +0.0 costs no formatting.

    The other cells' texts come from one ``%.12g`` format over them all.  A
    cell with 1e-307 <= |x| < 0.9 has a point and no exponent or an
    exponent from -307 to -5, and no 12 digits of it round to an integer,
    so its JSON token is its text; only the rest go through `_json_float`.
    """
    nonzero = np.flatnonzero((x != 0) | np.signbit(x))
    values = x[nonzero]
    digits = ("%.12g\n" * len(values) % tuple(values.tolist())).split("\n")[:-1]
    text = np.full(len(x), "0", dtype=object)
    text[nonzero] = digits
    if not with_json:
        return text.tolist(), None
    mirror = np.full(len(x), "0.0", dtype=object)
    mirror[nonzero] = digits
    size = np.abs(values)
    spelled = np.flatnonzero(~((size >= 1e-307) & (size < 0.9))).tolist()  # NaN among them
    mirror[nonzero[spelled]] = [_json_float(digits[i]) for i in spelled]
    return text.tolist(), mirror.tolist()


def _csv_field(value) -> str:
    """A non-float cell's CSV text: quoted, quotes doubled, if it holds , " or a line break."""
    text = str(value)
    return text if _CSV_QUOTED.isdisjoint(text) else '"' + text.replace('"', '""') + '"'


def _tokens(column, with_json: bool) -> tuple[list[str], list[str] | None]:
    """CSV and JSON tokens of one column of ints, floats and strings.

    A CSV token is the cell's text, quoted where the excel dialect quotes
    it, so a record is its tokens joined; a JSON token is the value as
    `write_json` prints it.  A numpy float column goes in bulk: 12
    significant digits, except exact +0.0, whose tokens are ``0`` and
    ``0.0``.  A float's JSON token is then its CSV token when that has a
    point and no exponent, or an exponent from -307 to -5: a normal float
    in at most 12 digits reads back as the same shortest digits.  An
    integer-like token gains ``.0``.  Only subnormals, 1e12 and up and the
    non-finite values are parsed back (`_json_float`).  Python ints go in
    bulk too, other Python values cell by cell; JSON tokens of floats and
    strings are computed only `with_json`.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        return _float_tokens(column, with_json)
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if set(map(type, values)) <= {int}:
        text = list(map(str, values))
        return text, text
    # Python floats, strings, or a mixed column such as lz's expected counts with blanks.
    text = [fmt_float(v) if isinstance(v, (float, np.floating)) else _csv_field(v) for v in values]
    return text, [json.dumps(jsonable(v)) for v in values] if with_json else None


def _csv_lines(texts: Sequence[list[str]]) -> str:
    """The CSV records of token columns, each ended by CR LF."""
    lines = list(map(",".join, zip(*texts)))
    if len(texts) == 1:  # a record that would be empty is quoted, not a blank line
        lines = [line or '""' for line in lines]
    return "\r\n".join(lines) + "\r\n" if lines else ""


def write_table(
    csv_path: Path | str | None,
    json_path: Path | str | None,
    header: Sequence[str],
    blocks: Iterable[Sequence],
    head: dict,
) -> None:
    """Write a table given as column blocks: the CSV and its JSON mirror in one pass.

    Each block holds one sequence or array per `header` field, and the
    blocks' records follow one another in the table.  Ints are printed with
    ``str``, floats with 12 significant digits, strings as they are.  The
    CSV is in the excel dialect of Python's csv module (quoted fields, CR LF
    record ends), so it reads back with `csv.reader`.  The mirror is
    `head`, then ``columns`` and ``records``, laid out as
    ``json.dump(..., indent=2)`` lays out the whole payload, so it is byte
    for byte what `write_json` writes for it with the records as rows.
    Each block goes to each file in one write.  A path of None skips that
    file; the blocks are consumed either way.
    """
    with contextlib.ExitStack() as files:
        csv_fh = json_fh = None
        if csv_path is not None:
            csv_fh = files.enter_context(open(csv_path, "w", newline=""))
            csv_fh.write(_csv_lines([_tokens([name], False)[0] for name in header]))
        if json_path is not None:
            json_fh = files.enter_context(open(json_path, "w"))
            text = json.dumps(jsonable({**head, "columns": header, "records": []}), indent=2)
            json_fh.write(text[: -len("[]\n}")] + "[")
        first = True
        for block in blocks:
            columns = [_tokens(column, json_fh is not None) for column in block]
            if csv_fh is not None:
                csv_fh.write(_csv_lines([text for text, _ in columns]))
            if json_fh is not None:
                records = list(map(",\n      ".join, zip(*(tokens for _, tokens in columns))))
                if records:  # a comma goes between the blocks' records
                    json_fh.write(("" if first else ",") + "\n    [\n      "
                                  + "\n    ],\n    [\n      ".join(records) + "\n    ]")
                    first = False
        if json_fh is not None:
            json_fh.write("]\n}\n" if first else "\n  ]\n}\n")


def trajectory_columns(state: WalkState) -> tuple:
    """The trajectory block of one state: a record per site j = -t .. t, ascending.

    Each record holds t, j, the spinor components and the site probability,
    with no probability thresholding.
    """
    (a, b), sites = state.amps, state.sites
    return (
        [state.t] * len(sites), sites, a.real, a.imag, b.real, b.imag, state.probabilities()
    )


def distribution_columns(dist: PositionDistribution) -> tuple:
    return dist.sites, dist.probabilities


def entropy_curve_columns(
    entropy: Sequence[float], eigenvalues: Sequence[Sequence[float]] = ()
) -> tuple:
    """t = 0 .. len - 1, the entropy, then any eigenvalue columns."""
    return (range(len(entropy)), entropy, *eigenvalues)


def moment_columns(series: MomentSeries) -> tuple:
    return series.times, series.m2


def read_moment_series_csv(path: Path | str) -> MomentSeries:
    """Read a (t, m2) series written by :func:`moment_columns` / the CLI.

    Raises ValueError naming the file and line of a row whose ``t`` is not
    an integer or whose ``m2`` is not a finite number.
    """
    times, m2 = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header[:2]] != ["t", "m2"]:
            raise ValueError(f"{path}: expected CSV header 't,m2'")
        for row in reader:
            if not row:
                continue
            where = f"{path}:{reader.line_num}"
            try:
                t, m = float(row[0]), float(row[1])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{where}: expected numbers 't,m2', got {row!r}") from exc
            if not t.is_integer():
                raise ValueError(f"{where}: time step t must be an integer, got {row[0]!r}")
            if not np.isfinite(m):
                raise ValueError(f"{where}: moment m2 must be finite, got {row[1]!r}")
            times.append(int(t))
            m2.append(m)
    if not times:
        raise ValueError(f"{path}: no data rows")
    return MomentSeries(times=np.asarray(times), m2=np.asarray(m2))


def counts_columns(counts: ProjectionCounts) -> tuple:
    """One record per (site, projector outcome), outcomes in `BASIS_PAIRS` order."""
    n = len(counts.sites)
    outcomes = [s for pair in BASIS_PAIRS for s in pair]
    bases = [plus + minus for plus, minus in BASIS_PAIRS for _ in range(2)]
    return np.repeat(counts.sites, len(outcomes)), bases * n, outcomes * n, counts.counts.ravel()


def sweep_report_dict(report: SweepReport) -> dict:
    """Summary of a sweep: the report's fields in order, but the per-sequence entropies."""
    summary = {f.name: getattr(report, f.name) for f in dataclasses.fields(report) if f.name != "entropies"}
    summary["init"] = dataclasses.asdict(report.init)
    return summary


def fit_dict(fit: PowerLawFit) -> dict:
    return {
        "prefactor": fit.prefactor,
        "exponent": fit.exponent,
        "residual": fit.residual,
        "window": {"t_min": fit.t_min, "t_max": fit.t_max},
    }


def tomography_dict(result: TomographyResult) -> dict:
    """Per-site blocks plus the run summary."""
    sites = zip(result.sites, result.p_hat, result.rho_hat, result.site_fidelities)
    return {
        "summary": {f: getattr(result, f) for f in TOMOGRAPHY_SUMMARY_HEADER},
        "rho_c_hat": result.rho_c_hat,
        "sites": [{"j": j, "p_hat": p, "rho_hat": rho, "fidelity": f} for j, p, rho, f in sites],
    }
