"""CSV and JSON export helpers shared by the library and the command line.

Every CSV has a fixed header row; floats are printed with 12 significant
digits in both formats.  JSON payloads mirror the CSV data and additionally
carry a schema version and, when written by the CLI, the full resolved
configuration of the run.
"""

from __future__ import annotations

import csv
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
    "write_csv",
    "write_json",
    "trajectory_rows",
    "distribution_rows",
    "entropy_curve_rows",
    "moment_rows",
    "counts_rows",
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


def write_csv(path: Path | str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write rows under a fixed header, formatting floats with 12 digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [fmt_float(v) if isinstance(v, (float, np.floating)) else v for v in row]
            )


def write_json(path: Path | str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(jsonable(payload), fh, indent=2)
        fh.write("\n")


def trajectory_rows(trajectory: Sequence[WalkState]) -> list[tuple]:
    """One record per (t, j) with spinor components and site probability.

    Sites run over the full window -t..t in ascending order, with no
    probability thresholding.
    """
    rows = []
    for state in trajectory:
        probs = state.probabilities()
        for idx, j in enumerate(state.sites):
            a = state.amps[0, idx]
            b = state.amps[1, idx]
            rows.append(
                (state.t, int(j), a.real, a.imag, b.real, b.imag, float(probs[idx]))
            )
    return rows


def distribution_rows(dist: PositionDistribution) -> list[tuple]:
    return [(int(j), float(p)) for j, p in zip(dist.sites, dist.probabilities)]


def entropy_curve_rows(
    curve: Sequence[tuple[int, float]],
    eigenvalues: Sequence[tuple[float, float]] | None = None,
) -> list[tuple]:
    if eigenvalues is None:
        return [(t, s) for t, s in curve]
    return [
        (t, s, lam[0], lam[1]) for (t, s), lam in zip(curve, eigenvalues)
    ]


def moment_rows(series: MomentSeries) -> list[tuple]:
    return [(int(t), float(m)) for t, m in zip(series.times, series.m2)]


def read_moment_series_csv(path: Path | str) -> MomentSeries:
    """Read a (t, m2) series written by :func:`moment_rows` / the CLI.

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


def counts_rows(counts: ProjectionCounts) -> list[tuple]:
    """One record per (site, projector outcome)."""
    rows = []
    for row, j in enumerate(counts.sites):
        for pair, (plus, minus) in enumerate(BASIS_PAIRS):
            basis = plus + minus
            rows.append((int(j), basis, plus, float(counts.counts[row, 2 * pair])))
            rows.append((int(j), basis, minus, float(counts.counts[row, 2 * pair + 1])))
    return rows


def sweep_report_dict(report: SweepReport) -> dict:
    """Summary of a sweep; omits the per-sequence entropy array."""
    return {
        "n": report.n,
        "init": {"theta_deg": report.init.theta_deg, "phi_deg": report.init.phi_deg},
        "count": report.count,
        "mean_entropy": report.mean_entropy,
        "std_entropy": report.std_entropy,
        "std_error": report.std_error,
        "threshold": report.threshold,
        "fraction_above": report.fraction_above,
        "bin_edges": report.bin_edges,
        "bin_counts": report.bin_counts,
        "max_entropy": report.max_entropy,
        "argmax_sequences": report.argmax_sequences,
        "sampled": report.sampled,
        "seed": report.seed,
        "samples": report.samples,
        "wall_time_s": report.wall_time_s,
    }


def fit_dict(fit: PowerLawFit) -> dict:
    return {
        "prefactor": fit.prefactor,
        "exponent": fit.exponent,
        "residual": fit.residual,
        "window": {"t_min": fit.t_min, "t_max": fit.t_max},
    }


def tomography_dict(result: TomographyResult) -> dict:
    """Per-site blocks plus the run summary."""
    site_blocks = []
    for row, j in enumerate(result.sites):
        rho = result.rho_hat[row]
        site_blocks.append(
            {
                "j": int(j),
                "p_hat": result.p_hat[row],
                "rho_hat": [[complex(rho[r, c]) for c in range(2)] for r in range(2)],
                "fidelity": result.site_fidelities[row],
            }
        )
    rho_c = result.rho_c_hat
    return {
        "summary": {f: getattr(result, f) for f in TOMOGRAPHY_SUMMARY_HEADER},
        "rho_c_hat": [[complex(rho_c[r, c]) for c in range(2)] for r in range(2)],
        "sites": site_blocks,
    }
