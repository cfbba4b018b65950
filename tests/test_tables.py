"""CLI tables against the row route: the column-wise writer and the streamed walk.

`io.write_table` must write the bytes that `csv.writer` plus `io.write_json`
write for the same rows (`oracles.reference_table`), and every file of a
CLI command must equal the one built from `evolve` and the library calls.
"""

import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

from dtqw import io, walk
from dtqw.cli import build_parser, main, resolve_config
from dtqw.coins import hadamard_coin
from dtqw.entanglement import coin_density_curve, density_eigenvalues, entropy_curve
from dtqw.sequences import (
    exhaustive_sweep,
    lz_complexity,
    parse_sequence_lines,
    reference_sequences,
    sampled_sweep,
)
from dtqw.tomography import tomographic_entropy
from dtqw.transport import classical_baseline, fit_power_law, moment_series, position_distribution
from dtqw.walk import DynamicSequence, InitialCoin, Ordered, StaticRandom, evolve, final_state

from oracles import reference_counts_rows, reference_csv, reference_table
from oracles import reference_trajectory_rows

SMALLEST_NORMAL = 2.2250738585072014e-308
#: Floats at the edges of the 12-digit text and of its JSON spelling.
BOUNDARY_FLOATS = [0.0, -0.0, SMALLEST_NORMAL, float(np.nextafter(SMALLEST_NORMAL, 0)), 1e-308,
                   1e-307, 999999999999.0, 1e12, 1e15, 1e16, -7.0, float("nan"), float("inf"),
                   float("-inf")]
FLOATS = [1 / 3, 1e-5, 5e-324, 123.0, 1.5e15] + BOUNDARY_FLOATS
N = len(FLOATS)
HEADER = ("i", "name", "expected", "x", "x_array", "x_scalars")
COLUMNS = (
    np.arange(-3, N - 3),
    ["plain", "a,b", 'say "hi"', "", "HFH", "cr\rlf\n"] + ["s"] * (N - 6),
    ([4, "", 7, 0, "", 12, -1, "", 3, 5, ""] * 2)[:N],  # lz `expected`: blank where none is given
    FLOATS,
    np.array(FLOATS),
    [np.float64(x) for x in FLOATS],
)
HEAD = {"schema_version": 1, "config": {"command": "test", "phi": [0.1, 2.0]}, "phi_deg": 1 / 3}


@pytest.mark.parametrize("cuts", [(0, N), (0, 1, 4, 4, 9, N), (), (0, 0)],
                         ids=["one block", "several blocks", "no blocks", "empty block"])
def test_write_table_matches_the_row_route(tmp_path, cuts):
    blocks = [tuple(c[a:b] for c in COLUMNS) for a, b in zip(cuts, cuts[1:])]
    rows = [row for block in blocks for row in zip(*block)]
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir(), want.mkdir()
    io.write_table(got / "t.csv", got / "t.json", HEADER, blocks, HEAD)
    reference_table(want, "t", HEADER, rows, HEAD)
    for name in ("t.csv", "t.json"):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
    if not rows:
        assert (got / "t.json").read_text().endswith('"records": []\n}\n')


def test_one_column_table_quotes_an_empty_cell(tmp_path):
    """csv.writer writes a record of one empty field as "", so that it is not a blank line."""
    header, blocks = ("name",), [(["", "a", ""],), ([],), (["b,c"],)]
    rows = [row for block in blocks for row in zip(*block)]
    got, want = tmp_path / "got", tmp_path / "want"
    got.mkdir(), want.mkdir()
    io.write_table(got / "t.csv", got / "t.json", header, blocks, {})
    reference_table(want, "t", header, rows, {})
    for name in ("t.csv", "t.json"):
        assert (got / name).read_bytes() == (want / name).read_bytes(), name
    assert (got / "t.csv").read_bytes() == b'name\r\n""\r\na\r\n""\r\n"b,c"\r\n'


def test_float_tokens_match_the_cell_route():
    """`_tokens`' bulk CSV text and its string-rule JSON tokens, against one cell at a time.

    Random bit patterns cover every exponent, subnormals and NaN payloads;
    the boundaries add both zeros, the normal/subnormal edge, the 1e12 and
    1e16 switches of the two spellings, an integer and the non-finite values.
    Uniform floats in (-1, 1) and the edges of the cells whose JSON token is
    their text, 1e-307 <= |x| < 0.9, cover the text rule; just below 1 the
    12 digits round to an integer.
    """
    rng = np.random.default_rng(20)
    bits = rng.integers(0, 2**64, size=500_000, dtype=np.uint64)
    subnormals = rng.uniform(-1, 1, size=1000) * SMALLEST_NORMAL
    edges = [0.9, np.nextafter(0.9, 0), 0.8999999999996, 0.9999999999996, np.nextafter(1.0, 0),
             1.0, np.nextafter(1e-307, 0), np.nextafter(1e-307, 1)]
    x = np.concatenate([BOUNDARY_FLOATS, bits.view(np.float64), subnormals, edges, np.negative(edges),
                        rng.uniform(-1, 1, size=100_000)])
    assert np.isnan(x).sum() > 100 and (np.abs(x) < SMALLEST_NORMAL).sum() > 1000
    text, mirror = io._tokens(x, True)
    assert text == [io.fmt_float(v) for v in x.tolist()]
    assert mirror == json.dumps(io.jsonable(x))[1:-1].split(", ")
    boundary = io._tokens(np.array(BOUNDARY_FLOATS), True)
    assert io._tokens(BOUNDARY_FLOATS, True) == boundary
    assert io._tokens(BOUNDARY_FLOATS, False) == (boundary[0], None)


# --- every table of a command against the oracle ------------------------------

INIT = ("--theta", "51", "--phi", "30")
SEQUENCE = "FFHFHFHHFFFFFHFHHHHH"
LZ_FILE = "HFHFHFHF 4\nHHHHFFFF\nFHFFHFFFHH 5\n"


def walk_reference(policy, steps):
    def write(out, head, kept):
        trajectory = evolve(InitialCoin(51, 30), policy, steps)
        dist = position_distribution(trajectory[-1])
        series = moment_series(InitialCoin(51, 30), policy, steps)
        tables = {
            "trajectory": (io.TRAJECTORY_HEADER, reference_trajectory_rows(trajectory)),
            "distribution": (io.DISTRIBUTION_HEADER,
                             [(int(j), float(p)) for j, p in zip(dist.sites, dist.probabilities)]),
            "moments": (io.MOMENT_HEADER,
                        [(int(t), float(m)) for t, m in zip(series.times, series.m2)]),
        }
        for stem, (header, rows) in tables.items():
            reference_table(out, stem, header, rows, head, kept)
    return write


def entropy_reference(out, head, kept):
    for phi in (0.0, 90.5, 180.0):
        init, policy = InitialCoin(51, phi), Ordered(hadamard_coin())
        lam = density_eigenvalues(coin_density_curve(init, policy, 30))
        rows = [(t, s, float(a), float(b))
                for (t, s), a, b in zip(entropy_curve(init, policy, 30), *lam)]
        reference_table(out, f"entropy_curve_phi{phi:g}", io.ENTROPY_EIGEN_HEADER, rows,
                        {**head, "phi_deg": phi}, kept)


def lz_reference(entries):
    def write(out, head, kept):
        header = ("sequence", "length", "lz_complexity", "expected")
        rows = [(seq.text, len(seq), lz_complexity(seq), "" if e is None else e)
                for seq, e in entries()]
        reference_table(out, "lz_complexity", header, rows, head, kept)
    return write


def tomo_reference(out, head, kept):
    state = final_state(InitialCoin(51, 30), StaticRandom(seed=2), 12)
    result = tomographic_entropy(state, total_counts=5000, seed=4)
    reference_table(out, "counts", io.COUNTS_HEADER, reference_counts_rows(result.counts),
                    head, kept)
    fields = io.TOMOGRAPHY_SUMMARY_HEADER
    if "csv" in kept:
        reference_csv(out / "tomography_summary.csv", fields,
                      [tuple(getattr(result, f) for f in fields)])
    if "json" in kept:
        io.write_json(out / "tomography.json", {**head, **io.tomography_dict(result)})


def sweep_reference(sweep):
    def write(out, head, kept):
        report = sweep()
        io.write_json(out / "sweep_report.json", {**head, **io.sweep_report_dict(report)})
        if "csv" in kept:
            edges = report.bin_edges
            rows = [(float(lo), float(hi), int(c))
                    for lo, hi, c in zip(edges[:-1], edges[1:], report.bin_counts)]
            reference_csv(out / "sweep_histogram.csv", ("bin_low", "bin_high", "count"), rows)
    return write


def fit_reference(out, head, kept):
    fit = fit_power_law(classical_baseline(50), t_min=1)
    if "csv" in kept:
        reference_csv(out / "fit.csv", io.FIT_HEADER,
                      [tuple(getattr(fit, f) for f in io.FIT_HEADER)])
    if "json" in kept:
        io.write_json(out / "fit.json", {**head, **io.fit_dict(fit)})


CASES = {
    "walk sequence": (["walk", *INIT, "--steps", "20", "--sequence", SEQUENCE],
                      walk_reference(DynamicSequence(SEQUENCE), 20)),
    "walk static": (["walk", *INIT, "--steps", "20", "--static-seed", "5"],
                    walk_reference(StaticRandom(seed=5), 20)),
    "entropy": (["entropy", "--theta", "51", "--phi", "0,90.5,180", "--steps", "30",
                 "--ordered", "H", "--eigenvalues"], entropy_reference),
    "lz": (["lz"], lz_reference(reference_sequences)),
    "lz input": (["lz", "--input", "{seqs}"],
                 lz_reference(lambda: parse_sequence_lines(LZ_FILE, "seqs.txt"))),
    "tomo": (["tomo", *INIT, "--steps", "12", "--static-seed", "2", "--total-counts", "5000",
              "--seed", "4"], tomo_reference),
    "sweep": (["sweep", *INIT, "--n", "8"],
              sweep_reference(lambda: exhaustive_sweep(InitialCoin(51.0, 30.0), 8))),
    "sweep sampled": (["sweep", *INIT, "--samples", "300", "--n", "30", "--bins=0,0.25,1"],
                      sweep_reference(lambda: sampled_sweep(
                          InitialCoin(51.0, 30.0), 30, samples=300, seed=0, bins=[0, 0.25, 1]))),
    "fit": (["fit", "--classical", "50"], fit_reference),
}


@pytest.mark.parametrize("fmt", ["csv", "json", "both"])
@pytest.mark.parametrize("case", list(CASES))
def test_cli_files_match_the_row_route(tmp_path, capsys, case, fmt):
    argv, reference = CASES[case]
    seqs = tmp_path / "seqs.txt"
    seqs.write_text(LZ_FILE)
    got, want = tmp_path / "got", tmp_path / "want"
    argv = [a.format(seqs=seqs) for a in argv] + ["--format", fmt, "--out", str(got)]
    assert main(argv) == 0
    cfg = resolve_config(argv[0], build_parser().parse_args(argv))
    want.mkdir()
    reference(want, {"schema_version": io.SCHEMA_VERSION, "config": cfg},
              ("csv", "json") if fmt == "both" else (fmt,))
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        assert unclocked(got / name) == unclocked(want / name), name


def unclocked(path):
    """The bytes of a file without the sweep report's `wall_time_s` line, which no run repeats."""
    return re.sub(rb'\n  "wall_time_s": [^\n]*', b"", path.read_bytes())


def test_walk_streams_from_one_propagation_in_bounded_memory(tmp_path, monkeypatch, capsys):
    argv = ["walk", *INIT, "--dynamic-seed", "3", "--out"]
    assert main([*argv, str(tmp_path / "warm"), "--steps", "2"]) == 0  # first-call set-up
    calls = []
    real = walk._propagate

    def counting(*args):
        calls.append(1)
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "dtqw" and getattr(mod, "_propagate", None) is real:
            monkeypatch.setattr(mod, "_propagate", counting)
    tracemalloc.start()
    try:
        code = main([*argv, str(tmp_path / "run"), "--steps", "200"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(calls) == 1
    # The dense trajectory of 201^2 rows held as tuples peaks near 20 MB.
    assert peak < 2 * 2**20, peak
