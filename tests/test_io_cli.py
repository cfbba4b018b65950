import argparse
import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dtqw
from dtqw import io, transport
from dtqw.cli import TRAJECTORY_ROW_LIMIT, CLIError, build_parser, main, resolve_config
from dtqw.coins import hadamard_coin
from dtqw.entanglement import density_eigenvalues, reduced_coin_density, state_entropy
from dtqw.transport import MomentSeries
from dtqw.walk import InitialCoin, Ordered, StaticAndDynamic, evolve


def run_cli(*argv: str) -> int:
    return main(list(argv))


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# --- io ------------------------------------------------------------------------


def test_float_formatting_uses_12_significant_digits(tmp_path):
    path = tmp_path / "x.csv"
    io.write_table(path, None, ("a",), [([1.0 / 3.0],)], {})
    header, rows = read_csv(path)
    assert rows[0][0] == "0.333333333333"
    assert io.jsonable(np.float64(2.0) / 3.0) == float("0.666666666667")


def test_trajectory_rows_cover_all_sites():
    trajectory = evolve(InitialCoin(51, 0), Ordered(hadamard_coin()), 3)
    blocks = [io.trajectory_columns(state) for state in trajectory]
    rows = [row for block in blocks for row in zip(*block)]
    assert len(rows) == 1 + 3 + 5 + 7
    per_t = {}
    for t, j, *_rest, p in rows:
        per_t.setdefault(t, 0.0)
        per_t[t] += p
    for t, total in per_t.items():
        assert total == pytest.approx(1.0, abs=1e-12)
    # parity-forbidden sites are present, with exactly zero probability
    assert any(t == 1 and j == 0 and p == 0.0 for t, j, *_r, p in rows)


def test_moment_series_csv_round_trip(tmp_path):
    series = MomentSeries(times=np.arange(1, 6), m2=np.array([1.0, 2, 3, 5, 8.25]))
    path = tmp_path / "m2.csv"
    io.write_table(path, None, io.MOMENT_HEADER, [io.moment_columns(series)], {})
    back = io.read_moment_series_csv(path)
    np.testing.assert_array_equal(back.times, series.times)
    np.testing.assert_allclose(back.m2, series.m2, rtol=1e-12)


def test_read_moment_series_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("time,value\n1,1\n")
    with pytest.raises(ValueError):
        io.read_moment_series_csv(path)


@pytest.mark.parametrize(
    "line, message",
    [
        ("1.5,2.0", "time step t must be an integer, got '1.5'"),
        ("2,nan", "moment m2 must be finite, got 'nan'"),
        ("2,inf", "moment m2 must be finite, got 'inf'"),
        ("2,abc", "expected numbers 't,m2'"),
    ],
)
def test_read_moment_series_rejects_bad_rows_naming_file_and_line(tmp_path, line, message):
    path = tmp_path / "m2.csv"
    path.write_text(f"t,m2\n1,1.0\n{line}\n3,9.0\n")
    with pytest.raises(ValueError) as info:
        io.read_moment_series_csv(path)
    assert str(info.value).startswith(f"{path}:3: ")
    assert message in str(info.value)


# --- CLI -----------------------------------------------------------------------


def test_cli_walk_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli(
        "walk", "--theta", "51", "--phi", "0", "--steps", "20",
        "--sequence", "FFHFHFHHFFFFFHFHHHHH", "--out", str(out),
    )
    assert code == 0
    for name in (
        "trajectory.csv", "trajectory.json", "distribution.csv",
        "distribution.json", "moments.csv", "moments.json",
    ):
        assert (out / name).exists()
    header, rows = read_csv(out / "distribution.csv")
    assert header == list(io.DISTRIBUTION_HEADER)
    assert sum(float(r[1]) for r in rows) == pytest.approx(1.0, abs=1e-9)
    payload = json.loads((out / "trajectory.json").read_text())
    assert payload["schema_version"] == 1
    assert payload["config"]["steps"] == 20


def test_cli_walk_rejects_zero_steps(tmp_path, capsys):
    code = run_cli(
        "walk", "--theta", "51", "--phi", "0", "--steps", "0",
        "--ordered", "H", "--out", str(tmp_path / "x"),
    )
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert "steps" in err["message"]


def test_cli_walk_refuses_trajectory_past_the_row_limit(tmp_path, capsys):
    # (steps + 1)^2 rows: 1023 steps is the largest accepted walk.
    assert (1023 + 1) ** 2 <= TRAJECTORY_ROW_LIMIT < (1024 + 1) ** 2
    out = tmp_path / "big"
    code = run_cli(
        "walk", "--theta", "51", "--phi", "0", "--steps", "1024",
        "--ordered", "H", "--out", str(out),
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert str(TRAJECTORY_ROW_LIMIT) in err["message"]
    assert not out.exists()


def test_cli_refuses_overwrite_without_force(tmp_path, capsys):
    out = tmp_path / "run"
    args = ("walk", "--theta", "51", "--phi", "0", "--steps", "2",
            "--ordered", "H", "--out", str(out))
    assert run_cli(*args) == 0
    assert run_cli(*args) == 1
    err = json.loads(capsys.readouterr().err)
    assert "refusing to overwrite" in err["message"]
    assert run_cli(*args, "--force") == 0


def test_cli_entropy_multiple_phis(tmp_path):
    out = tmp_path / "curves"
    code = run_cli(
        "entropy", "--theta", "51", "--phi", "0,90,180", "--steps", "5",
        "--ordered", "H", "--out", str(out), "--eigenvalues",
    )
    assert code == 0
    header, rows = read_csv(out / "entropy_curve_phi90.csv")
    assert header == list(io.ENTROPY_EIGEN_HEADER)
    assert len(rows) == 6
    assert float(rows[0][1]) == 0.0  # t = 0 row

    def same_at_12_digits(text, ref):
        # Printed with 12 significant digits; the last one may differ by one.
        unit = 10.0 ** (np.floor(np.log10(abs(ref))) - 11) if ref else 1e-300
        return abs(float(text) - ref) <= 1.5 * unit

    for phi in (0, 90, 180):
        _, rows = read_csv(out / f"entropy_curve_phi{phi}.csv")
        states = evolve(InitialCoin(51, phi), Ordered(hadamard_coin()), 5)
        for row, state in zip(rows, states):
            assert int(row[0]) == state.t
            rho = reduced_coin_density(state)
            refs = (state_entropy(state), *density_eigenvalues(rho))
            for text, ref in zip(row[1:], refs):
                assert same_at_12_digits(text, float(ref)), (phi, row, refs)


def test_cli_entropy_one_phi_writes_an_unsuffixed_curve(tmp_path):
    one, three = tmp_path / "one", tmp_path / "three"
    argv = ("entropy", "--theta", "51", "--steps", "6", "--ordered", "H")
    assert run_cli(*argv, "--phi", "0", "--out", str(one)) == 0
    assert sorted(p.name for p in one.iterdir()) == ["entropy_curve.csv", "entropy_curve.json"]
    assert json.loads((one / "entropy_curve.json").read_text())["phi_deg"] == 0.0
    assert run_cli(*argv, "--phi", "0,90,180", "--out", str(three)) == 0
    assert (one / "entropy_curve.csv").read_bytes() == (three / "entropy_curve_phi0.csv").read_bytes()


@pytest.mark.parametrize("phis, name", [
    ("0,0", "entropy_curve_phi0"),
    ("10.0000001,10.0000002", "entropy_curve_phi10"),
])
def test_cli_entropy_refuses_phis_that_share_a_file_name(tmp_path, capsys, phis, name):
    out = tmp_path / "curves"
    code = run_cli(
        "entropy", "--theta", "51", "--phi", phis, "--steps", "3",
        "--ordered", "H", "--out", str(out), "--format", "csv",
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err["error"] == "config"
    assert str(out / f"{name}.csv") in err["message"]
    assert str(out / f"{name}.json") in err["message"]
    assert not out.exists()


def test_cli_entropy_checks_every_phi_before_writing(tmp_path, capsys):
    out = tmp_path / "curves"
    code = run_cli(
        "entropy", "--theta", "51", "--phi", "0,400", "--steps", "3",
        "--ordered", "H", "--out", str(out),
    )
    assert code == 1
    assert "phi" in json.loads(capsys.readouterr().err)["message"]
    assert not list(out.glob("*"))


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# demo configuration\n"
        "schema_version = 1\n"
        "command = walk\n"
        "theta = 51\n"
        "phi = 0\n"
        "steps = 4\n"
        "ordered = H\n"
    )
    out = tmp_path / "out_a"
    assert run_cli("walk", "--config", str(cfg), "--out", str(out)) == 0
    payload = json.loads((out / "distribution.json").read_text())
    assert payload["config"]["steps"] == 4
    # flags win over the file
    out2 = tmp_path / "out_b"
    assert run_cli("walk", "--config", str(cfg), "--steps", "6", "--out", str(out2)) == 0
    payload2 = json.loads((out2 / "distribution.json").read_text())
    assert payload2["config"]["steps"] == 6


def test_cli_config_rejects_unknown_keys_and_versions(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("schema_version = 1\nwibble = 3\n")
    assert run_cli("walk", "--config", str(bad)) == 1
    assert "wibble" in json.loads(capsys.readouterr().err)["message"]

    worse = tmp_path / "worse.cfg"
    worse.write_text("schema_version = 2\ntheta = 51\n")
    assert run_cli("walk", "--config", str(worse)) == 1

    unversioned = tmp_path / "unversioned.cfg"
    unversioned.write_text("theta = 51\n")
    assert run_cli("walk", "--config", str(unversioned)) == 1

    mismatched = tmp_path / "mismatched.cfg"
    mismatched.write_text("schema_version = 1\ncommand = sweep\n")
    assert run_cli("walk", "--config", str(mismatched)) == 1


def test_cli_bad_flag_values_reported_like_config_values(tmp_path, capsys):
    out = str(tmp_path / "x")
    force_cfg = tmp_path / "force.cfg"
    force_cfg.write_text("schema_version = 1\nforce = maybe\n")
    cases = [
        ("bad value for option --phi: ",
         ("entropy", "--theta", "51", "--phi", "abc", "--steps", "3",
          "--ordered", "H", "--out", out)),
        ("bad value for option --bins: ",
         ("sweep", "--theta", "51", "--phi", "0", "--n", "3", "--bins", "x", "--out", out)),
        ("bad value for option --steps: ",
         ("walk", "--theta", "51", "--phi", "0", "--steps", "abc", "--ordered", "H",
          "--out", out)),
        ("bad value for option --dynamic-seed: ",
         ("walk", "--theta", "51", "--phi", "0", "--steps", "3", "--dynamic-seed", "x",
          "--out", out)),
        ("bad value for option --format: ", ("lz", "--format", "xml", "--out", out)),
        ("bad value for config key 'force': ",
         ("lz", "--config", str(force_cfg), "--out", out)),
        ("unrecognized arguments: --wibble", ("lz", "--wibble", "--out", out)),
        ("argument --steps: expected one argument", ("walk", "--steps")),
    ]
    for prefix, argv in cases:
        assert run_cli(*argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "config"
        assert err["message"].startswith(prefix)
    assert not (tmp_path / "x").exists()
    with pytest.raises(SystemExit) as help_exit:
        run_cli("walk", "--help")
    assert help_exit.value.code == 0


WALK_ARGS = ("--theta", "51", "--phi", "0", "--steps", "2")


@pytest.mark.parametrize(
    "argv,source",
    [
        (("walk", *WALK_ARGS, "--static-seed", "-3"), "option --static-seed"),
        (("walk", *WALK_ARGS, "--dynamic-seed", "-1"), "option --dynamic-seed"),
        (("tomo", *WALK_ARGS, "--ordered", "H", "--total-counts", "100", "--seed", "-1"),
         "option --seed"),
        (("sweep", "--theta", "51", "--phi", "0", "--n", "5", "--samples", "5", "--seed", "-1"),
         "option --seed"),
        (("entropy", *WALK_ARGS, "--dynamic-seed", "2", "--config", "seed.cfg"),
         "config key 'static_seed'"),
    ],
    ids=["static_seed", "dynamic_seed", "tomo-seed", "sweep-seed", "config-static_seed"],
)
def test_cli_negative_seed_names_its_option(tmp_path, monkeypatch, capsys, argv, source):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "seed.cfg").write_text("schema_version = 1\nstatic_seed = -4\n")
    out = tmp_path / "x"
    assert run_cli(*argv, "--out", str(out)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["message"].startswith(f"bad value for {source}: ")
    assert "non-negative" in err["message"]
    assert not out.exists()


# The CLI surface: for each command, every key is both a config key and the
# flag --key (underscores become dashes).
CLI_KEYS = {
    "walk": {"theta", "phi", "steps", "ordered", "sequence", "dynamic_seed",
             "static_seed", "out", "format", "force"},
    "entropy": {"theta", "phi", "steps", "ordered", "sequence", "dynamic_seed",
                "static_seed", "eigenvalues", "out", "format", "force"},
    "sweep": {"theta", "phi", "n", "bins", "threshold", "samples", "seed", "out", "format",
              "force"},
    "lz": {"input", "sequence", "out", "format", "force"},
    "fit": {"input", "classical", "t_min", "t_max", "out", "format", "force"},
    "tomo": {"theta", "phi", "steps", "ordered", "sequence", "dynamic_seed",
             "static_seed", "total_counts", "seed", "noiseless", "out", "format", "force"},
}
# One valid text per key; switches are flags without a value.
SAMPLE_TEXT = {
    "theta": "51", "phi": "0,90", "steps": "7", "ordered": "H", "sequence": "HFH",
    "dynamic_seed": "3", "static_seed": "4", "n": "5", "bins": "0,0.5,1",
    "threshold": "0.8", "samples": "9", "seed": "2", "total_counts": "900",
    "noiseless": None, "eigenvalues": None, "t_min": "2", "t_max": "6", "input": "in.csv",
    "classical": "20", "out": "o", "format": "csv", "force": None,
}


@pytest.mark.parametrize("command", sorted(CLI_KEYS))
def test_cli_flags_and_config_keys_are_one_set(command, tmp_path):
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    flags = {s for a in sub.choices[command]._actions for s in a.option_strings}
    assert flags - {"-h", "--help", "--config"} == {
        "--" + k.replace("_", "-") for k in CLI_KEYS[command]
    }

    accepted = set()
    for key, text in SAMPLE_TEXT.items():
        cfg = tmp_path / f"{key}.cfg"
        cfg.write_text(f"schema_version = 1\n{key} = {text or 'true'}\n")
        try:
            from_file = resolve_config(command, argparse.Namespace(config=str(cfg)))
        except CLIError as exc:
            assert str(exc).startswith("unknown config key")
            continue
        accepted.add(key)
        argv = [command, "--" + key.replace("_", "-")] + ([text] if text else [])
        from_flag = resolve_config(command, build_parser().parse_args(argv))
        assert from_flag == from_file
        assert type(from_flag[key]) is type(from_file[key])
    assert accepted == CLI_KEYS[command]


def test_cli_config_echo_has_fixed_key_order(tmp_path):
    out = tmp_path / "fit"
    env = dict(os.environ, PYTHONPATH=str(Path(dtqw.__file__).parents[1]))
    echoed = []
    for hash_seed in ("1", "2"):
        subprocess.run(
            [sys.executable, "-m", "dtqw.cli", "fit", "--classical", "20", "--t-max", "15",
             "--out", str(out), "--force"],
            env={**env, "PYTHONHASHSEED": hash_seed}, check=True, capture_output=True,
        )
        echoed.append((out / "fit.json").read_bytes())
    assert echoed[0] == echoed[1]
    config = json.loads(echoed[0])["config"]
    assert list(config) == ["t_min", "t_max", "classical", "out", "format", "force",
                            "command"]


REPORT_KEYS = ["schema_version", "config", "n", "init", "count", "mean_entropy", "std_entropy",
               "std_error", "threshold", "fraction_above", "bin_edges", "bin_counts", "max_entropy",
               "argmax_sequences", "sampled", "seed", "samples", "wall_time_s"]


@pytest.mark.parametrize("samples", [(), ("--samples", "40")], ids=["exhaustive", "sampled"])
def test_cli_sweep_report_has_fixed_key_order(tmp_path, samples):
    out = tmp_path / "sweep"
    assert run_cli("sweep", "--theta", "51", "--phi", "0", "--n", "6", *samples,
                   "--out", str(out)) == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert list(report) == REPORT_KEYS
    assert list(report["init"]) == ["theta_deg", "phi_deg"]


def test_cli_config_rerun_reproduces_results_byte_for_byte(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "schema_version = 1\ncommand = sweep\ntheta = 51\nphi = 0\nn = 8\n"
        "threshold = 0.9\nbins = 12\n"
    )
    out1, out2 = tmp_path / "s1", tmp_path / "s2"
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out1)) == 0
    assert run_cli("sweep", "--config", str(cfg), "--out", str(out2)) == 0
    a = json.loads((out1 / "sweep_report.json").read_text())
    b = json.loads((out2 / "sweep_report.json").read_text())
    a.pop("wall_time_s"), b.pop("wall_time_s")
    a["config"].pop("out"), b["config"].pop("out")
    assert a == b
    assert (out1 / "sweep_histogram.csv").read_text() == (
        out2 / "sweep_histogram.csv"
    ).read_text()


def test_cli_sweep_sampled(tmp_path):
    out = tmp_path / "sampled"
    code = run_cli(
        "sweep", "--theta", "51", "--phi", "0", "--n", "26",
        "--samples", "500", "--seed", "11", "--out", str(out),
    )
    assert code == 0
    report = json.loads((out / "sweep_report.json").read_text())
    assert report["sampled"] is True
    assert report["samples"] == 500
    assert report["std_error"] > 0


def test_cli_lz_default_fixture(tmp_path):
    out = tmp_path / "lz"
    assert run_cli("lz", "--out", str(out), "--format", "csv") == 0
    header, rows = read_csv(out / "lz_complexity.csv")
    assert header == ["sequence", "length", "lz_complexity", "expected"]
    assert len(rows) == 12
    assert not (out / "lz_complexity.json").exists()


def test_cli_lz_single_sequence(tmp_path):
    out = tmp_path / "lz1"
    assert run_cli("lz", "--sequence", "HFHFHFHFHFHFHFHFHFHF", "--out", str(out)) == 0
    header, rows = read_csv(out / "lz_complexity.csv")
    assert rows[0][2] == "3"


def test_cli_lz_bad_expected_count_names_file_and_line(tmp_path, capsys):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("# sequences\nHFH 3\nHHF x\n")
    assert run_cli("lz", "--input", str(seqs), "--out", str(tmp_path / "lz")) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["message"].startswith(f"{seqs}:3: ")


def test_cli_lz_bad_symbol_names_file_and_line(tmp_path, capsys):
    seqs = tmp_path / "seqs.txt"
    seqs.write_text("HFH 3\n\n# next\nHXF 2\n")
    out = tmp_path / "lz"
    assert run_cli("lz", "--input", str(seqs), "--out", str(out)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["message"].startswith(f"{seqs}:4: illegal symbol 'X'")
    assert not out.exists()


def test_cli_fit_reports_unreadable_input_as_config_error(tmp_path, capsys):
    missing = tmp_path / "nope.csv"
    out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(missing), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "config"
    assert err["message"].startswith(f"cannot read moment series file {missing}: ")
    assert not out.exists()


def test_cli_fit_rejects_fractional_times(tmp_path, capsys):
    series_path = tmp_path / "m2.csv"
    series_path.write_text("t,m2\n1,1\n1.5,2\n2,4\n3,9\n")
    out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(series_path), "--out", str(out)) == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert err["message"].startswith(f"{series_path}:3: ")
    assert not out.exists()


def test_cli_fit_from_series_file(tmp_path):
    series_path = tmp_path / "m2.csv"
    t = np.arange(1, 21)
    io.write_table(series_path, None, io.MOMENT_HEADER, [(t, 2.5 * t**1.7)], {})
    out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(series_path), "--out", str(out)) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["prefactor"] == pytest.approx(2.5, abs=1e-9)
    assert fit["exponent"] == pytest.approx(1.7, abs=1e-9)


def test_cli_fit_classical(tmp_path):
    out = tmp_path / "fitc"
    assert run_cli("fit", "--classical", "20", "--out", str(out)) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert abs(fit["exponent"] - 1.0) < 1e-12


def test_cli_walk_then_fit_round_trip(tmp_path):
    run = tmp_path / "run"
    assert run_cli(
        "walk", "--theta", "51", "--phi", "0", "--steps", "20",
        "--ordered", "H", "--out", str(run), "--format", "csv",
    ) == 0
    out = tmp_path / "fit"
    assert run_cli("fit", "--input", str(run / "moments.csv"), "--out", str(out)) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert abs(fit["exponent"] - 2.0) <= 0.1
    assert abs(fit["prefactor"] - 0.29) <= 0.03


def test_cli_fit_reports_non_convergence(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(transport, "_FIT_MAX_EVALS", 1)
    out = tmp_path / "fit"
    assert run_cli("fit", "--classical", "20", "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    err = json.loads(captured.err)
    assert err == {"error": "config", "message": err["message"]}
    assert "did not converge within _FIT_MAX_EVALS = 1" in err["message"]
    assert not out.exists()


def test_import_loads_no_scipy():
    env = dict(os.environ, PYTHONPATH=str(Path(dtqw.__file__).parents[1]))
    code = (
        "import sys, dtqw, dtqw.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.strip() == "[]"


def test_import_loads_no_multiprocessing():
    # Sweeps run in the calling thread: nothing imports a process or thread
    # pool, nor the logging that concurrent.futures pulls in.
    env = dict(os.environ, PYTHONPATH=str(Path(dtqw.__file__).parents[1]))
    code = (
        "import sys, dtqw.cli; "
        "print([m for m in ('multiprocessing', 'concurrent.futures', 'logging') if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True, capture_output=True, text=True
    )
    assert done.stdout.strip() == "[]"


def test_cli_fit_requires_one_source(tmp_path, capsys):
    assert run_cli("fit", "--out", str(tmp_path / "f")) == 1
    capsys.readouterr()


def test_cli_rejected_run_leaves_no_output_directory(tmp_path, capsys):
    out = tmp_path / "d"
    init = ("--theta", "51", "--phi", "0")
    for argv in (
        ("fit",),
        ("tomo", *init, "--steps", "0", "--total-counts", "1000", "--ordered", "H"),
        ("sweep", *init, "--n", "25"),
        ("sweep", *init, "--n", "3", "--workers", "2"),
        ("tomo", *init, "--steps", "4", "--ordered", "H", "--total-counts", str(10**23)),
        ("tomo", *init, "--steps", str(10**30), "--ordered", "H", "--total-counts", "10"),
        ("sweep", *init, "--n", "40", "--samples", str(2**24 + 1)),
    ):
        assert run_cli(*argv, "--out", str(out)) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "config"
        assert not out.exists()


WALK_H = ("walk", "--theta", "51", "--steps", "3", "--ordered", "H")


@pytest.mark.parametrize("argv, files, message", [
    (("walk", "--config", "{tmp}/none.cfg"), {},
     "cannot read config file {tmp}/none.cfg: [Errno 2] No such file or directory: '{tmp}/none.cfg'"),
    (("walk", "--config", "{tmp}/run.cfg"), {"run.cfg": "schema_version = 1\ntheta 51\n"},
     "{tmp}/run.cfg:2: expected 'key = value', got 'theta 51'"),
    (("walk", "--config", "{tmp}/run.cfg"),
     {"run.cfg": "schema_version = 1\ntheta = 51\n# again\ntheta = 52\n"},
     "{tmp}/run.cfg:4: duplicate key 'theta'"),
    (("walk", "--theta", "51", "--phi", "0", "--ordered", "H"), {},
     "missing required option(s): steps"),
    ((*WALK_H, "--phi", "0,90"), {}, "this command takes exactly one phi value"),
    (("lz", "--sequence", "HFH", "--input", "{tmp}/seqs.txt"), {"seqs.txt": "HFH 3\n"},
     "give either --sequence or --input, not both"),
    (("lz", "--input", "{tmp}/none.txt"), {},
     "cannot read sequence file {tmp}/none.txt: [Errno 2] No such file or directory: '{tmp}/none.txt'"),
    ((*WALK_H, "--phi", ","), {},
     "bad value for option --phi: expected comma-separated numbers, got ','"),
    (("fit", "--input", "{tmp}/m2.csv"), {"m2.csv": "t,m2\r\n"}, "{tmp}/m2.csv: no data rows"),
], ids=["unreadable config", "config line without =", "duplicate config key", "missing option",
        "walk with two phi", "lz sequence and input", "unreadable lz input", "empty phi list",
        "fit input without rows"])
def test_cli_refusals_report_config_errors_and_write_nothing(tmp_path, capsys, argv, files, message):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    out = tmp_path / "out"
    assert run_cli(*(a.format(tmp=tmp_path) for a in argv), "--out", str(out)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err) == {"error": "config", "message": message.format(tmp=tmp_path)}
    assert not out.exists()


@pytest.mark.parametrize("samples", [(), ("--samples", "10")])
@pytest.mark.parametrize(
    "flag", ["--bins=0,nan,1", "--bins=0,1,inf", "--threshold=nan", "--threshold=-inf"]
)
def test_cli_sweep_rejects_non_finite_bins_and_threshold(tmp_path, capsys, samples, flag):
    out = tmp_path / "s"
    code = run_cli("sweep", "--theta", "51", "--phi", "0", "--n", "6", *samples, flag,
                   "--out", str(out))
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "finite" in err["message"]
    assert not out.exists()


def test_cli_tomo(tmp_path):
    out = tmp_path / "tomo"
    code = run_cli(
        "tomo", "--theta", "51", "--phi", "0", "--steps", "6", "--ordered", "H",
        "--total-counts", "9000", "--seed", "5", "--out", str(out),
    )
    assert code == 0
    payload = json.loads((out / "tomography.json").read_text())
    assert payload["summary"]["total_counts"] == 9000
    assert 0.0 <= payload["summary"]["entropy_hat"] <= 1.0
    header, rows = read_csv(out / "counts.csv")
    assert header == list(io.COUNTS_HEADER)
    assert sum(float(r[3]) for r in rows) == pytest.approx(9000)


@pytest.mark.parametrize("counts", ["0", str(2**63)])
def test_cli_tomo_refuses_the_budget_before_the_walk(tmp_path, monkeypatch, capsys, counts):
    def no_walk(plan, spinor):
        raise AssertionError("the walk ran")

    monkeypatch.setattr(dtqw.walk, "_propagate", no_walk)
    out = tmp_path / "tomo"
    code = run_cli(
        "tomo", "--theta", "51", "--phi", "0", "--steps", "20000", "--ordered", "H",
        "--total-counts", counts, "--out", str(out),
    )
    assert code == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "config"
    assert "total_counts must lie in" in err["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "policy_args,policy",
    [
        (("--ordered", "H"), Ordered(hadamard_coin())),
        (("--static-seed", "5", "--dynamic-seed", "6"), StaticAndDynamic(static_seed=5, dynamic_seed=6)),
    ],
    ids=["ordered", "both"],
)
def test_cli_walk_moments_equal_moment_series_bit_for_bit(tmp_path, monkeypatch, policy_args, policy):
    written = []
    columns = io.moment_columns
    monkeypatch.setattr(io, "moment_columns", lambda series: written.append(series) or columns(series))
    code = run_cli(
        "walk", "--theta", "77", "--phi", "10", "--steps", "300", *policy_args,
        "--out", str(tmp_path / "walk"), "--format", "csv",
    )
    assert code == 0
    (series,) = written
    expected = transport.moment_series(InitialCoin(77, 10), policy, 300)
    np.testing.assert_array_equal(series.times, expected.times)
    assert series.m2.tobytes() == expected.m2.tobytes()


def test_cli_tomo_noiseless_matches_exact(tmp_path):
    out = tmp_path / "tomo0"
    code = run_cli(
        "tomo", "--theta", "51", "--phi", "0", "--steps", "6", "--ordered", "H",
        "--total-counts", "9000", "--noiseless", "--out", str(out), "--format", "json",
    )
    assert code == 0
    payload = json.loads((out / "tomography.json").read_text())
    s = payload["summary"]
    assert s["entropy_hat"] == pytest.approx(s["exact_entropy"], abs=1e-9)
    assert s["rho_c_fidelity"] == pytest.approx(1.0, abs=1e-9)


def test_cli_requires_exactly_one_policy(tmp_path, capsys):
    code = run_cli(
        "walk", "--theta", "51", "--phi", "0", "--steps", "3",
        "--ordered", "H", "--sequence", "HHH", "--out", str(tmp_path / "x"),
    )
    assert code == 1
    assert "exactly one coin policy" in json.loads(capsys.readouterr().err)["message"]


def test_cli_seeded_commands_are_deterministic(tmp_path):
    args = ("walk", "--theta", "20", "--phi", "45", "--steps", "9",
            "--dynamic-seed", "4", "--format", "csv")
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert (out1 / "trajectory.csv").read_text() == (out2 / "trajectory.csv").read_text()
