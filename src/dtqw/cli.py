"""Command-line driver: walk, entropy, sweep, lz, fit, and tomo subcommands.

Each run is configured by flags, by a flat ``key = value`` config file
(``--config``), or both; flags win.  Config files must carry
``schema_version = 1`` and may pin the subcommand with a ``command`` key.
All outputs are CSV tables with fixed headers plus JSON mirrors that echo
the fully resolved configuration, so any output can be reproduced from the
file alone.  Existing files are never overwritten unless ``--force`` is
given.  Failures print a machine-readable JSON object on stderr and exit
nonzero.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import io
from .coins import coin_from_name
from .entanglement import density_eigenvalues, reduced_coin_density, state_entropy
from .sequences import (
    exhaustive_sweep,
    lz_complexity,
    parse_sequence,
    reference_sequences,
    sampled_sweep,
)
from .tomography import tomographic_entropy
from .transport import (
    classical_baseline,
    fit_power_law,
    position_distribution,
    second_moment,
)
from .walk import (
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    evolve,
)

__all__ = ["main"]


class CLIError(Exception):
    """Configuration or execution error reported as JSON on stderr."""


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise CLIError(f"expected a boolean, got {text!r}")


def _parse_phi_list(text) -> list[float]:
    if isinstance(text, list):
        return [float(v) for v in text]
    parts = [p.strip() for p in str(text).split(",") if p.strip()]
    if not parts:
        raise CLIError(f"cannot parse phi value(s) from {text!r}")
    return [float(p) for p in parts]


def _parse_bins(text):
    if isinstance(text, (int, np.integer)):
        return int(text)
    raw = str(text)
    if "," in raw:
        return [float(p) for p in raw.split(",") if p.strip()]
    return int(raw)


_KEY_PARSERS = {
    "theta": float,
    "phi": _parse_phi_list,
    "steps": int,
    "ordered": str,
    "sequence": str,
    "dynamic_seed": int,
    "static_seed": int,
    "n": int,
    "bins": _parse_bins,
    "threshold": float,
    "samples": int,
    "seed": int,
    "workers": int,
    "total_counts": int,
    "noiseless": _parse_bool,
    "eigenvalues": _parse_bool,
    "t_min": int,
    "t_max": int,
    "input": str,
    "classical": int,
    "out": str,
    "format": str,
    "force": _parse_bool,
}

_POLICY_KEYS = {"ordered", "sequence", "dynamic_seed", "static_seed"}
_COMMON_KEYS = {"out", "format", "force"}

_COMMAND_KEYS = {
    "walk": _COMMON_KEYS | _POLICY_KEYS | {"theta", "phi", "steps"},
    "entropy": _COMMON_KEYS | _POLICY_KEYS | {"theta", "phi", "steps", "eigenvalues"},
    "sweep": _COMMON_KEYS
    | {"theta", "phi", "n", "bins", "threshold", "samples", "seed", "workers"},
    "lz": _COMMON_KEYS | {"input", "sequence"},
    "fit": _COMMON_KEYS | {"input", "classical", "t_min", "t_max"},
    "tomo": _COMMON_KEYS
    | _POLICY_KEYS
    | {"theta", "phi", "steps", "total_counts", "seed", "noiseless"},
}

_DEFAULTS = {
    "out": "out",
    "format": "both",
    "force": False,
    "threshold": 0.9,
    "bins": 12,
    "workers": 1,
    "seed": 0,
    "noiseless": False,
    "eigenvalues": False,
    "t_min": 1,
}


def parse_config_file(path: str) -> dict[str, str]:
    """Read a flat ``key = value`` config file; requires schema_version = 1."""
    entries: dict[str, str] = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CLIError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CLIError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise CLIError(f"{path}:{lineno}: duplicate key {key!r}")
        entries[key] = value
    version = entries.pop("schema_version", None)
    if version is None:
        raise CLIError(f"{path}: missing required key schema_version")
    if version.strip() != str(io.SCHEMA_VERSION):
        raise CLIError(
            f"{path}: unsupported schema_version {version!r} (expected {io.SCHEMA_VERSION})"
        )
    return entries


def _parse_value(key: str, raw, source: str):
    try:
        return _KEY_PARSERS[key](raw)
    except (ValueError, TypeError) as exc:
        raise CLIError(f"bad value for {source}: {exc}") from exc


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge config file and flags (flags win), validate keys, apply defaults."""
    allowed = _COMMAND_KEYS[command]
    merged: dict = {}

    if args.config is not None:
        file_entries = parse_config_file(args.config)
        file_command = file_entries.pop("command", None)
        if file_command is not None and file_command != command:
            raise CLIError(
                f"config file pins command={file_command!r} but {command!r} was invoked"
            )
        for key, raw in file_entries.items():
            if key not in allowed:
                raise CLIError(f"unknown config key {key!r} for command {command!r}")
            merged[key] = _parse_value(key, raw, f"config key {key!r}")

    for key in allowed:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = _parse_value(key, value, "option --" + key.replace("_", "-"))

    for key, default in _DEFAULTS.items():
        if key in allowed:
            merged.setdefault(key, default)

    if merged.get("format") not in ("csv", "json", "both"):
        raise CLIError(f"format must be csv, json or both, got {merged.get('format')!r}")
    merged["command"] = command
    return merged


def _require(cfg: dict, *keys: str) -> None:
    missing = [k for k in keys if k not in cfg]
    if missing:
        raise CLIError(f"missing required option(s): {', '.join(sorted(missing))}")


def _initial_coin(cfg: dict, phi: float | None = None) -> InitialCoin:
    _require(cfg, "theta", "phi")
    phis = cfg["phi"]
    if phi is None:
        if len(phis) != 1:
            raise CLIError("this command takes exactly one phi value")
        phi = phis[0]
    try:
        return InitialCoin(theta_deg=cfg["theta"], phi_deg=phi)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _policy(cfg: dict):
    given = [k for k in ("ordered", "sequence") if k in cfg]
    has_dyn = "dynamic_seed" in cfg
    has_stat = "static_seed" in cfg
    if len(given) + (1 if (has_dyn or has_stat) else 0) != 1:
        raise CLIError(
            "specify exactly one coin policy: --ordered NAME, --sequence TEXT, "
            "--dynamic-seed N, --static-seed N, or both seeds together"
        )
    try:
        if "ordered" in cfg:
            return Ordered(coin_from_name(cfg["ordered"]))
        if "sequence" in cfg:
            return DynamicSequence(parse_sequence(cfg["sequence"]))
        if has_dyn and has_stat:
            return StaticAndDynamic(
                static_seed=cfg["static_seed"], dynamic_seed=cfg["dynamic_seed"]
            )
        if has_dyn:
            return DynamicRandom(seed=cfg["dynamic_seed"])
        return StaticRandom(seed=cfg["static_seed"])
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


class _Outputs:
    """Collects target paths, enforces the no-overwrite rule, writes files."""

    def __init__(self, cfg: dict):
        self.dir = Path(cfg["out"])
        self.force = bool(cfg["force"])
        self.fmt = cfg["format"]
        self.cfg = cfg
        self.written: list[Path] = []

    def path(self, name: str) -> Path:
        return self.dir / name

    def check(self, names: list[str]) -> None:
        self.dir.mkdir(parents=True, exist_ok=True)
        clashes = [str(self.path(n)) for n in names if self.path(n).exists()]
        if clashes and not self.force:
            raise CLIError(
                f"refusing to overwrite existing output(s): {', '.join(clashes)} "
                "(pass --force to allow)"
            )

    def want_csv(self) -> bool:
        return self.fmt in ("csv", "both")

    def want_json(self) -> bool:
        return self.fmt in ("json", "both")

    def write_csv(self, name: str, header, rows) -> None:
        io.write_csv(self.path(name), header, rows)
        self.written.append(self.path(name))

    def write_json(self, name: str, payload: dict) -> None:
        body = {
            "schema_version": io.SCHEMA_VERSION,
            "config": {k: v for k, v in self.cfg.items()},
        }
        body.update(payload)
        io.write_json(self.path(name), body)
        self.written.append(self.path(name))


def cmd_walk(cfg: dict) -> _Outputs:
    _require(cfg, "steps")
    if cfg["steps"] < 1:
        raise CLIError(f"steps must be >= 1, got {cfg['steps']}")
    init = _initial_coin(cfg)
    policy = _policy(cfg)
    out = _Outputs(cfg)
    names = []
    if out.want_csv():
        names += ["trajectory.csv", "distribution.csv", "moments.csv"]
    if out.want_json():
        names += ["trajectory.json", "distribution.json", "moments.json"]
    out.check(names)

    try:
        trajectory = evolve(init, policy, cfg["steps"])
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    dist = position_distribution(trajectory[-1])
    traj_rows = io.trajectory_rows(trajectory)
    dist_rows = io.distribution_rows(dist)
    moment_rows = [
        (s.t, second_moment(position_distribution(s))) for s in trajectory[1:]
    ]
    if out.want_csv():
        out.write_csv("trajectory.csv", io.TRAJECTORY_HEADER, traj_rows)
        out.write_csv("distribution.csv", io.DISTRIBUTION_HEADER, dist_rows)
        out.write_csv("moments.csv", io.MOMENT_HEADER, moment_rows)
    if out.want_json():
        out.write_json(
            "trajectory.json",
            {"columns": io.TRAJECTORY_HEADER, "records": traj_rows},
        )
        out.write_json(
            "distribution.json",
            {"columns": io.DISTRIBUTION_HEADER, "records": dist_rows},
        )
        out.write_json(
            "moments.json", {"columns": io.MOMENT_HEADER, "records": moment_rows}
        )
    return out


def cmd_entropy(cfg: dict) -> _Outputs:
    _require(cfg, "steps", "theta", "phi")
    phis = cfg["phi"]
    policy = _policy(cfg)
    out = _Outputs(cfg)

    def stem(phi: float) -> str:
        return "entropy_curve" if len(phis) == 1 else f"entropy_curve_phi{phi:g}"

    names = []
    for phi in phis:
        if out.want_csv():
            names.append(stem(phi) + ".csv")
        if out.want_json():
            names.append(stem(phi) + ".json")
    out.check(names)

    header = io.ENTROPY_EIGEN_HEADER if cfg["eigenvalues"] else io.ENTROPY_HEADER
    for phi in phis:
        init = _initial_coin(cfg, phi=phi)
        try:
            trajectory = evolve(init, policy, cfg["steps"])
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        curve = [(s.t, state_entropy(s)) for s in trajectory]
        eigen = None
        if cfg["eigenvalues"]:
            eigen = [density_eigenvalues(reduced_coin_density(s)) for s in trajectory]
        rows = io.entropy_curve_rows(curve, eigen)
        if out.want_csv():
            out.write_csv(stem(phi) + ".csv", header, rows)
        if out.want_json():
            out.write_json(
                stem(phi) + ".json",
                {"phi_deg": phi, "columns": header, "records": rows},
            )
    return out


def cmd_sweep(cfg: dict) -> _Outputs:
    _require(cfg, "n", "theta", "phi")
    init = _initial_coin(cfg)
    out = _Outputs(cfg)
    names = ["sweep_report.json"]
    if out.want_csv():
        names.append("sweep_histogram.csv")
    out.check(names)

    try:
        if "samples" in cfg:
            report = sampled_sweep(
                init,
                cfg["n"],
                samples=cfg["samples"],
                seed=cfg["seed"],
                bins=cfg["bins"],
                threshold=cfg["threshold"],
                workers=cfg["workers"],
            )
        else:
            report = exhaustive_sweep(
                init,
                cfg["n"],
                bins=cfg["bins"],
                threshold=cfg["threshold"],
                workers=cfg["workers"],
            )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    out.write_json("sweep_report.json", io.sweep_report_dict(report))
    if out.want_csv():
        rows = [
            (float(lo), float(hi), int(c))
            for lo, hi, c in zip(
                report.bin_edges[:-1], report.bin_edges[1:], report.bin_counts
            )
        ]
        out.write_csv("sweep_histogram.csv", ("bin_low", "bin_high", "count"), rows)
    return out


def _load_sequence_file(path: str) -> list[tuple[str, int | None]]:
    entries = []
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise CLIError(f"cannot read sequence file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        expected = None
        if len(parts) == 2:
            expected = int(parts[1])
        elif len(parts) != 1:
            raise CLIError(f"{path}:{lineno}: expected 'SEQUENCE [expected]'")
        entries.append((parts[0], expected))
    if not entries:
        raise CLIError(f"{path}: no sequences found")
    return entries


def cmd_lz(cfg: dict) -> _Outputs:
    out = _Outputs(cfg)
    names = []
    if out.want_csv():
        names.append("lz_complexity.csv")
    if out.want_json():
        names.append("lz_complexity.json")
    out.check(names)

    if "sequence" in cfg and "input" in cfg:
        raise CLIError("give either --sequence or --input, not both")
    if "sequence" in cfg:
        entries = [(cfg["sequence"], None)]
    elif "input" in cfg:
        entries = _load_sequence_file(cfg["input"])
    else:
        entries = [(seq.text, expected) for seq, expected in reference_sequences()]

    with_expected = any(expected is not None for _, expected in entries)
    header = ("sequence", "length", "lz_complexity") + (
        ("expected",) if with_expected else ()
    )
    rows = []
    for text, expected in entries:
        try:
            seq = parse_sequence(text)
        except ValueError as exc:
            raise CLIError(str(exc)) from exc
        row = (seq.text, len(seq), lz_complexity(seq))
        if with_expected:
            row += (expected if expected is not None else "",)
        rows.append(row)

    if out.want_csv():
        out.write_csv("lz_complexity.csv", header, rows)
    if out.want_json():
        out.write_json("lz_complexity.json", {"columns": header, "records": rows})
    return out


def cmd_fit(cfg: dict) -> _Outputs:
    out = _Outputs(cfg)
    names = ["fit.json"] if out.want_json() else []
    if out.want_csv():
        names.append("fit.csv")
    out.check(names)

    if ("input" in cfg) == ("classical" in cfg):
        raise CLIError("give exactly one of --input SERIES.csv or --classical STEPS")
    try:
        if "classical" in cfg:
            series = classical_baseline(cfg["classical"])
        else:
            series = io.read_moment_series_csv(cfg["input"])
        fit = fit_power_law(series, t_min=cfg["t_min"], t_max=cfg.get("t_max"))
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    payload = io.fit_dict(fit)
    if out.want_json():
        out.write_json("fit.json", payload)
    if out.want_csv():
        out.write_csv(
            "fit.csv",
            ("prefactor", "exponent", "residual", "t_min", "t_max"),
            [(fit.prefactor, fit.exponent, fit.residual, fit.t_min, fit.t_max)],
        )
    return out


def cmd_tomo(cfg: dict) -> _Outputs:
    _require(cfg, "steps", "total_counts")
    init = _initial_coin(cfg)
    policy = _policy(cfg)
    out = _Outputs(cfg)
    names = ["tomography.json"] if out.want_json() else []
    if out.want_csv():
        names += ["counts.csv", "tomography_summary.csv"]
    if out.want_json():
        names.append("counts.json")
    out.check(names)

    try:
        state = evolve(init, policy, cfg["steps"])[-1]
        result = tomographic_entropy(
            state,
            total_counts=cfg["total_counts"],
            seed=cfg["seed"],
            noiseless=cfg["noiseless"],
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc

    rows = io.counts_rows(result.counts)
    if out.want_csv():
        out.write_csv("counts.csv", io.COUNTS_HEADER, rows)
        summary = result
        out.write_csv(
            "tomography_summary.csv",
            (
                "entropy_hat",
                "exact_entropy",
                "rho_c_fidelity",
                "distribution_similarity",
                "total_counts",
                "seed",
                "noiseless",
            ),
            [
                (
                    summary.entropy_hat,
                    summary.exact_entropy,
                    summary.rho_c_fidelity,
                    summary.distribution_similarity,
                    summary.total_counts,
                    summary.seed,
                    summary.noiseless,
                )
            ],
        )
    if out.want_json():
        out.write_json("counts.json", {"columns": io.COUNTS_HEADER, "records": rows})
        out.write_json("tomography.json", io.tomography_dict(result))
    return out


_COMMANDS = {
    "walk": cmd_walk,
    "entropy": cmd_entropy,
    "sweep": cmd_sweep,
    "lz": cmd_lz,
    "fit": cmd_fit,
    "tomo": cmd_tomo,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtqw",
        description="Quantum walks on the line: dynamics, entanglement, "
        "sequence statistics, transport fits, and simulated tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory (default: out)")
        p.add_argument("--format", choices=("csv", "json", "both"))
        p.add_argument(
            "--force", action="store_const", const=True, help="allow overwriting outputs"
        )

    def add_init(p: argparse.ArgumentParser, multi_phi: bool = False) -> None:
        p.add_argument("--theta", type=float, help="initial polar angle, degrees")
        help_phi = "initial relative phase, degrees"
        if multi_phi:
            help_phi += " (comma-separated list allowed)"
        p.add_argument("--phi", help=help_phi)

    def add_policy(p: argparse.ArgumentParser) -> None:
        p.add_argument("--ordered", metavar="COIN", help="fixed coin: H, F or I")
        p.add_argument("--sequence", metavar="TEXT", help="coin sequence over {H, F}")
        p.add_argument("--dynamic-seed", dest="dynamic_seed", type=int)
        p.add_argument("--static-seed", dest="static_seed", type=int)

    p = sub.add_parser("walk", help="run a walk, export trajectory and distribution")
    add_common(p)
    add_init(p)
    add_policy(p)
    p.add_argument("--steps", type=int)

    p = sub.add_parser("entropy", help="entanglement entropy curve(s)")
    add_common(p)
    add_init(p, multi_phi=True)
    add_policy(p)
    p.add_argument("--steps", type=int)
    p.add_argument(
        "--eigenvalues",
        action="store_const",
        const=True,
        help="include the reduced-matrix eigenvalues as extra columns",
    )

    p = sub.add_parser("sweep", help="entropy statistics over coin sequences")
    add_common(p)
    add_init(p)
    p.add_argument("--n", type=int, help="sequence length")
    p.add_argument("--bins", help="histogram bin count or comma-separated edges")
    p.add_argument("--threshold", type=float)
    p.add_argument("--samples", type=int, help="sample count (Monte Carlo sweep)")
    p.add_argument("--seed", type=int)
    p.add_argument("--workers", type=int)

    p = sub.add_parser("lz", help="sequence complexity table")
    add_common(p)
    p.add_argument("--input", help="sequence file, one 'SEQUENCE [expected]' per line")
    p.add_argument("--sequence", help="single sequence text")

    p = sub.add_parser("fit", help="power-law fit of a second-moment series")
    add_common(p)
    p.add_argument("--input", help="CSV with columns t,m2")
    p.add_argument("--classical", type=int, metavar="STEPS",
                   help="fit the analytic classical baseline instead of a file")
    p.add_argument("--t-min", dest="t_min", type=int)
    p.add_argument("--t-max", dest="t_max", type=int)

    p = sub.add_parser("tomo", help="simulated tomography of the final state")
    add_common(p)
    add_init(p)
    add_policy(p)
    p.add_argument("--steps", type=int)
    p.add_argument("--total-counts", dest="total_counts", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument(
        "--noiseless",
        action="store_const",
        const=True,
        help="use exact expected counts instead of a multinomial draw",
    )

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args.command, args)
        outputs = _COMMANDS[args.command](cfg)
    except CLIError as exc:
        json.dump({"error": "config", "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    except Exception as exc:  # keep the uniform machine-readable contract
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    for path in outputs.written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
