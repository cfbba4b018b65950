"""Command-line driver: walk, entropy, sweep, lz, fit, and tomo subcommands.

Each run is configured by flags, by a flat ``key = value`` config file
(``--config``), or both; flags win.  Each config key is also a flag
(``dynamic_seed`` is ``--dynamic-seed``).  Config files must carry
``schema_version = 1`` and may pin the subcommand with a ``command`` key.
All outputs are CSV tables with fixed headers plus JSON mirrors that echo
the fully resolved configuration, so any output can be reproduced from the
file alone.  Each command declares its output files once, before it
computes anything; names that collide and existing files (unless
``--force`` is given) are refused there.  Every failure, a bad flag
included, prints a JSON object on stderr and exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import io
from .coins import coin_from_name
from .entanglement import _entropy_bits, coin_density_curve, density_eigenvalues
from .sequences import (
    exhaustive_sweep,
    lz_complexity,
    parse_sequence,
    parse_sequence_lines,
    reference_sequences,
    sampled_sweep,
)
from .tomography import _check_total_counts, tomographic_entropy
from .transport import MomentSeries, classical_baseline, fit_power_law, position_distribution
from .walk import (
    DynamicRandom,
    DynamicSequence,
    InitialCoin,
    Ordered,
    StaticAndDynamic,
    StaticRandom,
    _dense,
    _moment_rows,
    _propagate,
    _second_moment,
    final_state,
    initial_state,
    plan_coins,
)

__all__ = ["main"]


class CLIError(Exception):
    """Configuration or execution error reported as JSON on stderr."""


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_list(text: str) -> list[float]:
    parts = [p for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError(f"expected comma-separated numbers, got {text!r}")
    return [float(p) for p in parts]


def _parse_bins(text: str) -> int | list[float]:
    return _parse_float_list(text) if "," in text else int(text)


def _parse_seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_format(text: str) -> str:
    if text not in ("csv", "json", "both"):
        raise ValueError(f"expected csv, json or both, got {text!r}")
    return text


class _Option(NamedTuple):
    """One option: the config key ``key`` and the flag ``--key`` (dashed)."""

    key: str
    parse: Callable[[str], object]  # text -> value; raises ValueError
    default: object  # None: the key stays absent unless given
    commands: tuple[str, ...]
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


_WALKS = ("walk", "entropy", "tomo")  # commands that run one walk policy
_ALL = ("walk", "entropy", "sweep", "lz", "fit", "tomo")

# The single declaration of every option.  Its order is the order of the
# echoed ``config`` block and of ``--help``.  A `_parse_bool` option is a
# switch on the command line and takes true/false in a config file.
_OPTIONS = (
    _Option("theta", float, None, _WALKS + ("sweep",), "initial polar angle, degrees"),
    _Option("phi", _parse_float_list, None, _WALKS + ("sweep",),
            "initial relative phase, degrees (entropy: comma-separated list)"),
    _Option("steps", int, None, _WALKS, "number of walk steps"),
    _Option("ordered", str, None, _WALKS, "coin policy: one fixed coin, H, F or I"),
    _Option("sequence", str, None, _WALKS + ("lz",),
            "coin sequence over {H, F}: the coin policy, or the one sequence lz scores"),
    _Option("dynamic_seed", _parse_seed, None, _WALKS,
            "coin policy: a random coin per step, seeded (with --static-seed: both)"),
    _Option("static_seed", _parse_seed, None, _WALKS, "coin policy: a random coin per site, seeded"),
    _Option("n", int, None, ("sweep",), "sequence length"),
    _Option("bins", _parse_bins, 12, ("sweep",),
            "histogram bin count or comma-separated edges"),
    _Option("threshold", float, 0.9, ("sweep",), "entropy threshold of the reported fraction"),
    _Option("samples", int, None, ("sweep",), "sample count (Monte Carlo sweep)"),
    _Option("seed", _parse_seed, 0, ("sweep", "tomo"), "seed of the samples or of the counts"),
    _Option("total_counts", int, None, ("tomo",), "total number of counts"),
    _Option("noiseless", _parse_bool, False, ("tomo",),
            "use exact expected counts instead of a multinomial draw"),
    _Option("eigenvalues", _parse_bool, False, ("entropy",),
            "include the reduced-matrix eigenvalues as extra columns"),
    _Option("t_min", int, 1, ("fit",), "first time step of the fit"),
    _Option("t_max", int, None, ("fit",), "last time step of the fit"),
    _Option("input", str, None, ("lz", "fit"),
            "lz: sequence file, one 'SEQUENCE [expected]' per line; "
            "fit: CSV with columns t,m2"),
    _Option("classical", int, None, ("fit",),
            "fit the analytic classical baseline of this many steps instead of a file"),
    _Option("out", str, "out", _ALL, "output directory"),
    _Option("format", _parse_format, "both", _ALL, "csv, json or both"),
    _Option("force", _parse_bool, False, _ALL, "allow overwriting outputs"),
)


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


def resolve_config(command: str, args: argparse.Namespace) -> dict:
    """Merge config file and flags (flags win), validate keys, apply defaults.

    Flags arrive as text like config values, and each value is parsed by its
    option's parser.  The result lists the command's options in table order,
    then ``command``.
    """
    options = {o.key: o for o in _OPTIONS if command in o.commands}
    values: dict = {}

    def parse(option: _Option, text: str, source: str) -> None:
        try:
            values[option.key] = option.parse(text)
        except ValueError as exc:
            raise CLIError(f"bad value for {source}: {exc}") from exc

    if args.config is not None:
        file_entries = parse_config_file(args.config)
        file_command = file_entries.pop("command", None)
        if file_command is not None and file_command != command:
            raise CLIError(
                f"config file pins command={file_command!r} but {command!r} was invoked"
            )
        for key, text in file_entries.items():
            if key not in options:
                raise CLIError(f"unknown config key {key!r} for command {command!r}")
            parse(options[key], text, f"config key {key!r}")

    for option in options.values():
        text = getattr(args, option.key, None)
        if text is not None:
            parse(option, text, "option " + option.flag)

    cfg = {}
    for key, option in options.items():
        value = values.get(key, option.default)
        if value is not None:
            cfg[key] = value
    cfg["command"] = command
    return cfg


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
    return InitialCoin(theta_deg=cfg["theta"], phi_deg=phi)


def _policy(cfg: dict):
    given = [k for k in ("ordered", "sequence") if k in cfg]
    has_dyn = "dynamic_seed" in cfg
    has_stat = "static_seed" in cfg
    if len(given) + (1 if (has_dyn or has_stat) else 0) != 1:
        raise CLIError(
            "specify exactly one coin policy: --ordered NAME, --sequence TEXT, "
            "--dynamic-seed N, --static-seed N, or both seeds together"
        )
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


def _tables(*stems: str) -> list[str]:
    """The CSV and the JSON name of each table, in that order."""
    return [stem + suffix for stem in stems for suffix in (".csv", ".json")]


class _Outputs:
    """The files of one run: declared before any computation, written by name.

    ``--format`` keeps the ``.csv`` and ``.json`` names it selects; the names
    in `always` come first and are kept under every format.  Declaring
    refuses names that collide and, without ``--force``, files that exist.
    Every write goes through `_path`, which records the file and creates the
    output directory, or returns None for a name that was not kept, whose
    write is then skipped.  A command that rejects its inputs thus leaves
    nothing behind.
    """

    def __init__(self, cfg: dict, names, always=()):
        self.dir = Path(cfg["out"])
        self.cfg = cfg
        self.written: list[Path] = []
        declared = [*always, *names]
        repeated = sorted({n for n in declared if declared.count(n) > 1})
        if repeated:
            raise CLIError(
                "outputs would share a file name: "
                + ", ".join(str(self.dir / n) for n in repeated)
            )
        fmt = cfg["format"]
        self.kept = [*always, *(n for n in names if fmt in ("both", Path(n).suffix[1:]))]
        clashes = [str(self.dir / n) for n in self.kept if (self.dir / n).exists()]
        if clashes and not cfg["force"]:
            raise CLIError(
                f"refusing to overwrite existing output(s): {', '.join(clashes)} "
                "(pass --force to allow)"
            )

    def _path(self, name: str) -> Path | None:
        """Where to write `name`, recorded as written; None if ``--format`` drops it."""
        if name not in self.kept:
            return None
        self.dir.mkdir(parents=True, exist_ok=True)
        self.written.append(self.dir / name)
        return self.dir / name

    def _head(self, **payload) -> dict:
        return {"schema_version": io.SCHEMA_VERSION, "config": dict(self.cfg), **payload}

    def csv(self, name: str, header, columns) -> None:
        """The CSV `name` of one block of `columns`, without a JSON mirror."""
        if path := self._path(name):
            io.write_table(path, None, header, [columns], {})

    def json(self, name: str, payload: dict) -> None:
        if path := self._path(name):
            io.write_json(path, self._head(**payload))

    def table(self, stem: str, header, blocks, **meta) -> None:
        """``stem.csv`` and its mirror ``stem.json``, written in one pass over column `blocks`.

        The mirror holds `meta`, then columns and records; see `io.write_table`.
        """
        io.write_table(self._path(stem + ".csv"), self._path(stem + ".json"), header, blocks, self._head(**meta))


#: Most rows `walk` exports in its trajectory: (steps + 1)^2, one per (t, j).
#: The rows stream to the files one step at a time, so this bounds the
#: output size, not memory: 2^20 rows (steps <= 1023) write 61 MB of CSV
#: and 129 MB of JSON.
TRAJECTORY_ROW_LIMIT = 1 << 20


def cmd_walk(cfg: dict) -> _Outputs:
    """run a walk, export trajectory and distribution"""
    _require(cfg, "steps")
    steps = cfg["steps"]
    if steps < 1:
        raise CLIError(f"steps must be >= 1, got {steps}")
    if (steps + 1) ** 2 > TRAJECTORY_ROW_LIMIT:
        raise CLIError(
            f"steps={steps} would export (steps + 1)^2 = {(steps + 1) ** 2} trajectory rows, "
            f"more than the limit of {TRAJECTORY_ROW_LIMIT}"
        )
    init = _initial_coin(cfg)
    plan = plan_coins(_policy(cfg), steps)
    out = _Outputs(cfg, _tables("trajectory", "distribution", "moments"))

    # One kernel run streams the trajectory, a state per step, and leaves
    # the last state and the second moments of every step behind.  m2 is
    # moment_series' reduction of the kernel's rows, not of the states,
    # which an odd scale rounds.
    state, m2, scales = initial_state(init), np.empty(steps), plan.scales()

    def trajectory():
        nonlocal state
        yield io.trajectory_columns(state)
        rows = _moment_rows(steps)
        for t, (up, dn, q) in enumerate(_propagate(plan, init.spinor), 1):
            m2[t - 1] = _second_moment(up, dn, rows)
            state = _dense(up, dn, q, scales[t])
            yield io.trajectory_columns(state)

    out.table("trajectory", io.TRAJECTORY_HEADER, trajectory())
    m2 *= np.ldexp(1.0, -scales[1:])
    out.table(
        "distribution",
        io.DISTRIBUTION_HEADER,
        [io.distribution_columns(position_distribution(state))],
    )
    series = MomentSeries(times=np.arange(1, steps + 1), m2=m2)
    out.table("moments", io.MOMENT_HEADER, [io.moment_columns(series)])
    return out


def cmd_entropy(cfg: dict) -> _Outputs:
    """entanglement entropy curve(s)"""
    _require(cfg, "steps", "theta", "phi")
    phis = cfg["phi"]
    policy = _policy(cfg)
    inits = [_initial_coin(cfg, phi=phi) for phi in phis]
    if len(phis) == 1:
        stems = ["entropy_curve"]
    else:
        stems = [f"entropy_curve_phi{phi:g}" for phi in phis]
    out = _Outputs(cfg, _tables(*stems))

    header = io.ENTROPY_EIGEN_HEADER if cfg["eigenvalues"] else io.ENTROPY_HEADER
    for stem, phi, init in zip(stems, phis, inits):
        rho = coin_density_curve(init, policy, cfg["steps"])
        eigen = density_eigenvalues(rho) if cfg["eigenvalues"] else ()
        out.table(stem, header, [io.entropy_curve_columns(_entropy_bits(rho), eigen)], phi_deg=phi)
    return out


def cmd_sweep(cfg: dict) -> _Outputs:
    """entropy statistics over coin sequences"""
    _require(cfg, "n", "theta", "phi")
    init = _initial_coin(cfg)
    out = _Outputs(cfg, ["sweep_histogram.csv"], always=["sweep_report.json"])

    if "samples" in cfg:
        report = sampled_sweep(
            init,
            cfg["n"],
            samples=cfg["samples"],
            seed=cfg["seed"],
            bins=cfg["bins"],
            threshold=cfg["threshold"],
        )
    else:
        report = exhaustive_sweep(
            init,
            cfg["n"],
            bins=cfg["bins"],
            threshold=cfg["threshold"],
        )

    out.json("sweep_report.json", io.sweep_report_dict(report))
    edges = report.bin_edges
    out.csv("sweep_histogram.csv", ("bin_low", "bin_high", "count"),
            (edges[:-1], edges[1:], report.bin_counts))
    return out


def cmd_lz(cfg: dict) -> _Outputs:
    """sequence complexity table"""
    out = _Outputs(cfg, _tables("lz_complexity"))
    if "sequence" in cfg and "input" in cfg:
        raise CLIError("give either --sequence or --input, not both")
    if "sequence" in cfg:
        entries = [(parse_sequence(cfg["sequence"]), None)]
    elif "input" in cfg:
        try:
            text = Path(cfg["input"]).read_text()
        except OSError as exc:
            raise CLIError(f"cannot read sequence file {cfg['input']}: {exc}") from exc
        entries = parse_sequence_lines(text, cfg["input"])
    else:
        entries = reference_sequences()

    seqs = [seq for seq, _ in entries]
    header = ("sequence", "length", "lz_complexity")
    columns = [[s.text for s in seqs], list(map(len, seqs)), list(map(lz_complexity, seqs))]
    expected = [e for _, e in entries]
    if any(e is not None for e in expected):
        header += ("expected",)
        columns.append(["" if e is None else e for e in expected])
    out.table("lz_complexity", header, [columns])
    return out


def cmd_fit(cfg: dict) -> _Outputs:
    """power-law fit of a second-moment series"""
    out = _Outputs(cfg, ["fit.json", "fit.csv"])
    if ("input" in cfg) == ("classical" in cfg):
        raise CLIError("give exactly one of --input SERIES.csv or --classical STEPS")
    if "classical" in cfg:
        series = classical_baseline(cfg["classical"])
    else:
        try:
            series = io.read_moment_series_csv(cfg["input"])
        except OSError as exc:
            raise CLIError(f"cannot read moment series file {cfg['input']}: {exc}") from exc
    fit = fit_power_law(series, t_min=cfg["t_min"], t_max=cfg.get("t_max"))

    out.json("fit.json", io.fit_dict(fit))
    out.csv("fit.csv", io.FIT_HEADER, [[getattr(fit, f)] for f in io.FIT_HEADER])
    return out


def cmd_tomo(cfg: dict) -> _Outputs:
    """simulated tomography of the final state"""
    _require(cfg, "steps", "total_counts")
    _check_total_counts(cfg["total_counts"])  # before the walk, which may take seconds
    init = _initial_coin(cfg)
    policy = _policy(cfg)
    out = _Outputs(cfg, [*_tables("counts"), "tomography_summary.csv", "tomography.json"])

    result = tomographic_entropy(
        final_state(init, policy, cfg["steps"]),
        total_counts=cfg["total_counts"],
        seed=cfg["seed"],
        noiseless=cfg["noiseless"],
    )
    out.table("counts", io.COUNTS_HEADER, [io.counts_columns(result.counts)])
    fields = io.TOMOGRAPHY_SUMMARY_HEADER
    out.csv("tomography_summary.csv", fields, [[getattr(result, f)] for f in fields])
    out.json("tomography.json", io.tomography_dict(result))
    return out


_COMMANDS = {
    "walk": cmd_walk,
    "entropy": cmd_entropy,
    "sweep": cmd_sweep,
    "lz": cmd_lz,
    "fit": cmd_fit,
    "tomo": cmd_tomo,
}


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as CLIError, so they follow the JSON error contract."""

    def error(self, message: str):
        raise CLIError(message)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a ``--key`` flag for each of its options."""
    parser = _Parser(
        prog="dtqw",
        description="Quantum walks on the line: dynamics, entanglement, "
        "sequence statistics, transport fits, and simulated tomography.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in _COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__, description=run.__doc__)
        p.add_argument("--config", help="flat key = value config file")
        for option in (o for o in _OPTIONS if name in o.commands):
            help_text = option.help
            if option.default is not None:
                help_text += f" (default: {option.default})"
            if option.parse is _parse_bool:
                p.add_argument(option.flag, action="store_const", const="true", help=help_text)
            else:
                p.add_argument(option.flag, help=help_text)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = resolve_config(args.command, args)
        outputs = _COMMANDS[args.command](cfg)
    except Exception as exc:  # keep the uniform machine-readable contract
        # The library raises ValueError for every input it rejects.
        kind = "config" if isinstance(exc, (CLIError, ValueError)) else type(exc).__name__
        json.dump({"error": kind, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    for path in outputs.written:
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
