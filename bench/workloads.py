"""The four benchmark workloads: seeded inputs, one op, and its checks.

An op is one unit of user work.  Its inputs are drawn from the workload
seed (``default_rng([seed, i])`` for op i), so the same seed gives the same
inputs and the library receives only those generated values.  `work` counts
walks x steps requested by the op, from its inputs.  `check` runs outside
the timed region and returns a list of problems (empty when the op is
correct); the checks are invariants and cross-checks, not quoted paper
values.
"""

from __future__ import annotations

import contextlib
import io as _stdio
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import spans

SIZES = {
    "full": {
        "sweep_n": 17, "sweep_best": 16, "sweep_workers": 2,
        "walk_steps": 2048, "tomo_counts": 10**6,
        "ens_steps": 100, "ens_seeds": 64, "ens_n": 32, "ens_samples": 2**13,
        "cli_walk": 256, "cli_entropy": 1024, "cli_tomo": 512, "cli_sweep_n": 14,
        "cli_counts": 10**6,
    },
    "tiny": {
        "sweep_n": 8, "sweep_best": 4, "sweep_workers": 2,
        "walk_steps": 32, "tomo_counts": 10**4,
        "ens_steps": 10, "ens_seeds": 4, "ens_n": 12, "ens_samples": 256,
        "cli_walk": 16, "cli_entropy": 32, "cli_tomo": 16, "cli_sweep_n": 6,
        "cli_counts": 10**4,
    },
}

EXACT = 1e-12  # cross-checks of two routes to the same float


def _angles(rng: np.random.Generator) -> tuple[float, float]:
    # Millidegrees keep CLI arguments exact and phi strictly below 360.
    return int(rng.integers(0, 180_001)) / 1000, int(rng.integers(0, 360_000)) / 1000


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31))


def _m2_problems(m2, label: str) -> list[str]:
    t = np.arange(1, len(m2) + 1, dtype=np.float64)
    bad = np.nonzero(m2 > t**2 * (1 + EXACT))[0]
    return [f"{label}: m2(t) > t^2 at t={int(bad[0]) + 1}"] if len(bad) else []


class Workload:
    """Base: a closed loop with one client over ops 0, 1, 2, ..."""

    name = ""
    cycle = 1  # runs stop only at cycle boundaries, so every op kind is equally represented
    PREPARED = 64  # inputs generated during set-up; later ones on demand, untimed

    def __init__(self, dtqw, seed: int, size: str, workdir: Path, env: dict):
        self.dtqw = dtqw
        self.seed = seed
        self.size = SIZES[size]
        self.workdir = workdir
        self.env = env  # environment of the processes an op starts
        self.inputs: list[dict] = []
        self.op_input(self.PREPARED - 1)

    def op_input(self, i: int) -> dict:
        while len(self.inputs) <= i:
            k = len(self.inputs)
            self.inputs.append(self.make_input(np.random.default_rng([self.seed, k]), k))
        return self.inputs[i]

    def kind(self, i: int) -> str:
        return self.name

    def release(self, inp: dict, result) -> None:
        """Drop what an op left behind once it has been checked."""

    def check_once(self, inp: dict, result, rec) -> list[str]:
        """Cross-checks made once per run against op 0 (inp, result)."""
        return []


class Sweep(Workload):
    name = "sweep"

    def make_input(self, rng, i):
        theta, phi = _angles(rng)
        return {"init": self.dtqw.InitialCoin(theta, phi)}

    def work(self, inp):
        n = self.size["sweep_n"]
        return (2**n) * n + n

    def run(self, inp):
        d, s = self.dtqw, self.size
        report = d.exhaustive_sweep(inp["init"], n=s["sweep_n"], workers=s["sweep_workers"])
        best = d.best_sequences(report, s["sweep_best"])
        lz = [d.lz_complexity(seq) for seq in best]
        return {"report": report, "best": best, "lz": lz,
                "best_entropy": d.entropy_of_sequence(inp["init"], best[0])}

    def corrupt(self, result):
        result["best_entropy"] += 1e-6

    def check(self, inp, r):
        rep, n = r["report"], self.size["sweep_n"]
        problems = []
        if rep.count != 2**n:
            problems.append(f"count {rep.count} != 2^{n}")
        if int(np.sum(rep.bin_counts)) != rep.count:
            problems.append("bin_counts do not sum to count")
        if not (np.all(rep.entropies >= 0.0) and np.all(rep.entropies <= 1.0)):
            problems.append("entropy outside [0, 1]")
        if abs(rep.max_entropy - r["best_entropy"]) > EXACT:
            problems.append(
                f"max_entropy {rep.max_entropy!r} != entropy_of_sequence(best) {float(r['best_entropy'])!r}"
            )
        if len(r["lz"]) != len(r["best"]) or min(r["lz"]) < 1:
            problems.append("lz_complexity of the best sequences is missing or < 1")
        return problems

    def check_once(self, inp, r, rec):
        # The same sweep on one worker must give a bit-identical report.
        ctx = rec.tracing(spans.CHECK_OP) if rec is not None else contextlib.nullcontext()
        with ctx:
            w1 = self.dtqw.exhaustive_sweep(inp["init"], n=self.size["sweep_n"], workers=1)
        w2 = r["report"]
        same = all(
            np.asarray(getattr(w1, f)).tobytes() == np.asarray(getattr(w2, f)).tobytes()
            if isinstance(getattr(w1, f), np.ndarray)
            else getattr(w1, f) == getattr(w2, f)
            for f in w1.__dataclass_fields__
            if f != "wall_time_s"
        )
        return [] if same else ["workers=1 and workers=2 sweep reports differ"]


class LongWalk(Workload):
    name = "long_walk"
    cycle = 4
    POLICIES = ("Ordered", "DynamicRandom", "StaticRandom", "StaticAndDynamic")

    def kind(self, i):
        return self.POLICIES[i % 4]

    def make_input(self, rng, i):
        d = self.dtqw
        theta, phi = _angles(rng)
        policy = [
            lambda: d.Ordered(d.hadamard_coin()),
            lambda: d.DynamicRandom(seed=_seed(rng)),
            lambda: d.StaticRandom(seed=_seed(rng)),
            lambda: d.StaticAndDynamic(static_seed=_seed(rng), dynamic_seed=_seed(rng)),
        ][i % 4]()
        return {"init": d.InitialCoin(theta, phi), "policy": policy, "count_seed": _seed(rng)}

    def work(self, inp):
        return 3 * self.size["walk_steps"]

    def run(self, inp):
        d, steps = self.dtqw, self.size["walk_steps"]
        init, policy = inp["init"], inp["policy"]
        curve = d.entropy_curve(init, policy, steps)
        series = d.moment_series(init, policy, steps)
        fit = d.fit_power_law(series)
        final = d.evolve(init, policy, steps)[-1]
        tomo = d.tomographic_entropy(final, self.size["tomo_counts"], seed=inp["count_seed"])
        return {"entropy": np.array([s for _, s in curve]), "times": [t for t, _ in curve],
                "m2": series.m2, "fit": fit, "tomo": tomo}

    def corrupt(self, result):
        result["entropy"][0] = 0.5

    def check(self, inp, r):
        problems = []
        s = r["entropy"]
        if r["times"] != list(range(self.size["walk_steps"] + 1)):
            problems.append("entropy_curve times are not 0 .. T")
        if abs(s[0]) > EXACT:
            problems.append(f"S(0) = {float(s[0])!r}, expected 0")
        if not (np.all(s >= 0.0) and np.all(s <= 1.0)):
            problems.append("entropy outside [0, 1]")
        if abs(s[-1] - r["tomo"].exact_entropy) > EXACT:
            problems.append("final entropy differs from tomography exact_entropy")
        problems += _m2_problems(r["m2"], "moment_series")
        if not (np.isfinite(r["fit"].exponent) and np.isfinite(r["fit"].prefactor)):
            problems.append("power-law fit is not finite")
        return problems

    def check_once(self, inp, r, rec):
        rng = np.random.default_rng([self.seed, 1_000_000])
        return _dense_oracle_problems(self.dtqw, rng)


def _dense_oracle_problems(d, rng: np.random.Generator, steps: int = 12) -> list[str]:
    """A small walk against explicit dense operator products, and a noiseless
    tomography round trip of its final state."""
    text = "".join(rng.choice(["H", "F"], size=steps))
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, upper = np.linalg.qr(z)
    unitary = q * (upper.diagonal() / np.abs(upper.diagonal()))
    init = d.InitialCoin(*_angles(rng))
    table = {"H": d.hadamard_coin(), "F": d.fourier_coin()}
    problems = []
    for policy, coins in (
        (d.DynamicSequence(text), [table[c] for c in text]),
        (d.Ordered(unitary), [unitary] * steps),
    ):
        width = 2 * steps + 1
        up_shift = np.eye(width, k=-1)  # site j -> j+1
        down_shift = np.eye(width, k=1)  # site j -> j-1
        shift = np.block([[up_shift, np.zeros_like(up_shift)], [np.zeros_like(up_shift), down_shift]])
        vec = np.zeros(2 * width, dtype=complex)
        vec[steps], vec[width + steps] = init.spinor
        trajectory = d.evolve(init, policy, steps)
        for t, coin in enumerate(coins, start=1):
            vec = shift @ (np.kron(coin, np.eye(width)) @ vec)
            got = np.zeros(2 * width, dtype=complex)
            got[steps - t : steps + t + 1] = trajectory[t].amps[0]
            got[width + steps - t : width + steps + t + 1] = trajectory[t].amps[1]
            if np.max(np.abs(got - vec)) > 1e-10:
                problems.append(f"{type(policy).__name__}: evolve differs from dense product at t={t}")
                break
    final = trajectory[-1]
    tomo = d.tomographic_entropy(final, 10**6, noiseless=True)
    truth = d.reduced_coin_density(final)
    if np.max(np.abs(tomo.rho_c_hat - truth)) > 1e-9 or abs(tomo.entropy_hat - tomo.exact_entropy) > 1e-9:
        problems.append("noiseless tomography round trip is not exact")
    return problems


class Ensemble(Workload):
    name = "ensemble"

    def make_input(self, rng, i):
        theta, phi = _angles(rng)
        return {"init": self.dtqw.InitialCoin(theta, phi), "base_seed": _seed(rng),
                "sample_seed": _seed(rng)}

    def work(self, inp):
        s = self.size
        return s["ens_seeds"] * s["ens_steps"] + s["ens_samples"] * s["ens_n"]

    def run(self, inp):
        d, s = self.dtqw, self.size
        series = d.ensemble_moment_series(
            inp["init"], steps=s["ens_steps"], n_seeds=s["ens_seeds"], base_seed=inp["base_seed"]
        )
        fit = d.fit_power_law(series)
        report = d.sampled_sweep(
            inp["init"], n=s["ens_n"], samples=s["ens_samples"], seed=inp["sample_seed"], workers=1
        )
        return {"m2": series.m2, "fit": fit, "report": report}

    def corrupt(self, result):
        result["m2"][0] += 1.0

    def check(self, inp, r):
        problems = []
        if abs(r["m2"][0] - 1.0) > EXACT:
            problems.append(f"m2(1) = {float(r['m2'][0])!r}, expected 1")
        problems += _m2_problems(r["m2"], "ensemble_moment_series")
        if not (np.isfinite(r["fit"].exponent) and np.isfinite(r["fit"].prefactor)):
            problems.append("power-law fit is not finite")
        rep = r["report"]
        again = self.dtqw.entropy_of_sequence(inp["init"], rep.argmax_sequences[0])
        if abs(again - rep.max_entropy) > EXACT:
            problems.append("sampled sweep argmax does not re-evaluate to max_entropy")
        return problems


class Cli(Workload):
    """One ``python -m dtqw.cli`` subprocess per op, writing into a fresh directory."""

    name = "cli"
    CYCLE = ("lz", "walk", "entropy", "tomo", "sweep", "fit")
    cycle = len(CYCLE)
    inprocess_trace = True

    def __init__(self, *args):
        import dtqw.io

        self.io = dtqw.io
        self.counter = 0
        self.last_walk: Path | None = None
        super().__init__(*args)

    def kind(self, i):
        return self.CYCLE[i % self.cycle]

    def make_input(self, rng, i):
        s = self.size
        kind = self.CYCLE[i % self.cycle]
        theta, phi = _angles(rng)
        init = ["--theta", str(theta), "--phi", str(phi)]
        if kind == "lz":
            argv, expect = ["lz"], {}
        elif kind == "walk":
            seed = _seed(rng)
            argv = ["walk", *init, "--steps", str(s["cli_walk"]), "--dynamic-seed", str(seed)]
            expect = {"steps": s["cli_walk"], "theta": theta, "phi": [phi], "dynamic_seed": seed}
        elif kind == "entropy":
            phis = sorted(int(v) / 1000 for v in rng.choice(360_000, size=3, replace=False))
            argv = ["entropy", "--theta", str(theta), "--phi", ",".join(map(str, phis)),
                    "--steps", str(s["cli_entropy"]), "--ordered", "H", "--eigenvalues"]
            expect = {"steps": s["cli_entropy"], "phi": phis, "eigenvalues": True}
        elif kind == "tomo":
            static, count_seed = _seed(rng), _seed(rng)
            argv = ["tomo", *init, "--steps", str(s["cli_tomo"]),
                    "--total-counts", str(s["cli_counts"]), "--static-seed", str(static),
                    "--seed", str(count_seed)]
            expect = {"steps": s["cli_tomo"], "total_counts": s["cli_counts"],
                      "static_seed": static, "seed": count_seed}
        elif kind == "sweep":
            argv = ["sweep", *init, "--n", str(s["cli_sweep_n"])]
            expect = {"n": s["cli_sweep_n"], "theta": theta}
        else:  # fit reads the moments.csv of the latest walk op
            argv, expect = ["fit"], {}
        return {"kind": kind, "argv": argv, "expect": expect, "phis": expect.get("phi", [])}

    def _argv(self, inp, out: Path) -> list[str]:
        argv = list(inp["argv"])
        if inp["kind"] == "fit":
            argv += ["--input", str(self.last_walk / "moments.csv")]
        return argv + ["--out", str(out)]

    def _fresh_dir(self) -> Path:
        self.counter += 1
        return self.workdir / f"cli-op{self.counter}"

    def work(self, inp):
        s = self.size
        return {
            "walk": s["cli_walk"],
            "entropy": 3 * s["cli_entropy"],
            "tomo": s["cli_tomo"],
            "sweep": (2 ** s["cli_sweep_n"]) * s["cli_sweep_n"],
        }.get(inp["kind"], 0)

    def run(self, inp):
        out = self._fresh_dir()
        argv = self._argv(inp, out)
        proc = subprocess.run(
            [sys.executable, "-m", "dtqw.cli", *argv],
            env=self.env, capture_output=True, text=True, timeout=120,
        )
        if inp["kind"] == "walk":
            self.last_walk = out
        return {"out": out, "returncode": proc.returncode, "stdout": proc.stdout,
                "stderr": proc.stderr}

    def run_inprocess(self, inp) -> tuple[int, Path]:
        """The same command through ``dtqw.cli.main(argv)`` in this process."""
        import dtqw.cli

        out = self._fresh_dir()
        argv = self._argv(inp, out)
        with contextlib.redirect_stdout(_stdio.StringIO()):
            code = dtqw.cli.main(argv)
        return code, out

    def corrupt(self, result):
        written = [line[6:] for line in result["stdout"].splitlines() if line.startswith("wrote ")]
        Path(written[0]).unlink()

    def expected_files(self, inp) -> dict[str, tuple | None]:
        io = self.io
        kind = inp["kind"]
        if kind == "lz":
            return {"lz_complexity.csv": None, "lz_complexity.json": None}
        if kind == "walk":
            return {"trajectory.csv": io.TRAJECTORY_HEADER, "distribution.csv": io.DISTRIBUTION_HEADER,
                    "moments.csv": io.MOMENT_HEADER, "trajectory.json": None,
                    "distribution.json": None, "moments.json": None}
        if kind == "entropy":
            files = {}
            for phi in inp["phis"]:
                files[f"entropy_curve_phi{phi:g}.csv"] = io.ENTROPY_EIGEN_HEADER
                files[f"entropy_curve_phi{phi:g}.json"] = None
            return files
        if kind == "tomo":
            return {"counts.csv": io.COUNTS_HEADER, "tomography_summary.csv": None,
                    "counts.json": None, "tomography.json": None}
        if kind == "sweep":
            return {"sweep_report.json": None, "sweep_histogram.csv": None}
        return {"fit.json": None, "fit.csv": None}

    def check(self, inp, r):
        if r["returncode"] != 0:
            return [f"{inp['kind']}: exit code {r['returncode']}: {r['stderr'].strip()[-300:]}"]
        problems = []
        wrote = [Path(line[6:]) for line in r["stdout"].splitlines() if line.startswith("wrote ")]
        for path in wrote:
            if not path.is_file():
                problems.append(f"{inp['kind']}: wrote {path} but it does not exist")
        expected = self.expected_files(inp)
        if sorted(p.name for p in wrote) != sorted(expected):
            problems.append(f"{inp['kind']}: wrote {sorted(p.name for p in wrote)}, expected {sorted(expected)}")
        for name, header in expected.items():
            path = r["out"] / name
            if not path.is_file():
                continue
            if name.endswith(".csv"):
                with open(path) as fh:
                    first = fh.readline().rstrip("\r\n")
                    rows = sum(1 for _ in fh)
                if header is not None and first != ",".join(header):
                    problems.append(f"{name}: header {first!r} != {','.join(header)!r}")
                if name == "trajectory.csv" and rows != (self.size["cli_walk"] + 1) ** 2:
                    problems.append(f"trajectory.csv has {rows} rows, expected (T+1)^2")
            else:
                with open(path) as fh:
                    config = json.load(fh).get("config", {})
                if config.get("command") != inp["kind"]:
                    problems.append(f"{name}: config does not echo command {inp['kind']!r}")
                for key, value in inp["expect"].items():
                    if config.get(key) != value:
                        problems.append(f"{name}: config[{key!r}] = {config.get(key)!r}, expected {value!r}")
        return problems

    def release(self, inp, result):
        if inp["kind"] != "walk":
            shutil.rmtree(result["out"], ignore_errors=True)
        if inp["kind"] == "fit" and self.last_walk is not None:
            shutil.rmtree(self.last_walk, ignore_errors=True)
            self.last_walk = None


WORKLOADS = {w.name: w for w in (Sweep, LongWalk, Ensemble, Cli)}
