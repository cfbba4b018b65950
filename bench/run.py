"""dtqw benchmark: four seeded workloads, end-to-end metrics, per-layer spans.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep --seed 1 --seconds 18 --trace 0

Workloads: sweep, long_walk, ensemble, cli (see bench/README.md).  With
``--trace 0`` the run reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics from spans recorded around every public dtqw
function, and the tracing overhead.  The last line of stdout is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are the same numbers for people, with the environment record.  The full
record, per-op samples included, is written to
``.bench_work/result-<workload>-trace<k>.json``.

The program is always the checkout's own ``src/dtqw``: without it the run
stops with exit code 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402

WORKLOADS = ("sweep", "long_walk", "ensemble", "cli")

END_TO_END = [
    ("setup_s", "s"),
    ("walk_steps_per_s", "steps/s"),
    ("op_p50_s", "s"),
    ("cpu_per_op_s", "s"),
    ("peak_rss_mb", "MB"),
]

SETUPS = 3  # fresh interpreters per untraced run; setup_s is their median
IMPORT_PROBES = 3  # fresh interpreters timing `import dtqw.cli` in a traced run
DEADLINE_S = 170  # a run ends within 180 s; the worker is killed past this


def fail(message: str, code: int = 2) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return code


def worker_env(workdir: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # Sweeps use two worker processes on a two-core machine: one BLAS
    # thread per process keeps the total at nproc.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = str(workdir / "tmp")
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run a fresh interpreter; return its last stdout line as JSON and its start time."""
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, *argv], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{' '.join(argv[:3])} did not finish before the deadline") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker and its children
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[:3])} exited with code {proc.returncode}")
    return json.loads(lines[-1]), started


def median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(result: dict, setups: list[float]) -> tuple[dict, dict]:
    ops = result["ops"]
    lat = [o["latency_s"] for o in ops]
    n = len(ops)
    metrics = {
        "setup_s": median(setups),
        "walk_steps_per_s": sum(o["work"] for o in ops) / sum(lat),
        "op_p50_s": median(lat),
        "cpu_per_op_s": sum(o["cpu_s"] for o in ops) / n,
        "peak_rss_mb": max(result["rss_self_kb"], result["rss_children_kb"]) / 1024,
    }
    failed = sum(1 for o in ops if o["problems"])
    # A percentile is reported only with at least ten samples beyond it.
    p90 = statistics.quantiles(lat, n=10)[-1] if n >= 100 else None
    extra = {"op_p90_s": p90, "fail_ratio": failed / n, "ops": n, "failed": failed,
             "setup_samples": setups}
    return metrics, extra


def per_layer(result: dict, trace_file: Path, import_s: list[float]) -> dict:
    ops = result["ops"]
    traced = [o["i"] for o in ops if o["traced"]]
    metrics = spans.analyze(trace_file, traced)
    if "inprocess_s" in ops[0]:  # cli: traced and untraced runs of the same command in process
        on = [o["inprocess_traced_s"] for o in ops]
        off = [o["inprocess_s"] for o in ops]
        metrics["cli.process_overhead_s"] = median(
            [o["latency_s"] - o["inprocess_s"] for o in ops]
        )
    else:
        on = [o["latency_s"] for o in ops if o["traced"]]
        off = [o["latency_s"] for o in ops if not o["traced"]]
    metrics["trace.op_p50_traced_s"] = median(on)
    metrics["trace.op_p50_untraced_s"] = median(off)
    metrics["trace.overhead_s"] = median(on) - median(off)
    metrics["cli.import_s"] = median(import_s)
    return metrics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
    )
    return proc.stdout.strip() or None


def measure(workload: str, args, workdir: Path, env: dict) -> dict:
    """One run of one workload: print its report and return its JSON result."""
    deadline = time.monotonic() + DEADLINE_S
    base = [str(BENCH / "worker.py"), "--workload", workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size, "--workdir", str(workdir)]
    if args.inject_fault:
        base.append("--inject-fault")
    trace_file = workdir / f"spans-{workload}.npz"

    setups: list[float] = []
    if args.trace:
        import_s = [
            run_child(["-c", "import json, time; t = time.perf_counter(); import dtqw.cli; "
                       "print(json.dumps(time.perf_counter() - t))"], env, deadline)[0]
            for _ in range(IMPORT_PROBES)
        ]
        result, _ = run_child(base + ["--trace-file", str(trace_file)], env, deadline)
    else:
        for k in range(SETUPS):
            probe = ["--probe"] if k < SETUPS - 1 else []
            result, started = run_child(base + probe, env, deadline)
            setups.append(result["ready_at"] - started)

    metrics, extra = end_to_end(result, setups)
    wanted = spans.PER_LAYER if args.trace else END_TO_END
    if args.trace:
        layer = per_layer(result, trace_file, import_s)
        values = {name: layer.get(name, 0.0) for name, _ in spans.PER_LAYER}
    else:
        values = metrics
    n, failed = extra["ops"], extra["failed"]
    env_record = dict(result["env"], git_commit=git_commit(), sweep_workers=2,
                      ops=n, ops_by_kind={k: sum(1 for o in result["ops"] if o["kind"] == k)
                                          for k in dict.fromkeys(o["kind"] for o in result["ops"])})

    print(f"dtqw benchmark: workload={workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("environment: " + json.dumps(env_record))
    print(f"ops: {n} attempted, {failed} failed (fail_ratio {extra['fail_ratio']:.4g})")
    if args.trace:
        for name, unit in spans.PER_LAYER:
            print(f"  {name:44s} {values[name]:.6g} {unit}")
        print(f"  tracing overhead: traced op_p50 - untraced op_p50 = "
              f"{values['trace.overhead_s']:.4g} s")
    else:
        print(f"  setup_s            {metrics['setup_s']:.4f} s  (median of {SETUPS} fresh interpreters)")
        print(f"  walk_steps_per_s   {metrics['walk_steps_per_s']:.6g} steps/s  (walks x steps requested / timed seconds)")
        print(f"  op_p50_s           {metrics['op_p50_s']:.4f} s  (n={n})")
        p90 = extra["op_p90_s"]
        print("  op_p90_s           " + (f"{p90:.4f} s  (n={n})" if p90 is not None
                                         else f"n/a: needs >= 100 ops for ten beyond p90, have {n}"))
        print(f"  cpu_per_op_s       {metrics['cpu_per_op_s']:.4f} s  (user+sys, self and children)")
        print(f"  peak_rss_mb        {metrics['peak_rss_mb']:.1f} MB  (max of self and children ru_maxrss)")
        print(f"  fail_ratio         {extra['fail_ratio']:.4g}  ({failed}/{n})")

    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env_record,
              "end_to_end": metrics, **extra, "per_layer": values if args.trace else None,
              "per_function": layer if args.trace else None, "samples": result["ops"]}
    (workdir / f"result-{workload}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    return {
        "correct": failed == 0,
        "attempted": n,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in wanted},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"),
                    help="all: every workload in turn, one result per workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="tiny: a seconds-long run for the self-test")
    ap.add_argument("--inject-fault", action="store_true",
                    help="corrupt op 0's result before its check (self-test)")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))  # run run_child's cleanup

    if not (ROOT / "src" / "dtqw" / "__init__.py").is_file():
        return fail(f"no dtqw sources at {ROOT / 'src' / 'dtqw'}; run from a full checkout")
    workdir = ROOT / ".bench_work"
    (workdir / "tmp").mkdir(parents=True, exist_ok=True)
    env = worker_env(workdir)
    results = {}
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            results[workload] = measure(workload, args, workdir, env)
        except RuntimeError as exc:
            return fail(str(exc), 1)
        if args.workload == "all":
            print(json.dumps(results[workload]))
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
