"""One benchmark process: set up a workload in a fresh interpreter, then run it.

Started by run.py with the checkout's ``src`` on PYTHONPATH:

    python3 bench/worker.py --workload W --seed N --seconds S --size full \
        [--probe] [--trace-file F] [--inject-fault]

Set-up is ``import dtqw``, generating the inputs from the seed and one
untimed warm-up op; the worker then prints the CLOCK_MONOTONIC time it was
ready at.  A probe stops there.  Otherwise the worker runs ops in a closed
loop with one client for S seconds, stopping only at a cycle boundary,
checks each op outside its timed region, and prints one JSON line with the
per-op samples, resource usage and the environment record.

With ``--trace-file`` ops alternate in cycles between traced (wrappers
installed, spans recorded) and untraced, starting traced, and the spans are
written to F at the end.  The cli workload instead runs every command three
times: as the timed subprocess, then in process untraced, then in process
traced.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

import spans  # noqa: E402  (bench/ is sys.path[0])
import workloads  # noqa: E402


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        use = resource.getrusage(who)
        total += use.ru_utime + use.ru_stime
    return total


def _problems_of(fn, *args) -> list[str]:
    try:
        return list(fn(*args))
    except Exception:
        return ["check raised: " + traceback.format_exc(limit=3).strip()]


def environment(dtqw) -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        cpu = platform.processor()
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "dtqw").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "dtqw_source_sha256": digest.hexdigest(),
    }


def run_loop(wl, seconds: float, rec, inject: bool):
    """Closed loop over ops; returns (op records, op 0's input and result)."""
    alternate = rec is not None and not getattr(wl, "inprocess_trace", False)
    records, first = [], None
    begin = time.perf_counter()
    i = 0
    while True:
        if i % wl.cycle == 0:
            block = i // wl.cycle
            if i > 0 and time.perf_counter() - begin >= seconds:
                # A traced run ends after as many untraced cycles as traced ones.
                if not alternate or block % 2 == 0:
                    break
            if alternate:
                rec.install() if block % 2 == 0 else rec.uninstall()
        traced = alternate and (i // wl.cycle) % 2 == 0
        inp = wl.op_input(i)
        if traced:
            rec.op_id = i
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            result, error = wl.run(inp), None
        except Exception:
            result, error = None, traceback.format_exc(limit=3).strip()
        latency = time.perf_counter() - t0
        cpu = _cpu_s() - cpu0
        if rec is not None:
            rec.op_id = spans.NO_OP
        record = {"i": i, "kind": wl.kind(i), "latency_s": latency, "cpu_s": cpu,
                  "work": wl.work(inp), "traced": traced}
        if rec is not None and not alternate:  # cli: the same command in process
            record["traced"] = True
            t0 = time.perf_counter()
            code, out = wl.run_inprocess(inp)
            record["inprocess_s"] = time.perf_counter() - t0
            shutil.rmtree(out, ignore_errors=True)
            with rec.tracing(i):
                t0 = time.perf_counter()
                code_traced, out = wl.run_inprocess(inp)
                record["inprocess_traced_s"] = time.perf_counter() - t0
            shutil.rmtree(out, ignore_errors=True)
            if (code, code_traced) != (0, 0):
                error = error or f"in-process dtqw.cli.main exit codes {code}, {code_traced}"
        if error is not None:
            problems = ["raised: " + error]
        else:
            if inject and i == 0:
                wl.corrupt(result)
            problems = _problems_of(wl.check, inp, result)
        record["problems"] = problems
        for p in problems:
            print(f"[{wl.name} op {i} {record['kind']}] FAILED: {p}", file=sys.stderr)
        if i == 0:
            first = (inp, result)
        elif result is not None:
            wl.release(inp, result)
        records.append(record)
        i += 1
    if rec is not None:
        rec.uninstall()
    return records, first


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--trace-file")
    ap.add_argument("--inject-fault", action="store_true")
    args = ap.parse_args()

    import dtqw

    origin = Path(dtqw.__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"dtqw imported from {origin}, not from this checkout", file=sys.stderr)
        return 2
    workdir = Path(args.workdir)
    wl = workloads.WORKLOADS[args.workload](dtqw, args.seed, args.size, workdir, dict(os.environ))
    warm = wl.run(wl.op_input(0))
    wl.release(wl.op_input(0), warm)
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.probe:
        print(json.dumps({"ready_at": ready_at}))
        return 0

    rec = spans.Recorder() if args.trace_file else None
    if rec is not None and getattr(wl, "inprocess_trace", False):
        import dtqw.cli  # noqa: F401  (its functions are wrapped too)
    records, (inp0, result0) = run_loop(wl, args.seconds, rec, args.inject_fault)
    once = _problems_of(wl.check_once, inp0, result0, rec)
    for p in once:
        print(f"[{wl.name} once-per-run check] FAILED: {p}", file=sys.stderr)
    records[0]["problems"] += once
    if result0 is not None:
        wl.release(inp0, result0)

    out = {
        "ready_at": ready_at,
        "ops": records,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "env": environment(dtqw),
    }
    if rec is not None:
        out["spans"] = rec.save(args.trace_file)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
