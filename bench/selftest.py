"""Self-test of the benchmark, on tiny inputs.

    python3 bench/selftest.py

For every workload it checks that

- a ``--trace 0`` run emits exactly the end-to-end metrics and a
  ``--trace 1`` run exactly the per-layer metrics of BENCHMARK.json, each
  with its unit and a finite number, and that no op failed;
- a run whose op 0 result is deliberately corrupted (``--inject-fault``)
  still finishes with exit code 0 and counts that op as failed;

and that the benchmark, copied without the sources it measures, exits with
a nonzero code and prints no result.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def expected_metrics() -> tuple[dict, dict]:
    e2e, layer = dict(run.END_TO_END), dict(spans.PER_LAYER)
    spec_file = ROOT / "BENCHMARK.json"
    if spec_file.is_file():
        spec = json.loads(spec_file.read_text())
        e2e_spec = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layer_spec = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if (e2e_spec, layer_spec) != (e2e, layer):
            raise SystemExit("BENCHMARK.json metrics differ from run.END_TO_END / spans.PER_LAYER")
    return e2e, layer


def bench(cwd: Path, *args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "1", "--seconds", "1", "--size", "tiny", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def result_problems(code: int, lines: list[str], metrics: dict, fault: bool) -> list[str]:
    if code != 0 or not lines:
        return [f"exit code {code}"]
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != metrics:
        problems.append(f"metrics differ: missing {sorted(set(metrics) - set(got))}, "
                        f"extra {sorted(set(got) - set(metrics))}, or a unit differs")
    for name, m in result["metrics"].items():
        value = m.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name} value {value!r} is not a finite number")
    attempted, failed = result["attempted"], result["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        problems.append(f"attempted={attempted!r} failed={failed!r}")
    elif fault and (failed < 1 or result["correct"]):
        problems.append(f"corrupted op not counted: failed={failed}, correct={result['correct']}")
    elif not fault and (failed != 0 or not result["correct"]):
        problems.append(f"{failed} of {attempted} ops failed")
    return problems


def main() -> int:
    e2e, layer = expected_metrics()
    failures = 0
    for workload in run.WORKLOADS:
        for label, args, metrics, fault in (
            ("trace 0", ("--trace", "0"), e2e, False),
            ("trace 1", ("--trace", "1"), layer, False),
            ("injected fault", ("--trace", "0", "--inject-fault"), e2e, True),
        ):
            code, lines = bench(ROOT, "--workload", workload, *args)
            problems = result_problems(code, lines, metrics, fault)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload:9s} {label}" +
                  "".join(f"\n     {p}" for p in problems), flush=True)

    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = bench(bare, "--workload", "sweep", "--trace", "0")
    refused = code != 0 and not any(line.startswith("{") for line in lines)
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} without sources: exit code {code}, "
          f"{len(lines)} stdout lines")
    shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
