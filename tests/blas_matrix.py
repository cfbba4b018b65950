"""Run Tier-1 and ``tests/cli_digest.py`` under several OpenBLAS kernels and report what differs from the default.

A script, not a test.  OpenBLAS picks a kernel for the CPU when numpy loads
it, and a process can ask for another with ``OPENBLAS_CORETYPE``.  Such a
process stands in for a machine with another CPU: its BLAS sums round in
another order.  Every run here is a child process with that variable set
for the child alone, one child at a time; nothing else changes.  Run it
from a checkout (it takes about five times Tier-1's time):

    PYTHONPATH=src python tests/blas_matrix.py

For each kernel it prints the kernel OpenBLAS reports, the count of each
test outcome, every test whose outcome differs from the default kernel's,
and every ``cli_digest`` file whose digest does, then the digest total.
"""

from __future__ import annotations

import collections
import os
import subprocess
import sys
import tempfile
import xml.etree.ElementTree as ElementTree
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
KERNELS = (None, "Haswell", "SandyBridge", "Nehalem", "Prescott")  # None: the one OpenBLAS picks


def child_env(kernel: str | None, **extra: str) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    if kernel:
        env["OPENBLAS_CORETYPE"] = kernel
    return {**env, **extra}


def run(argv: list[str], env: dict[str, str]) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True)


def loaded_kernel(kernel: str | None) -> str:
    """The ``Core:`` line OpenBLAS prints when numpy loads it, or "?" if it prints none."""
    err = run(["-c", "import numpy"], child_env(kernel, OPENBLAS_VERBOSE="2")).stderr
    cores = [line.split(":", 1)[1].strip() for line in err.splitlines() if line.startswith("Core:")]
    return cores[0] if cores else "?"


def tier1(kernel: str | None) -> dict[str, str]:
    """Outcome (passed, failed, error or skipped) of every Tier-1 test, by ``file::name``."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "junit.xml"
        argv = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                f"--junitxml={report}"]
        run(argv, child_env(kernel))
        cases = ElementTree.parse(report).getroot().iter("testcase")
        outcomes = {}
        for case in cases:
            module = case.get("classname", "").replace(".", "/")
            kind = next((c.tag for c in case if c.tag in ("failure", "error", "skipped")), "passed")
            outcomes[f"{module}.py::{case.get('name')}"] = {"failure": "failed"}.get(kind, kind)
        return outcomes


def digests(kernel: str | None) -> dict[str, str]:
    """The ``cli_digest`` lines by file name, the total under the key "total"."""
    proc = run([str(ROOT / "tests" / "cli_digest.py")], child_env(kernel))
    if proc.returncode:
        raise SystemExit(f"cli_digest.py failed under {kernel or 'the default kernel'}:\n{proc.stderr}")
    lines = (line.split("  ", 1) for line in proc.stdout.splitlines())
    return {("total" if name.startswith("total") else name): value for value, name in lines}


def main() -> None:
    base_tests = base_files = None
    for kernel in KERNELS:
        tests, files = tier1(kernel), digests(kernel)
        counts = collections.Counter(tests.values())
        print(f"== {kernel or 'default'} (OpenBLAS core: {loaded_kernel(kernel)})")
        print("   tier-1: " + ", ".join(f"{n} {outcome}" for outcome, n in sorted(counts.items())))
        if base_tests is None:
            base_tests, base_files = tests, files
        else:
            for test in sorted(base_tests.keys() | tests.keys()):
                if base_tests.get(test) != tests.get(test):
                    print(f"   test {test}: {base_tests.get(test, 'absent')} -> {tests.get(test, 'absent')}")
            for name in sorted(base_files.keys() - {"total"}):
                if base_files[name] != files.get(name):
                    print(f"   file {name} differs")
        print(f"   digest total {files['total']}")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
