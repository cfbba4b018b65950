"""Apply one-line mutants to copies of the package, run Tier-1 on each, and print which test kills it.

A script, not a test.  Each catalogue entry is (file under ``src/dtqw``, old
text, new text, reason): a plausible bug, or, in `EQUIVALENT`, a change that
no result a test can see depends on.  Every old text must occur exactly once
in its file.  Each mutant runs in its own copy of the checkout (`COPIED`)
in a temporary directory, with ``pytest -x`` and the two acceptance checks
that fail by design deselected, one child process at a time; the first test
that fails kills it.  An unmutated copy runs first and must pass.  Run it
from a checkout (a killed mutant takes seconds to a full Tier-1 run, a
survivor a full run):

    PYTHONPATH=src python tests/mutants.py            # every mutant
    PYTHONPATH=src python tests/mutants.py --check    # only look up the old texts
    PYTHONPATH=src python tests/mutants.py --only walk.py --only residual

It prints each mutant's fate, its time and the killing test, the equivalent
ones apart, and exits 1 if a mutant of `MUTANTS` survives.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
#: What Tier-1 reads: the package, the tests, and the demos and bench scripts whose calls it checks.
COPIED = ("src", "tests", "demos", "bench", "pyproject.toml")
#: The acceptance checks that fail by design (ROADMAP, "Failing checks").
BY_DESIGN = (
    "tests/test_acceptance.py::test_1_asymptotic_ordered_entropies[180.0-0.977]",
    "tests/test_acceptance.py::test_4_twelve_benchmark_complexities",
)


class Mutant(NamedTuple):
    file: str
    old: str
    new: str
    reason: str


MUTANTS = [
    # The reporting layer: each pins a documented definition.
    Mutant("entanglement.py", "rho[steps - tail + 1 :]", "rho[steps - tail :]",
           "asymptotic_entropy averages tail + 1 steps"),
    Mutant("sequences.py", "(std / np.sqrt(count))", "(std / np.sqrt(count - 1))",
           "a sampled sweep's std_error divides by sqrt(count - 1)"),
    Mutant("sequences.py", "np.count_nonzero(entropies > threshold)", "np.count_nonzero(entropies >= threshold)",
           "fraction_above counts entropies equal to the threshold"),
    Mutant("sequences.py", "ARGMAX_TOL = 1e-12", "ARGMAX_TOL = 1e-6",
           "the argmax lists sequences up to 1e-6 below the maximum"),
    Mutant("sequences.py", "_SUM_BLOCK = 1 << 14", "_SUM_BLOCK = 1 << 13",
           "a sweep report sums its entropies in blocks of 2^13"),
    Mutant("transport.py", "residual = float(np.sqrt(np.mean(", "residual = float(np.sqrt(np.sum(",
           "the fit residual is a root sum, not the RMS"),
    Mutant("tomography.py", "for k in range(total_counts % 3):", "for k in range(0):",
           "simulate_counts drops the remainder of a budget that 3 does not divide"),
    # The kernel and its reductions.
    Mutant("walk.py", "if t % (2 * _RESCALE) == 0:\n            _rescale((up, dn))",
           "if False:\n            _rescale((up, dn))", "the batch kernel never rescales its rows"),
    Mutant("walk.py", "np.subtract(up, new_dn, out=new_dn)", "np.add(up, new_dn, out=new_dn)",
           "_phase_shift writes a + u into the |down> rows"),
    Mutant("walk.py", "out[..., 0, 1] *= np.conj(q)", "out[..., 0, 1] *= q",
           "rho01 of a batch is multiplied by its frame q, not conj(q)"),
    Mutant("walk.py", "return _sequence_alphabet()[::-1]", "return _sequence_alphabet()",
           "random policies map bit 0 to F and bit 1 to H"),
    Mutant("walk.py", "2.0 ** (-scale / 2)", "2.0 ** (-(scale // 2))",
           "a dense state at an odd scale is unscaled by 2^-floor(s/2)"),
    Mutant("walk.py", "_BUFFER_LIMIT = 1 << 28", "_BUFFER_LIMIT = 1 << 29",
           "the kernel's buffer limit doubles"),
    # The record of the last single-walk run.
    Mutant("walk.py", "*bits, np.asarray(spinor, np.complex128).tobytes()", "*bits",
           "the record's key leaves out the spinor"),
    Mutant("walk.py", "(plan.site_bits, plan.step_bits))", "(plan.site_bits,))",
           "the record's key leaves out the step bits"),
    Mutant("walk.py", "        if steps < _BATCH_ROWS:\n", "        if True:\n",
           "a walk past _BATCH_ROWS - 1 steps writes the record"),
    Mutant("walk.py", "        yield up, dn, q\n\n\ndef _coin_dots",
           "        yield up, dn, q\n    _last_run = _run_key(plan, spinor), (up, dn, q, plan.scales()[-1])\n\n\n"
           "def _coin_dots", "a batch run writes the record"),
    Mutant("walk.py", "if ts == range(steps, steps + 1) and record", "if steps in ts and record",
           "any read that includes the last state reads the record"),
]

EQUIVALENT = [
    Mutant("tomography.py", "return float(np.clip(value, 0.0, 1.0))", "return float(value)",
           "the fidelity of two density matrices lies in [0, 1] up to rounding; the clamp moves it by an ulp at most"),
    Mutant("tomography.py", "return float(min(np.sum(np.sqrt(a * b)), 1.0))", "return float(np.sum(np.sqrt(a * b)))",
           "the similarity of normalized distributions passes 1 only by rounding; the clamp moves it by an ulp at most"),
    Mutant("io.py", 'exponent[0] == "-" and int(exponent) > -308', 'exponent[0] == "-" and int(exponent) > -300',
           "from 1e-307 to 1e-300 repr(float(text)) gives back the 12-digit text, so both routes give one token"),
    Mutant("walk.py", "(up.copy(), dn.copy(), np.array(q), plan.scales()[-1])",
           "(up.copy(), dn.copy(), q, plan.scales()[-1])",
           "the record keeps the frame q by reference: the plan's phase tables are never written after they are built"),
]


def locate(mutant: Mutant) -> str:
    """``file:line`` of the mutant's old text, or SystemExit if it does not occur exactly once."""
    text = (ROOT / "src" / "dtqw" / mutant.file).read_text()
    if (count := text.count(mutant.old)) != 1:
        raise SystemExit(f"{mutant.file}: {mutant.old!r} occurs {count} times, not once")
    return f"{mutant.file}:{text[: text.index(mutant.old)].count(chr(10)) + 1}"


def run(mutant: Mutant | None) -> tuple[str, float]:
    """The id of the first test that fails on `mutant` (None: no mutant), "" if none does, and the run's seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source, target = ROOT / name, copy / name
            if source.is_dir():
                shutil.copytree(source, target, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy(source, target)
        if mutant:
            path = copy / "src" / "dtqw" / mutant.file
            path.write_text(path.read_text().replace(mutant.old, mutant.new))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider"]
        argv += [f"--deselect={test}" for test in BY_DESIGN]
        env = dict(os.environ, PYTHONPATH=str(copy / "src"))
        started = time.perf_counter()
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True)
        seconds = time.perf_counter() - started
    if done.returncode == 0:
        return "", seconds
    failed = [line for line in done.stdout.splitlines() if line.startswith(("FAILED ", "ERROR "))]
    return (failed[0].split(" - ")[0] if failed else f"pytest exit {done.returncode}"), seconds


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="only check that each old text occurs once")
    parser.add_argument("--only", action="append", default=[],
                        help="run the mutants whose file:line or reason contains this text (repeatable)")
    args = parser.parse_args()
    # Stopped by a signal, unwind, so that the running child is killed and its copy removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    catalogues = {"mutants": MUTANTS, "equivalent mutants, expected to survive": EQUIVALENT}
    places = {mutant: locate(mutant) for catalogue in catalogues.values() for mutant in catalogue}
    if args.check:
        for mutant, where in places.items():
            print(f"{where:18} {mutant.reason}")
        return 0
    if killer := run(None)[0]:
        raise SystemExit(f"the unmutated copy fails {killer}")
    survivors = 0
    for title, catalogue in catalogues.items():
        print(f"== {title}")
        for mutant in catalogue:
            where = places[mutant]
            if args.only and not any(text in f"{where} {mutant.reason}" for text in args.only):
                continue
            killer, seconds = run(mutant)
            print(f"{'killed' if killer else 'SURVIVED':9} {where:18} {seconds:6.1f} s  {mutant.reason}")
            if killer:
                print(f"{'':36}by {killer}")
            survivors += not killer and catalogue is MUTANTS
            sys.stdout.flush()
    return 1 if survivors else 0

if __name__ == "__main__":
    sys.exit(main())
