"""Print a sha256 of every file that a fixed list of ``dtqw`` runs writes, and one total.

A script, not a test: two checkouts whose totals agree write the same bytes
for every case below.  The ``wall_time_s`` line of ``sweep_report.json``
is the one line that changes from run to run, so it is dropped before
hashing.  Run it from a checkout with the package on the path:

    PYTHONPATH=src python tests/cli_digest.py

The cases cover every coin policy at theta 0, 51 and 180 (the last with
phi = 180), the ordered walk under each named coin (H and F, stepped
exactly, and I, stepped as given), `entropy` at three phi with
``--eigenvalues``, the exhaustive and the sampled sweep, `tomo` with and
without ``--noiseless``, `lz` and `fit`.  Three longer runs pass the
kernel's rescale at 512 steps: a `walk` with a site pattern and dynamic
bits, whose dense states take the |down> rows out of their phase frame,
and two `entropy` curves of a site pattern, whose rho01 reads that frame,
one with dynamic bits, which read the phases x of all four pairs of
consecutive step bits.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

from dtqw.cli import main

STEPS = "100"
ENHANCER = "FFHFHFHHFFFFFHFHHHHH"
POLICIES = {
    "ordered": ("--ordered", "H"),
    "ordered-F": ("--ordered", "F"),
    "ordered-I": ("--ordered", "I"),
    "sequence": ("--sequence", (ENHANCER * 5)[: int(STEPS)]),
    "dynamic": ("--dynamic-seed", "3"),
    "static": ("--static-seed", "5"),
    "both": ("--dynamic-seed", "2", "--static-seed", "7"),
}
INITS = {"t0": ("0", "0"), "t51": ("51", "0"), "t180p180": ("180", "180")}


def cases():
    """(name, argv) of every run, each writing into the directory `name`."""
    for policy, flags in POLICIES.items():
        for init, (theta, phi) in INITS.items():
            yield f"walk-{policy}-{init}", ["walk", "--theta", theta, "--phi", phi, "--steps", STEPS, *flags]
    yield "walk-both-520", ["walk", "--theta", "51", "--phi", "0", "--steps", "520", *POLICIES["both"]]
    for policy in ("ordered", "both"):
        yield f"entropy-{policy}", ["entropy", "--theta", "51", "--phi", "0,90,180", "--steps", STEPS,
                                    "--eigenvalues", *POLICIES[policy]]
    yield "entropy-static-1100", ["entropy", "--theta", "51", "--phi", "0", "--steps", "1100", *POLICIES["static"]]
    yield "entropy-both-1100", ["entropy", "--theta", "51", "--phi", "0", "--steps", "1100", *POLICIES["both"]]
    yield "sweep-exhaustive", ["sweep", "--theta", "51", "--phi", "0", "--n", "12"]
    yield "sweep-sampled", ["sweep", "--theta", "90", "--phi", "90", "--n", "30", "--samples", "3000", "--seed", "4"]
    tomo = ["tomo", "--theta", "51", "--phi", "0", "--steps", "20", "--static-seed", "3", "--total-counts", "24000"]
    yield "tomo", [*tomo, "--seed", "1"]
    yield "tomo-noiseless", [*tomo, "--noiseless"]
    yield "lz", ["lz"]
    yield "lz-sequence", ["lz", "--sequence", ENHANCER]
    yield "fit", ["fit", "--input", "walk-dynamic-t51/moments.csv"]
    yield "fit-classical", ["fit", "--classical", "200"]


def digest(path: Path) -> str:
    lines = path.read_bytes().splitlines(keepends=True)
    return hashlib.sha256(b"".join(line for line in lines if b'"wall_time_s"' not in line)).hexdigest()


def run(root: Path) -> dict[str, str]:
    """The digest of every file written under `root`, by its path relative to `root`.

    The runs take relative paths from `root`, because the config echoed into
    the JSON mirrors holds ``--out`` and ``--input`` as given.
    """
    os.chdir(root)
    for name, argv in cases():
        with contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--out", name])
        if code:
            raise SystemExit(f"{name}: dtqw {' '.join(argv)} exited {code}")
    return {str(path.relative_to(root)): digest(path) for path in sorted(root.rglob("*")) if path.is_file()}


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        try:
            digests = run(Path(tmp))
        finally:
            os.chdir(here)
    total = hashlib.sha256()
    for name, value in digests.items():
        print(f"{value}  {name}")
        total.update(f"{value}  {name}\n".encode())
    print(f"{total.hexdigest()}  total ({len(digests)} files)", file=sys.stdout)
