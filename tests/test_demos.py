"""Each demo runs to completion: they use the public API the way a reader would."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dtqw

DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(dtqw.__file__).parents[1]))
    # 8 is the sweep length of 03_sequence_statistics; the other demos ignore it.
    done = subprocess.run(
        [sys.executable, str(demo), "8"], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
