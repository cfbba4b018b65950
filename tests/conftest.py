import sys
from pathlib import Path

import numpy as np
import pytest

import dtqw.walk

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(autouse=True)
def _empty_walk_record(monkeypatch):
    """Start every test with no record of a last kernel run (`dtqw.walk._last_run`)."""
    monkeypatch.setattr(dtqw.walk, "_last_run", None)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)
