import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# the same examples on every run, and no failing example stored in
# .hypothesis/ to be replayed by later runs: a result depends on the code only
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

from prodscreen import AtomicMatrix, load_transactions


@pytest.fixture
def four_transactions(tmp_path):
    """The running example: {a,b}, {a,b,c}, {b,c}, {a}."""
    p = tmp_path / "t.txt"
    p.write_text("a b\na b c\nb c\na\n")
    return load_transactions(p)


@pytest.fixture
def rng():
    return np.random.default_rng(20260821)


def random_binary(rng, n, d, density=0.4):
    X = (rng.random((n, d)) < density).astype(float)
    return X, AtomicMatrix.from_dense(X)
