"""A fresh fit of the golden GBDT setup equals the committed values.

Regenerate ``gbdt.json`` only for a change meant to move the numbers:
``PYTHONPATH=src python -m tests.golden.gbdt``.
"""

import pytest

from tests.golden.gbdt import load, run
from tests.golden.training import RELATIVE_TOLERANCE, relative_error


@pytest.fixture(scope="module")
def fresh():
    return run()


@pytest.mark.parametrize("series", ["train_losses", "probabilities"])
def test_matches_golden(fresh, series):
    error = relative_error(fresh[series], load()[series])
    assert error <= RELATIVE_TOLERANCE, f"{series}: {error:.3g}"
