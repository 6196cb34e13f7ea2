"""A fresh run of the golden training setup equals the committed values.

Regenerate ``training.json`` only for a change meant to move the
numbers: ``PYTHONPATH=src python -m tests.golden.training``.
"""

import pytest

from tests.golden.training import RELATIVE_TOLERANCE, load, relative_error, run


@pytest.fixture(scope="module")
def fresh():
    return run()


@pytest.mark.parametrize("optimiser", ["adagrad", "sgd_momentum"])
@pytest.mark.parametrize(
    "series", ["train_losses", "validation_losses", "user_vectors", "event_vectors"]
)
def test_matches_golden(fresh, optimiser, series):
    error = relative_error(fresh[optimiser][series], load()[optimiser][series])
    assert error <= RELATIVE_TOLERANCE, f"{optimiser} {series}: {error:.3g}"
