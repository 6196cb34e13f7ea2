"""A fresh run of the golden Siamese setup equals the committed values.

Regenerate ``siamese.json`` only for a change meant to move the
numbers: ``PYTHONPATH=src python -m tests.golden.siamese``.
"""

import pytest

from tests.golden.siamese import load, run
from tests.golden.training import RELATIVE_TOLERANCE, relative_error


@pytest.fixture(scope="module")
def fresh():
    return run()


@pytest.mark.parametrize("series", ["losses", "title_vectors"])
def test_matches_golden(fresh, series):
    error = relative_error(fresh[series], load()[series])
    assert error <= RELATIVE_TOLERANCE, f"{series}: {error:.3g}"
