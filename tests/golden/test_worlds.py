"""A fresh build of every golden world hashes to its committed value.

Regenerate ``worlds.json`` only for a change meant to move the worlds:
``PYTHONPATH=src python -m tests.golden.worlds``.
"""

import pytest

from tests.golden.training import world
from tests.golden.worlds import WORLDS, digest, load, payload, run, saved_payload


@pytest.mark.parametrize("name", sorted(WORLDS))
def test_matches_golden(name):
    assert run(name) == load()[name], f"world {name} moved"


def test_fingerprint_covers_what_save_writes():
    dataset = world()
    saved = saved_payload(dataset)
    assert sorted(saved) == sorted(payload(dataset))
    assert digest(saved) == digest(payload(dataset))
