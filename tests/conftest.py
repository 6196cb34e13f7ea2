"""Shared fixtures: tiny worlds that keep the suite fast."""

import json

import numpy as np
import pytest

from repro.datagen.config import DataConfig
from repro.datagen.dataset import build_dataset
from repro.entities import Event, User


@pytest.fixture(scope="session")
def strict_loads():
    """``json.loads`` that refuses the bare ``NaN``/``Infinity`` extension."""

    def reject(name):
        raise AssertionError(f"bare {name} is not strict JSON")

    return lambda text: json.loads(text, parse_constant=reject)


@pytest.fixture(scope="session")
def small_dataset():
    """One small synthetic dataset shared by read-only tests."""
    return build_dataset(DataConfig.small(seed=11))


@pytest.fixture()
def tiny_users():
    return [
        User(
            user_id=1,
            categorical={"age_bucket": "25-34", "gender": "female", "city": "c1"},
            keywords=["jazz", "saxophone", "blues"],
            page_titles=["jazz club downtown", "blue note fans"],
            page_ids=[10, 11],
            home_location=(1.0, 2.0),
            friend_ids=[2],
        ),
        User(
            user_id=2,
            categorical={"age_bucket": "35-44", "gender": "male", "city": "c2"},
            keywords=["tasting", "gourmet"],
            page_titles=["chef society"],
            page_ids=[12],
            home_location=(50.0, 50.0),
            friend_ids=[1, 3],
        ),
        User(
            user_id=3,
            categorical={"age_bucket": "18-24", "gender": "other", "city": "c1"},
            keywords=["marathon", "running"],
            page_titles=["run club"],
            page_ids=[13],
            home_location=(2.0, 1.0),
            friend_ids=[2],
        ),
    ]


@pytest.fixture()
def tiny_events():
    return [
        Event(
            event_id=1,
            title="Jazz Night",
            description="live jazz trio plays saxophone downtown tonight",
            category="music_live",
            created_at=0.0,
            starts_at=48.0,
            location=(1.5, 2.5),
            host_id=2,
        ),
        Event(
            event_id=2,
            title="Tasting Fair",
            description="sample gourmet dishes from local chefs",
            category="food_tasting",
            created_at=10.0,
            starts_at=60.0,
            location=(51.0, 49.0),
            host_id=1,
        ),
        Event(
            event_id=3,
            title="Fun Run",
            description="morning marathon training run for all paces",
            category="sports_race",
            created_at=20.0,
            starts_at=44.0,
            location=(0.5, 0.5),
            host_id=3,
        ),
    ]


@pytest.fixture()
def rng():
    return np.random.default_rng(0)
