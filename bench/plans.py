"""Workload plans: every generated input, as a pure function of the seed.

A plan names entities by *position* in the id-sorted user and event
lists of the seeded world, so it can be generated (and compared byte
for byte by the self-test) without building the world.  The program
under test never sees a plan, only the requests made from it.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

OPEN_RATE_RPS = 60.0
SUBPOOL_SIZE = 200
BATCH_USERS = 8
TOP_K = 10
CHURN_NEW_EVENTS = 16
CHURN_EDITS = 4
# 150 ms, not the round 200: at 200 ms the share of reader calls that run
# beside a burst hovers around the 5 % that p95 cuts off, and the reader's
# p95 then jumps between the two modes from run to run (quartile spread
# 13-21 %); at 150 ms it lies inside the slow mode (4 %).
CHURN_PERIOD_S = {"full": 0.15, "quick": 0.05}
TRAIN_SHARD = {"full": 512, "quick": 256}

# One stream per plan so changing one workload never shifts another.
_STREAMS = {"http_open": 1, "http_closed": 2, "rank": 3, "churn": 4}


def _rng(seed: int, stream: str, lane: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, _STREAMS[stream], lane])


def plan_bytes(plan: Any) -> bytes:
    """Canonical serialisation: equal plans give equal bytes."""
    return json.dumps(plan, sort_keys=True, separators=(",", ":")).encode()


def _at_time(rng: np.random.Generator, total_hours: float) -> float:
    # Middle of the timeline, where a good share of events is active.
    return round(float(rng.uniform(0.3, 0.9)) * total_hours, 3)


def _http_request(
    rng: np.random.Generator, n_users: int, pool_size: int, total_hours: float
) -> dict[str, Any]:
    """70 % full-pool recommend, 20 % explicit sub-pool, 10 % score."""
    draw = float(rng.random())
    user = int(rng.integers(n_users))
    if draw < 0.7:
        return {"kind": "full", "user": user}
    if draw < 0.9:
        size = min(SUBPOOL_SIZE, pool_size)
        events = rng.choice(pool_size, size=size, replace=False)
        return {
            "kind": "subpool",
            "user": user,
            "events": [int(position) for position in events],
            "at_time": _at_time(rng, total_hours),
        }
    return {"kind": "score", "user": user, "event": int(rng.integers(pool_size))}


def http_open_plan(
    seed: int, n_users: int, pool_size: int, total_hours: float, seconds: float
) -> list[dict[str, Any]]:
    """Poisson arrivals at ``OPEN_RATE_RPS`` over ``seconds``."""
    rng = _rng(seed, "http_open")
    plan: list[dict[str, Any]] = []
    due = float(rng.exponential(1.0 / OPEN_RATE_RPS))
    while due < seconds:
        request = _http_request(rng, n_users, pool_size, total_hours)
        request["due"] = round(due, 6)
        plan.append(request)
        due += float(rng.exponential(1.0 / OPEN_RATE_RPS))
    return plan


def http_closed_plan(
    seed: int,
    n_users: int,
    pool_size: int,
    total_hours: float,
    lane: int,
    length: int = 2048,
) -> list[dict[str, Any]]:
    """One connection's request cycle for the closed loop."""
    rng = _rng(seed, "http_closed", lane)
    return [
        _http_request(rng, n_users, pool_size, total_hours) for _ in range(length)
    ]


def rank_plan(
    seed: int, n_users: int, total_hours: float, length: int = 2048
) -> list[dict[str, Any]]:
    """Fixed rotation: single, single-at-time, and every 8th a batch."""
    rng = _rng(seed, "rank")
    times = [_at_time(rng, total_hours) for _ in range(8)]
    plan: list[dict[str, Any]] = []
    for position in range(length):
        if position % 8 == 7:
            users = rng.choice(n_users, size=min(BATCH_USERS, n_users), replace=False)
            plan.append({"kind": "batch", "users": [int(u) for u in users]})
        elif position % 2 == 0:
            plan.append({"kind": "single", "user": int(rng.integers(n_users))})
        else:
            plan.append(
                {
                    "kind": "at_time",
                    "user": int(rng.integers(n_users)),
                    "at_time": times[int(rng.integers(len(times)))],
                }
            )
    return plan


def churn_plan(
    seed: int, n_users: int, n_base: int, pool_size: int, cycles: int
) -> dict[str, Any]:
    """Reader user cycle plus one burst of creations and edits per cycle.

    A new event is a text variant of base event ``source`` (see
    :func:`variant_text`); an edit rewrites the description of the
    pool event at ``position``.
    """
    rng = _rng(seed, "churn")
    return {
        "reader_users": [int(u) for u in rng.integers(n_users, size=1024)],
        "cycles": [
            {
                "new": [
                    {"source": int(rng.integers(n_base)), "salt": int(rng.integers(1 << 30))}
                    for _ in range(CHURN_NEW_EVENTS)
                ],
                "edits": [
                    {"position": int(position), "salt": int(rng.integers(1 << 30))}
                    for position in rng.choice(
                        pool_size, size=CHURN_EDITS, replace=False
                    )
                ],
            }
            for _ in range(cycles)
        ],
    }


def variant_text(description: str, salt: int) -> str:
    """A seeded rewrite of an event description: rotated words + a tag."""
    words = description.split()
    if words:
        cut = salt % len(words)
        words = words[cut:] + words[:cut]
    return " ".join([*words, f"edition{salt % 9973}"])


def train_plan(seed: int, n_impressions: int, shard_size: int) -> dict[str, Any]:
    """The first impressions of the log, cut into four shards that the
    run cycles through; the seed drives the shuffling inside ``fit``.

    The shards are the same for every seed on purpose: documents differ
    in length, so a seeded choice of impressions moved the cost of a
    step by several per cent from seed to seed with nothing changed.
    """
    if n_impressions < 4 * shard_size:
        raise ValueError(f"{n_impressions} impressions cannot fill four shards of {shard_size}")
    return {
        "training_seed": seed,
        "shard_size": shard_size,
        "shard_starts": [index * shard_size for index in range(4)],
    }
