"""Reference implementations the parity suites compare against.

Deliberately slow and obvious: a Python sort for the ranking contract,
and a per-event loop over :meth:`RepresentationService.score` (that is,
:func:`repro.nn.cosine.pair_cosine` on cached vectors) for a whole
ranking.  Neither touches :class:`~repro.store.EventIndex`,
``top_k_order`` or the service's rank body, so the indexed single-user,
batch and HTTP paths can all be held to them: ids equal, scores within
1e-9.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.service import RepresentationService, ScoredEvent, validate_top_k
from repro.entities import Event, User


def brute_force_order(
    scores: Sequence[float], event_ids: Sequence[int], k: int | None = None
) -> list[int]:
    """Indices ordered by ``(-score, event_id)``, truncated to ``k``."""
    order = sorted(
        range(len(scores)), key=lambda i: (-scores[i], event_ids[i])
    )
    return order[:k]


def rank_events_loop(
    service: RepresentationService,
    user: User,
    events: Sequence[Event],
    at_time: float | None = None,
    top_k: int | None = None,
) -> list[ScoredEvent]:
    """Per-event scoring loop with the contract of ``rank_events``."""
    top_k = validate_top_k(top_k)
    scored = [
        ScoredEvent(event=event, score=service.score(user, event))
        for event in events
        if at_time is None or event.is_active(at_time)
    ]
    scored.sort(key=lambda item: (-item.score, item.event.event_id))
    return scored[:top_k]
