"""Online serving: HTTP API with work-conserving request micro-batching.

The paper's deployment story (Section 4's pre-computed representation
store behind a recommendation endpoint) as a process: an asyncio HTTP
server over :class:`~repro.core.service.RepresentationService` whose
``/recommend`` route answers at once when the ranker is free and
coalesces what arrives while it is busy into one flush — one
``rank_events_batch`` GEMM per distinct request shape.  Stdlib only —
no framework deps.

Layers (each independently testable):

* :mod:`repro.serving.schemas` — typed requests, validation, error
  envelopes (400/422/503);
* :mod:`repro.serving.batcher` — the work-conserving micro-batcher;
* :mod:`repro.serving.http` — HTTP/1.1 framing over asyncio streams;
* :mod:`repro.serving.server` — routes + lifecycle
  (:class:`ServingServer`, thread-hosted :class:`ThreadedServer`).

``repro-events serve`` runs it as a process; any HTTP client reaches it.
"""

from repro.serving.batcher import BatcherClosed, MicroBatcher
from repro.serving.schemas import (
    ApiError,
    RecommendRequest,
    ScoreRequest,
    SimilarEventsRequest,
    error_envelope,
)
from repro.serving.server import ServingServer, ThreadedServer

__all__ = [
    "ApiError",
    "BatcherClosed",
    "MicroBatcher",
    "RecommendRequest",
    "ScoreRequest",
    "ServingServer",
    "SimilarEventsRequest",
    "ThreadedServer",
    "error_envelope",
]
