"""The per-layer bill: span-derived metrics every workload shares.

One function reads a :class:`~bench.tracing.Bill` and fills in the
metric of every layer that left spans; a layer the workload never
entered reads 0.  Workloads add what only they can know (the
generator's own numbers, the store's counters, the overhead probes).
"""

from __future__ import annotations

import bisect
from collections.abc import Iterable, Mapping
from typing import Any

from bench.tracing import Bill, Span

MS = 1.0e3
US = 1.0e6


def batcher_waits(bill: Bill) -> list[float]:
    """Seconds each ``submit`` spent *not* inside its service call.

    The service call of a flush runs in an executor thread, so it is
    no child of the submit span; it is matched by time instead: the
    last top-level rank call that both started and ended inside the
    submit.  What is left is the batching window plus the hand-off to
    and from the executor.
    """
    calls = sorted(
        (
            span
            for name in ("core.service.rank_events", "core.service.rank_events_batch")
            for span in bill.named(name)
            if span.parent_id is None
        ),
        key=lambda span: span.end,
    )
    ends = [span.end for span in calls]
    waits: list[float] = []
    for submit in bill.named("serving.batcher.submit"):
        position = bisect.bisect_right(ends, submit.end) - 1
        if position >= 0 and calls[position].start >= submit.start:
            waits.append(submit.seconds - calls[position].seconds)
    return waits


def in_window(spans: Iterable[Span], window: tuple[float, float]) -> list[Span]:
    """Spans that lie wholly inside ``window`` (one phase of a run)."""
    low, high = window
    return [span for span in spans if low <= span.start and span.end <= high]


def describe_index(index: Any) -> dict[str, float]:
    """An ``EventIndex``'s size and maintenance counters, as plain data
    (the serving process sends this to the generator)."""
    return {
        "rows": len(index),
        "capacity": index.capacity,
        "dim": index.dim or 0,
        "itemsize": index.vectors.dtype.itemsize,
        "compactions": index.stats.compactions,
        "grows": index.stats.grows,
    }


def store_metrics(
    index_before: Mapping[str, float],
    index_after: Mapping[str, float],
    cache_before: Mapping[str, float],
    cache_after: Mapping[str, float],
) -> dict[str, float]:
    """Counters the store keeps itself, over one phase of a run."""
    lookups = cache_after["lookups"] - cache_before["lookups"]
    hits = cache_after["hits"] - cache_before["hits"]
    return {
        "store.index.rows": float(index_after["rows"]),
        # Computed, not measured: capacity x dim x itemsize.
        "store.index.matrix_mb": (
            index_after["capacity"] * index_after["dim"] * index_after["itemsize"] / 2**20
        ),
        "store.index.compactions": float(
            index_after["compactions"] - index_before["compactions"]
        ),
        "store.index.grows": float(index_after["grows"] - index_before["grows"]),
        "store.cache.hit_rate": hits / lookups if lookups else 0.0,
        "store.cache.evictions": float(cache_after["evictions"] - cache_before["evictions"]),
    }


def span_metrics(bill: Bill, counts: Mapping[str, float]) -> dict[str, float]:
    """Every per-layer metric that is a function of the spans alone."""
    steps = bill.count("core.model.train_step")
    fits = bill.named("core.trainer.fit")
    encoded = counts.get("encoded_events", 0.0)
    return {
        "serving.http.read_request_us": bill.median("serving.http.read_request", US),
        "serving.http.json_decode_us": bill.median("serving.http.json_decode", US),
        "serving.http.render_response_us": bill.median("serving.http.render_response", US),
        "serving.schemas.from_payload_us": bill.median("serving.schemas.from_payload", US),
        "serving.server.dispatch_ms": bill.median("serving.server.dispatch*", MS),
        "serving.server.self_ms": bill.median_self("serving.server.dispatch/recommend", MS),
        "serving.batcher.submit_ms": bill.median("serving.batcher.submit", MS),
        "core.service.rank_events_ms": bill.median("core.service.rank_events", MS),
        "core.service.rank_events_batch_ms": bill.median("core.service.rank_events_batch", MS),
        "core.service.rank_self_ms": bill.median_self("core.service.rank_events", MS),
        "core.service.score_us": bill.median("core.service.score", US),
        "core.service.user_vector_us": bill.median("core.service.user_vector", US),
        "core.service.refresh_events_ms": bill.median("core.service.refresh_events", MS),
        "core.service.remove_event_us": bill.median("core.service.remove_event", US),
        "store.index.score_ids_ms": bill.median("store.index.score_ids", MS),
        "store.index.score_ids_batch_ms": bill.median("store.index.score_ids_batch", MS),
        "store.index.score_ids_self_ms": bill.median_self("store.index.score_ids", MS),
        "store.index.top_k_order_us": bill.median("store.index.top_k_order", US),
        "store.index.upsert_us": bill.median("store.index.upsert", US),
        "store.index.remove_us": bill.median("store.index.remove", US),
        "store.cache.get_us": bill.median("store.cache.get", US),
        "text.documents.encode_event_us": bill.median("text.documents.encode_event", US),
        "text.documents.encode_user_us": bill.median("text.documents.encode_user", US),
        "core.model.encode_events_ms_per_event": (
            MS * bill.total("core.model.encode_events") / encoded if encoded else 0.0
        ),
        "core.model.user_batches_ms": bill.median("core.model.user_batches", MS),
        "core.model.event_batches_ms": bill.median("core.model.event_batches", MS),
        "core.model.pad_useful_share": (
            counts["pad_real"] / counts["pad_cells"] if counts.get("pad_cells") else 0.0
        ),
        "core.model.train_step_ms": bill.median("core.model.train_step", MS),
        "core.tower.user_forward_ms": bill.median("core.tower.user_forward", MS),
        "core.tower.event_forward_ms": bill.median("core.tower.event_forward", MS),
        "core.tower.user_backward_ms": bill.median("core.tower.user_backward", MS),
        "core.tower.event_backward_ms": bill.median("core.tower.event_backward", MS),
        "nn.cosine.forward_backward_us": (
            bill.median("nn.cosine.forward", US) + bill.median("nn.cosine.backward", US)
        ),
        "nn.losses.contrastive_us": bill.median("nn.losses.contrastive", US),
        "nn.optim.step_ms": bill.median("nn.optim.step", MS),
        "nn.optim.zero_grad_us": bill.median("nn.optim.zero_grad", US),
        "core.trainer.fit_s": bill.median("core.trainer.fit"),
        "core.trainer.evaluate_loss_s": bill.median("core.trainer.evaluate_loss"),
        "core.trainer.steps": float(steps),
        "core.trainer.self_ms_per_step": (
            MS * sum(bill.self_seconds(span) for span in fits) / steps if steps else 0.0
        ),
    }
