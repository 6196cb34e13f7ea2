"""Tracing overhead budget on the warm serving path.

The observability contract (README "Observability"): with no registry
and no tracer, the serving path pays one branch per instrumentation
point; with a live registry but no tracer, span histograms and
counters only; with a tracer installed, full per-request traces.
This bench measures warm ``rank_events`` in all three configurations
and asserts the budgets CI enforces, in microseconds **added per call**
over fully-off:

* metrics on, tracing **disabled**: <= 25 us per call
* metrics on, tracing **enabled**:  <= 120 us per call

Measurement notes, learned the hard way on noisy shared runners:

* The estimator is the **median of per-round paired differences**: each
  round times the three configurations back-to-back, so a difference
  compares batches taken under the same machine conditions, and the
  median across rounds discards rounds hit by scheduler or
  frequency-scaling noise (absolute times drift +-20%).
* **120 rounds at every scale.**  On a 2-core host, the "disabled"
  median of 20 rounds read 9–31 us over twelve fresh processes of one
  tree, so the 25 us budget failed on unchanged code; the median of 120
  rounds read 11–15 us in 15 of 16, for about a second more per run.
* Each batch is preceded by one **untimed warm call**: switching the
  active registry class per batch defeats CPython's adaptive
  bytecode specialization, and the first call after a switch pays a
  re-specialization penalty that production (one registry for the
  process lifetime) never sees.
* The budgets are absolute because the cost is: per-request telemetry
  is a fixed number of counter, histogram and span operations, whatever
  the pool.  They used to be 5% / 15% of the call, and twice the pool
  had to grow to keep that meaningful (4000 candidates while such a call
  took 2.2 ms, 20 000 once id-native ranking made it 0.49 ms); with the
  pool resolved once per index epoch the 20 000-candidate call is
  ~0.3 ms, and the same 35 us / 85 us of telemetry would read as 12% /
  28% of it.  The pool stays production-sized so the call is the real
  one; the ratios are still printed, for the eye only.  The metrics-on
  budget went 50 -> 25 us when an untraced span became two clock reads
  and one O(1) histogram observe (DESIGN 8.2).

The benchmark session conftest installs a live registry for the whole
session, so the fully-off configuration must install a
:class:`NullRegistry` explicitly rather than rely on the default.
"""

from __future__ import annotations

import dataclasses
import statistics
import time

from repro.core.config import JointModelConfig
from repro.core.model import JointUserEventModel
from repro.core.service import RepresentationService
from repro.datagen.config import DataConfig
from repro.datagen.dataset import build_dataset
from repro.obs.registry import MetricsRegistry, NullRegistry, use_registry
from repro.obs.trace import TailSampler, Tracer, use_tracer
from repro.text.documents import DocumentEncoder

from .conftest import write_result

POOL_SIZE = 20000
BATCH = 3
ROUNDS = 120
DISABLED_BUDGET_US = 25.0
ENABLED_BUDGET_US = 120.0


def _warm_service():
    """An untrained small service over ``small(0)``'s users and a
    ``POOL_SIZE``-event pool, fully warmed.

    The pool is the world's events, in id order, copied under fresh
    ids (titles suffixed ``#id``) until it holds ``POOL_SIZE``: the
    call timed is a production-sized warm rank, and the overhead it
    measures does not depend on model quality.
    """
    dataset = build_dataset(DataConfig.small(seed=0))
    users = sorted(dataset.users, key=lambda user: user.user_id)
    events = sorted(dataset.events, key=lambda event: event.event_id)
    base = len(events)
    next_id = events[-1].event_id + 1
    while len(events) < POOL_SIZE:
        source = events[len(events) % base]
        events.append(
            dataclasses.replace(
                source, event_id=next_id, title=f"{source.title} #{next_id}"
            )
        )
        next_id += 1
    encoder = DocumentEncoder.fit(users, events, min_df=1)
    service = RepresentationService(
        JointUserEventModel(JointModelConfig.small(seed=0), encoder)
    )
    service.warm(users, events)
    return service, users, events


def _batch_seconds(fn) -> float:
    fn()  # untimed: absorbs interpreter re-specialization after a config switch
    start = time.perf_counter()
    for _ in range(BATCH):
        fn()
    return (time.perf_counter() - start) / BATCH


def test_tracing_overhead_budget():
    service, users, events = _warm_service()
    user = users[0]

    def rank():
        service.rank_events(user, events, top_k=10)

    off = NullRegistry()
    registry = MetricsRegistry()
    tracer = Tracer(TailSampler(keep_slowest=8))

    # Warm every configuration before timing: index build, cache fill,
    # metric-family creation, first-trace allocations.
    with use_registry(off):
        rank()
    with use_registry(registry):
        rank()
        with use_tracer(tracer):
            rank()

    disabled_added: list[float] = []
    enabled_added: list[float] = []
    t_off = t_disabled = t_enabled = float("inf")
    for _ in range(ROUNDS):
        with use_registry(off):
            round_off = _batch_seconds(rank)
        with use_registry(registry):
            round_disabled = _batch_seconds(rank)
            with use_tracer(tracer):
                round_enabled = _batch_seconds(rank)
        disabled_added.append(round_disabled - round_off)
        enabled_added.append(round_enabled - round_off)
        t_off = min(t_off, round_off)
        t_disabled = min(t_disabled, round_disabled)
        t_enabled = min(t_enabled, round_enabled)

    disabled_us = statistics.median(disabled_added) * 1e6
    enabled_us = statistics.median(enabled_added) * 1e6
    off_us = t_off * 1e6

    write_result(
        "tracing_overhead",
        "SERVING — tracing overhead on warm rank_events "
        f"(pool={POOL_SIZE}, {ROUNDS} rounds of {BATCH}-call batches)\n"
        f"  off       {off_us:9.1f} us/call (min)\n"
        f"  disabled  {t_disabled * 1e6:9.1f} us/call "
        f"(median added {disabled_us:+.1f} us, {100.0 * disabled_us / off_us:+.1f}%)\n"
        f"  enabled   {t_enabled * 1e6:9.1f} us/call "
        f"(median added {enabled_us:+.1f} us, {100.0 * enabled_us / off_us:+.1f}%)",
    )

    assert tracer.finished > 0, "traced configuration actually traced"
    assert disabled_us <= DISABLED_BUDGET_US, (
        f"tracing-disabled overhead {disabled_us:.1f} us/call exceeds "
        f"the {DISABLED_BUDGET_US:.0f} us budget"
    )
    assert enabled_us <= ENABLED_BUDGET_US, (
        f"tracing-enabled overhead {enabled_us:.1f} us/call exceeds "
        f"the {ENABLED_BUDGET_US:.0f} us budget"
    )
