"""Tracing overhead budget on the warm serving path.

The observability contract (README "Observability"): with no registry
and no tracer, the serving path pays one branch per instrumentation
point; with a live registry but no tracer, span histograms and
counters only; with a tracer installed, full per-request traces.
This bench measures warm ``rank_events`` in all three configurations
and asserts the budgets CI enforces:

* metrics on, tracing **disabled**: <= 5% over fully-off
* metrics on, tracing **enabled**:  <= 15% over fully-off

Measurement notes, learned the hard way on noisy shared runners:

* The estimator is the **median of per-round paired ratios**: each
  round times the three configurations back-to-back, so a ratio
  compares batches taken under the same machine conditions, and the
  median across rounds discards rounds hit by scheduler or
  frequency-scaling noise (absolute times drift +-20% — far more than
  the overhead being measured).
* Each batch is preceded by one **untimed warm call**: switching the
  active registry class per batch defeats CPython's adaptive
  bytecode specialization, and the first call after a switch pays a
  re-specialization penalty that production (one registry for the
  process lifetime) never sees.
* The pool is production-sized (20 000 candidates, a ~2.5 ms call):
  per-request telemetry cost is constant, so a percentage budget is
  only meaningful against a request doing a realistic amount of
  ranking work.  It was 4000 while a 4000-candidate call took 2.2 ms;
  id-native ranking made that call 0.49 ms, and the same budgets over a
  request 4.5x cheaper would demand 4.5x cheaper telemetry.  In
  absolute terms the cost fell with it: 80 -> 35 us per call with
  metrics on, 184 -> 85 us with full tracing.

The benchmark session conftest installs a live registry for the whole
session, so the fully-off configuration must install a
:class:`NullRegistry` explicitly rather than rely on the default.
"""

from __future__ import annotations

import statistics
import time

from repro.loadgen import build_synthetic_service
from repro.obs import (
    MetricsRegistry,
    NullRegistry,
    TailSampler,
    Tracer,
    use_registry,
    use_tracer,
)

from .conftest import write_result

POOL_SIZE = 20000
BATCH = 3
DISABLED_BUDGET = 1.05
ENABLED_BUDGET = 1.15


def _batch_seconds(fn) -> float:
    fn()  # untimed: absorbs interpreter re-specialization after a config switch
    start = time.perf_counter()
    for _ in range(BATCH):
        fn()
    return (time.perf_counter() - start) / BATCH


def test_tracing_overhead_budget(bench_scale):
    rounds = 20 if bench_scale == "ci" else 40
    service, users, events = build_synthetic_service(seed=0, pool_size=POOL_SIZE)
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

    disabled_ratios: list[float] = []
    enabled_ratios: list[float] = []
    t_off = t_disabled = t_enabled = float("inf")
    for _ in range(rounds):
        with use_registry(off):
            round_off = _batch_seconds(rank)
        with use_registry(registry):
            round_disabled = _batch_seconds(rank)
            with use_tracer(tracer):
                round_enabled = _batch_seconds(rank)
        disabled_ratios.append(round_disabled / round_off)
        enabled_ratios.append(round_enabled / round_off)
        t_off = min(t_off, round_off)
        t_disabled = min(t_disabled, round_disabled)
        t_enabled = min(t_enabled, round_enabled)

    disabled_ratio = statistics.median(disabled_ratios)
    enabled_ratio = statistics.median(enabled_ratios)

    write_result(
        "tracing_overhead",
        "SERVING — tracing overhead on warm rank_events "
        f"(pool={POOL_SIZE}, {rounds} rounds of {BATCH}-call batches)\n"
        f"  off       {t_off * 1e6:9.1f} us/call (min)\n"
        f"  disabled  {t_disabled * 1e6:9.1f} us/call "
        f"(median ratio {(disabled_ratio - 1.0) * 100:+.1f}%)\n"
        f"  enabled   {t_enabled * 1e6:9.1f} us/call "
        f"(median ratio {(enabled_ratio - 1.0) * 100:+.1f}%)",
    )

    assert tracer.finished > 0, "traced configuration actually traced"
    assert disabled_ratio <= DISABLED_BUDGET, (
        f"tracing-disabled overhead {disabled_ratio:.3f}x exceeds "
        f"{DISABLED_BUDGET}x budget"
    )
    assert enabled_ratio <= ENABLED_BUDGET, (
        f"tracing-enabled overhead {enabled_ratio:.3f}x exceeds "
        f"{ENABLED_BUDGET}x budget"
    )
