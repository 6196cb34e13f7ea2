"""Drift detection: a reference-vs-live mean shift over one stream.

The paper's core premise is that events are transient — the pool
turns over continuously as events are created and expire, and a
monitor must tell that normal turnover from a model that moved.  Latency
telemetry (:mod:`repro.obs.registry`, :mod:`repro.obs.trace`) says
whether the system is *fast*; this module says whether the model's
outputs are still *healthy*: whether what the system serves today
still looks like what it served when the reference window was frozen.

:class:`DriftMonitor` is a streaming monitor fed raw observations,
with one setting, ``window``.  The first ``window`` samples freeze
into an immutable *reference* (its size, mean and variance); later
samples roll through a *live window* of the same size.
:meth:`DriftMonitor.result` compares the two, once the live window is
full, with one detector, the two-sample mean-shift z-score, and
breaches when its magnitude reaches :data:`SIGMAS`.

The z-score assumes the samples of a window are exchangeable — any
one is as likely as any other to have come from any request.  So a
stream must carry one number per independent unit of traffic: the
service feeds each served ranking's top-1 score, not its K scores,
because the K scores of one ranking sit at that user's own level and
a window of them differs from the next by which users it holds, not
by the model.

Verdicts are tri-state: ``"warming"`` (not enough data — assumed
healthy), ``"ok"``, or ``"drift"``.  Detector math runs only at
evaluation time; ``observe`` is an O(1) append so monitors can sit on
serving hot paths behind the usual ``registry.enabled`` gate.

Everything here is deterministic: no randomness, no wall-clock reads —
feeding the same observation sequence always yields the same verdict.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "SIGMAS",
    "DriftResult",
    "DriftMonitor",
    "mean_shift_zscore",
]

SIGMAS = 4.0
"""Breach threshold on ``|z|``.  Under no shift the z-score of
exchangeable samples is close to a standard normal, so 4σ is a false
alarm rate of about 6e-5 per evaluation."""


def mean_shift_zscore(
    ref_mean: float,
    ref_var: float,
    ref_n: int,
    live_mean: float,
    live_var: float,
    live_n: int,
) -> float:
    """Two-sample z-score of the live mean against the reference.

    ``(live_mean - ref_mean) / sqrt(ref_var/ref_n + live_var/live_n)``
    — positive means the live window shifted *up*.  A zero pooled
    standard error with a nonzero mean delta returns ``±inf``; with a
    zero delta it returns ``0.0`` (identical constant streams).
    """
    if ref_n < 1 or live_n < 1:
        raise ValueError("mean_shift_zscore needs samples in both windows")
    delta = live_mean - ref_mean
    stderr = math.sqrt(ref_var / ref_n + live_var / live_n)
    if stderr == 0.0:
        if delta == 0.0:
            return 0.0
        return math.copysign(math.inf, delta)
    return delta / stderr


def _mean_var(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population variance (two-pass, numerically stable)."""
    n = len(values)
    mean = sum(values) / n
    var = sum((value - mean) ** 2 for value in values) / n
    return mean, var


@dataclass(frozen=True)
class DriftResult:
    """One evaluation verdict of a monitor.

    ``status`` is ``"warming"`` / ``"ok"`` / ``"drift"``;
    ``mean_zscore`` is ``nan`` while warming.
    """

    name: str
    status: str
    mean_zscore: float
    live_samples: int

    @property
    def drifted(self) -> bool:
        return self.status == "drift"


class DriftMonitor:
    """Streaming reference-vs-live mean-shift monitor for one signal.

    The first ``window`` observations freeze into the reference; the
    live window is a ring of the most recent ``window`` observations
    after that.  A verdict needs a full live window — before that,
    ``result()`` reports ``"warming"`` and never breaches — so the
    first one comes at the ``2 * window``-th observation.

    The verdict is ``"drift"`` when the mean-shift z-score reaches
    :data:`SIGMAS` in either direction.

    ``observe`` is an O(1) deque/list append and may be called from
    multiple serving threads; verdicts are computed over a snapshot of
    the live window, so a concurrent ``result()`` sees a consistent
    recent state.  The reference freezes once and is never re-armed.
    """

    def __init__(self, name: str, window: int) -> None:
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        self.name = name
        self.window = window
        self._freeze_lock = threading.Lock()
        self._pending: list[float] | None = []
        self._ref_n = 0
        self._ref_mean = 0.0
        self._ref_var = 0.0
        self._live: deque[float] = deque(maxlen=window)
        self.observed = 0

    # -- ingest --------------------------------------------------------

    def observe(self, value: float) -> None:
        """Record one observation (hot-path cheap: one append)."""
        self.observed += 1
        pending = self._pending
        if pending is not None:
            pending.append(value)
            if len(pending) >= self.window:
                self._freeze()
            return
        self._live.append(value)

    def _freeze(self) -> None:
        """Promote the pending samples to the immutable reference."""
        with self._freeze_lock:
            pending = self._pending
            if pending is None:  # lost the race: already frozen
                return
            reference = tuple(pending)
            self._ref_mean, self._ref_var = _mean_var(reference)
            self._ref_n = len(reference)
            # Publish last: observers branch on _pending being None.
            self._pending = None

    # -- evaluate ------------------------------------------------------

    def result(self) -> DriftResult:
        """Compare the live window to the reference right now."""
        pending = self._pending
        live = list(self._live)  # empty until the reference froze
        if pending is not None or len(live) < self.window:
            return DriftResult(
                name=self.name,
                status="warming",
                mean_zscore=math.nan,
                live_samples=len(live),
            )
        live_mean, live_var = _mean_var(live)
        zscore = mean_shift_zscore(
            self._ref_mean,
            self._ref_var,
            self._ref_n,
            live_mean,
            live_var,
            len(live),
        )
        return DriftResult(
            name=self.name,
            status="drift" if abs(zscore) >= SIGMAS else "ok",
            mean_zscore=zscore,
            live_samples=len(live),
        )

    def export(self, registry: "MetricsRegistry") -> None:
        """Write the current verdict as ``repro_drift_*`` gauges.

        A warming monitor's ``nan`` exports as ``0.0`` (healthy: the
        warm-up contract); an infinite z-score exports as computed.
        """
        result = self.result()
        tags = {"monitor": self.name}
        zscore = result.mean_zscore
        registry.gauge("repro_drift_mean_zscore", tags=tags).set(
            0.0 if math.isnan(zscore) else zscore
        )
        registry.gauge("repro_drift_ok", tags=tags).set(
            0.0 if result.drifted else 1.0
        )
        registry.gauge("repro_drift_live_samples", tags=tags).set(
            result.live_samples
        )
