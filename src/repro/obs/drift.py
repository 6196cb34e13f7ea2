"""Drift detection: reference-vs-live window sketches over streams.

The paper's core premise is that events are transient — the serving
distribution (served scores, candidate-pool sizes, embedding norms)
shifts continuously as events are created and expire.  Latency
telemetry (:mod:`repro.obs.registry`, :mod:`repro.obs.trace`) says
whether the system is *fast*; this module says whether the model's
outputs are still *healthy*: whether what the system serves today
still looks like what it served when the reference window was frozen.

:class:`DriftMonitor` is a streaming monitor fed raw observations.
The first ``warmup`` samples freeze into an immutable *reference
window* (plus decile bin edges derived from it); later samples roll
through a fixed-size *live window*.  :meth:`DriftMonitor.result`
compares the two windows with three detector families:

- **PSI** (population stability index) over the reference-derived
  quantile bins — the standard score-distribution shift measure;
- **two-sample KS** — the exact Kolmogorov–Smirnov sup-distance
  between the windows' empirical CDFs (no scipy: a sorted merge);
- **mean/variance shift** — a two-sample z-score on the means and a
  live/reference variance ratio.

Verdicts are tri-state: ``"warming"`` (not enough data — assumed
healthy), ``"ok"``, or ``"drift"`` (at least one detector breached its
threshold).  Detector math runs only at evaluation time; ``observe``
is an O(1) append so monitors can sit on serving hot paths behind the
usual ``registry.enabled`` gate.

Everything here is deterministic: no randomness, no wall-clock reads —
feeding the same observation sequence always yields the same verdict.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.obs.registry import MetricsRegistry

__all__ = [
    "DriftThresholds",
    "DriftResult",
    "DriftMonitor",
    "psi",
    "ks_statistic",
    "mean_shift_zscore",
    "bin_fractions",
]

# PSI smoothing floor: empty bins are clamped to this fraction so the
# log-ratio stays finite (the conventional choice in scorecard
# monitoring literature).
_PSI_EPS = 1.0e-4


@dataclass(frozen=True)
class DriftThresholds:
    """Breach thresholds for the three detector families.

    Defaults follow the conventional operating points: PSI >= 0.2 is
    "significant shift" in the scorecard literature; a KS distance of
    0.2 between two ~200-sample windows is far outside sampling noise;
    ``mean_sigmas`` is a two-sample z-score bound; ``var_ratio``
    breaches when the live variance leaves ``[1/r, r]`` times the
    reference variance.  Set a field to ``math.inf`` to disable that
    detector (the trainer does this for PSI/KS, which are meaningless
    over a handful of epoch losses).

    Configured thresholds are *floors*, not exact operating points:
    at evaluation time each detector also computes its sampling-noise
    floor for the current window sizes (PSI concentrates around
    ``(bins-1) * (1/n_ref + 1/n_live)`` under no shift; the KS
    critical value scales with ``sqrt(1/n_ref + 1/n_live)``; the log
    variance ratio has standard error ``sqrt(2/(n_ref-1) +
    2/(n_live-1))``) and breaches only above ``max(threshold,
    floor)`` — small windows cannot false-positive on noise alone.
    """

    psi: float = 0.2
    ks: float = 0.2
    mean_sigmas: float = 4.0
    var_ratio: float = 4.0

    def __post_init__(self) -> None:
        for name in ("psi", "ks", "mean_sigmas"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} threshold must be >= 0")
        if self.var_ratio < 1.0:
            raise ValueError("var_ratio threshold must be >= 1")


def psi(expected: Sequence[float], observed: Sequence[float]) -> float:
    """Population stability index between two bin-fraction vectors.

    ``sum((o_i - e_i) * ln(o_i / e_i))`` over aligned bins, with both
    fraction vectors renormalized and floored at ``_PSI_EPS`` so empty bins
    contribute a large-but-finite penalty.  Symmetric in the sense
    that swapping the arguments changes nothing.
    """
    if len(expected) != len(observed):
        raise ValueError(
            f"bin count mismatch: {len(expected)} expected vs "
            f"{len(observed)} observed"
        )
    if not expected:
        raise ValueError("psi needs at least one bin")
    e_total = sum(expected)
    o_total = sum(observed)
    if e_total <= 0.0 or o_total <= 0.0:
        raise ValueError("psi needs positive mass in both windows")
    total = 0.0
    for e_raw, o_raw in zip(expected, observed):
        e = max(e_raw / e_total, _PSI_EPS)
        o = max(o_raw / o_total, _PSI_EPS)
        total += (o - e) * math.log(o / e)
    return total


def ks_statistic(reference: Sequence[float], live: Sequence[float]) -> float:
    """Exact two-sample Kolmogorov–Smirnov statistic.

    ``sup_x |F_ref(x) - F_live(x)|`` computed by merging the two
    sorted samples — no scipy, no binning error.
    """
    if not reference or not live:
        raise ValueError("ks_statistic needs samples in both windows")
    ref = sorted(reference)
    obs = sorted(live)
    n_ref, n_obs = len(ref), len(obs)
    i = j = 0
    best = 0.0
    while i < n_ref and j < n_obs:
        # Consume every sample tied at the current value from *both*
        # sides before measuring: the empirical CDFs only differ at
        # distinct values, and advancing one side through a tie would
        # report a phantom gap (identical windows must score 0).
        value = ref[i] if ref[i] <= obs[j] else obs[j]
        while i < n_ref and ref[i] == value:
            i += 1
        while j < n_obs and obs[j] == value:
            j += 1
        distance = abs(i / n_ref - j / n_obs)
        if distance > best:
            best = distance
    return best


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


def bin_fractions(
    values: Iterable[float], edges: Sequence[float]
) -> list[float]:
    """Fraction of ``values`` per bin of the partition ``edges``.

    ``edges`` are interior cut points (ascending); a value lands in
    bin ``i`` when ``edges[i-1] < value <= edges[i]``, with open outer
    bins — ``len(edges) + 1`` fractions come back.
    """
    counts = [0] * (len(edges) + 1)
    total = 0
    for value in values:
        lo, hi = 0, len(edges)
        while lo < hi:
            mid = (lo + hi) // 2
            if value <= edges[mid]:
                hi = mid
            else:
                lo = mid + 1
        counts[lo] += 1
        total += 1
    if total == 0:
        return [0.0] * len(counts)
    return [count / total for count in counts]


def _mean_var(values: Sequence[float]) -> tuple[float, float]:
    """Mean and population variance (two-pass, numerically stable)."""
    n = len(values)
    mean = sum(values) / n
    var = sum((value - mean) ** 2 for value in values) / n
    return mean, var


def _quantile_edges(ordered: Sequence[float], bins: int) -> list[float]:
    """Interior quantile cut points of a sorted sample, deduplicated.

    Equal-mass bins make PSI sensitive to shape changes anywhere in
    the distribution rather than only in the tails.  Repeated values
    collapse duplicate edges, so heavily discrete streams get fewer
    (but still valid) bins.
    """
    edges: list[float] = []
    n = len(ordered)
    for k in range(1, bins):
        rank = (k / bins) * (n - 1)
        low = int(rank)
        high = min(low + 1, n - 1)
        edge = ordered[low] + (rank - low) * (ordered[high] - ordered[low])
        if not edges or edge > edges[-1]:
            edges.append(edge)
    return edges


@dataclass(frozen=True)
class DriftResult:
    """One evaluation verdict of a monitor.

    ``status`` is ``"warming"`` / ``"ok"`` / ``"drift"``; ``breached``
    names the detectors over threshold (``"psi"``, ``"ks"``,
    ``"mean"``, ``"variance"``).  Detector values that could not be
    computed (e.g. variance ratio against a constant reference) are
    ``nan`` and never breach.
    """

    name: str
    status: str
    psi: float
    ks: float
    mean_zscore: float
    var_ratio: float
    ref_samples: int
    live_samples: int
    breached: tuple[str, ...] = ()

    @property
    def drifted(self) -> bool:
        return self.status == "drift"

    def as_dict(self) -> dict[str, Any]:
        def clean(value: float) -> float | None:
            return None if math.isnan(value) or math.isinf(value) else value

        return {
            "name": self.name,
            "status": self.status,
            "psi": clean(self.psi),
            "ks": clean(self.ks),
            "mean_zscore": clean(self.mean_zscore),
            "var_ratio": clean(self.var_ratio),
            "ref_samples": self.ref_samples,
            "live_samples": self.live_samples,
            "breached": list(self.breached),
        }


class DriftMonitor:
    """Streaming reference-vs-live drift monitor for one signal.

    The first ``warmup`` observations freeze into the reference window
    (with decile bin edges for PSI); the live window is a ring of the
    most recent ``window`` observations after that.  Verdicts need at
    least ``min_live`` live samples — before that, ``result()``
    reports ``"warming"`` and never breaches.

    ``direction`` restricts the *mean-shift* detector: ``"both"``
    (default) flags any shift, ``"up"`` only upward shifts (the
    trainer's loss-divergence setting).  PSI/KS/variance are
    direction-free.

    ``observe`` is an O(1) deque/list append and may be called from
    multiple serving threads; verdicts are computed over a snapshot of
    the windows, so a concurrent ``result()`` sees a consistent
    recent state.  Call :meth:`rebaseline` after an *intentional*
    distribution change (model swap, candidate-pool rebuild) to
    promote the live window to the new reference.
    """

    def __init__(
        self,
        name: str,
        warmup: int = 200,
        window: int = 200,
        bins: int = 10,
        min_live: int = 50,
        thresholds: DriftThresholds | None = None,
        direction: str = "both",
    ) -> None:
        if warmup < 2:
            raise ValueError(f"warmup must be >= 2, got {warmup}")
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if bins < 2:
            raise ValueError(f"bins must be >= 2, got {bins}")
        if not 2 <= min_live <= window:
            raise ValueError(
                f"min_live must be in [2, window], got {min_live}"
            )
        if direction not in ("both", "up"):
            raise ValueError(f"direction must be both/up, got {direction!r}")
        self.name = name
        self.warmup = warmup
        self.window = window
        self.bins = bins
        self.min_live = min_live
        self.thresholds = (
            thresholds if thresholds is not None else DriftThresholds()
        )
        self.direction = direction
        self._freeze_lock = threading.Lock()
        self._pending: list[float] | None = []
        self._reference: tuple[float, ...] = ()
        self._edges: tuple[float, ...] = ()
        self._ref_fractions: tuple[float, ...] = ()
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
            if len(pending) >= self.warmup:
                self._freeze()
            return
        self._live.append(value)

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    def _freeze(self) -> None:
        """Promote the pending samples to the immutable reference."""
        with self._freeze_lock:
            pending = self._pending
            if pending is None:  # lost the race: already frozen
                return
            reference = tuple(pending)
            ordered = sorted(reference)
            self._edges = tuple(_quantile_edges(ordered, self.bins))
            self._ref_fractions = tuple(
                bin_fractions(reference, self._edges)
            )
            self._ref_mean, self._ref_var = _mean_var(reference)
            self._reference = reference
            # Publish last: observers branch on _pending being None.
            self._pending = None

    def rebaseline(self) -> None:
        """Start over: the next ``warmup`` samples form a new reference."""
        with self._freeze_lock:
            self._pending = []
            self._reference = ()
            self._edges = ()
            self._ref_fractions = ()
            self._live.clear()

    # -- evaluate ------------------------------------------------------

    @property
    def warming(self) -> bool:
        return self._pending is not None or len(self._live) < self.min_live

    def result(self) -> DriftResult:
        """Compare the live window to the reference right now."""
        pending = self._pending
        live = list(self._live)  # empty until the reference froze
        reference = self._reference
        if pending is not None or len(live) < self.min_live:
            return DriftResult(
                name=self.name,
                status="warming",
                psi=math.nan,
                ks=math.nan,
                mean_zscore=math.nan,
                var_ratio=math.nan,
                ref_samples=len(pending if pending is not None else reference),
                live_samples=len(live),
            )
        live_fractions = bin_fractions(live, self._edges)
        psi_value = psi(self._ref_fractions, live_fractions)
        ks_value = ks_statistic(reference, live)
        live_mean, live_var = _mean_var(live)
        zscore = mean_shift_zscore(
            self._ref_mean,
            self._ref_var,
            len(reference),
            live_mean,
            live_var,
            len(live),
        )
        var_ratio = (
            live_var / self._ref_var if self._ref_var > 0.0 else math.nan
        )
        return self._judge(
            psi_value, ks_value, zscore, var_ratio, len(reference), len(live)
        )

    def _judge(
        self,
        psi_value: float,
        ks_value: float,
        zscore: float,
        var_ratio: float,
        ref_n: int,
        live_n: int,
    ) -> DriftResult:
        """Fold detector values + thresholds into one verdict.

        Each detector breaches above ``max(configured threshold, sampling
        noise floor)`` — see :class:`DriftThresholds`.  Without the floors
        the conventional thresholds false-positive on small windows: the
        stationary expectation of PSI is already ``(bins-1) * (1/n_ref +
        1/n_live)`` (its chi-square approximation), which *exceeds* 0.2
        for a 50-sample live window over 10 bins.
        """
        thresholds = self.thresholds
        inverse_mass = 1.0 / ref_n + 1.0 / live_n
        # ~4x the stationary chi-square mean; P(false positive) < 1e-4.
        psi_floor = 4.0 * max(len(self._ref_fractions) - 1, 1) * inverse_mass
        # Two-sample KS critical value at alpha ~ 1e-3.
        ks_floor = 1.95 * math.sqrt(inverse_mass)
        # 3 standard errors of log(var_live / var_ref).
        log_var_band = 3.0 * math.sqrt(
            2.0 / max(ref_n - 1, 1) + 2.0 / max(live_n - 1, 1)
        )
        breached: list[str] = []
        if not math.isnan(psi_value) and psi_value >= max(
            thresholds.psi, psi_floor
        ):
            breached.append("psi")
        if not math.isnan(ks_value) and ks_value >= max(thresholds.ks, ks_floor):
            breached.append("ks")
        signed = max(zscore, 0.0) if self.direction == "up" else abs(zscore)
        if not math.isnan(signed) and signed >= thresholds.mean_sigmas:
            breached.append("mean")
        var_bound = max(thresholds.var_ratio, math.exp(log_var_band))
        if not math.isnan(var_ratio) and (
            var_ratio >= var_bound or var_ratio <= 1.0 / var_bound
        ):
            breached.append("variance")
        return DriftResult(
            name=self.name,
            status="drift" if breached else "ok",
            psi=psi_value,
            ks=ks_value,
            mean_zscore=zscore,
            var_ratio=var_ratio,
            ref_samples=ref_n,
            live_samples=live_n,
            breached=tuple(breached),
        )

    def export(self, registry: "MetricsRegistry") -> None:
        """Write the current verdict as ``repro_drift_*`` gauges.

        ``nan``/``inf`` detector values export as ``0.0`` — a warming
        monitor reads as healthy, which is the warm-up contract.
        """
        result = self.result()
        tags = {"monitor": self.name}

        def finite(value: float) -> float:
            return 0.0 if math.isnan(value) or math.isinf(value) else value

        registry.gauge("repro_drift_psi", tags=tags).set(finite(result.psi))
        registry.gauge("repro_drift_ks", tags=tags).set(finite(result.ks))
        registry.gauge("repro_drift_mean_zscore", tags=tags).set(
            finite(result.mean_zscore)
        )
        registry.gauge("repro_drift_var_ratio", tags=tags).set(
            1.0 if math.isnan(result.var_ratio) else finite(result.var_ratio)
        )
        registry.gauge("repro_drift_ok", tags=tags).set(
            0.0 if result.drifted else 1.0
        )
        registry.gauge("repro_drift_live_samples", tags=tags).set(
            result.live_samples
        )
