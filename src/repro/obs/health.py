"""SLO health: declarative objectives, burn rates, one verdict.

The serving arc needs a single question answered continuously: *is
the system healthy right now?*  This module turns the registry's raw
telemetry into that verdict:

* :class:`SLOSpec` — one declarative objective over a snapshot metric
  (``rank p99 <= 10ms``, ``cache hit-rate >= 0.9``, ``score PSI <=
  0.2``).  A spec names the metric family, an optional tag filter, the
  statistic to read (``value`` for counters/gauges, ``p50``/``p95``/
  ``p99``/``mean``/``max`` for histograms), a comparison, a target,
  and an *error budget* — the fraction of evaluations allowed to
  breach.
* :class:`SLOTracker` — multi-window error-budget accounting.  Each
  evaluation records pass/fail into a short and a long ring window;
  the *burn rate* of a window is ``breach_fraction / budget`` (burn
  1.0 = consuming budget exactly as fast as allowed).  An SLO is
  **breached** only when *both* windows burn at or above
  ``burn_threshold`` — the standard multi-window alerting shape: the
  short window gives fast detection, the long window immunity to a
  single transient spike.
* :class:`HealthMonitor` — evaluates a spec set (plus any attached
  :class:`~repro.obs.drift.DriftMonitor` verdicts) against a registry
  snapshot and folds everything into a :class:`HealthSnapshot`, which
  exports as ``repro_health_*`` gauges, JSON, or a text table.

A single evaluation can already breach: one failing sample fills both
windows with 100% breaches, and any budget < 1 then burns above
threshold — so one-shot CLI verdicts (``repro-events health``) work
without history.  A spec whose metric is absent from the snapshot
reports ``"missing"`` and makes the snapshot unhealthy: an SLO you
cannot measure is not being met.
"""

from __future__ import annotations

import math
import re
from collections import deque
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.obs.drift import DriftMonitor, DriftResult
from repro.obs.registry import MetricsRegistry

__all__ = [
    "SLOSpec",
    "SLOStatus",
    "SLOTracker",
    "HealthSnapshot",
    "HealthMonitor",
    "default_serving_slos",
    "parse_slo",
    "format_health",
]

_OPS = ("<=", ">=")
_STATS = ("value", "p50", "p95", "p99", "mean", "max", "min", "count")


@dataclass(frozen=True)
class SLOSpec:
    """One service-level objective over a snapshot metric."""

    name: str
    metric: str
    op: str
    target: float
    stat: str = "value"
    tags: Mapping[str, str] = field(default_factory=dict)
    budget: float = 0.05
    burn_threshold: float = 1.0
    short_window: int = 12
    long_window: int = 60
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.stat not in _STATS:
            raise ValueError(
                f"stat must be one of {_STATS}, got {self.stat!r}"
            )
        if not 0.0 < self.budget < 1.0:
            raise ValueError(f"budget must be in (0, 1), got {self.budget}")
        if self.burn_threshold <= 0.0:
            raise ValueError("burn_threshold must be > 0")
        if not 1 <= self.short_window <= self.long_window:
            raise ValueError(
                "need 1 <= short_window <= long_window, got "
                f"{self.short_window}/{self.long_window}"
            )

    def met_by(self, value: float) -> bool:
        if self.op == "<=":
            return value <= self.target
        return value >= self.target


def default_serving_slos() -> tuple[SLOSpec, ...]:
    """The serving path's stock objectives.

    Evaluated against a snapshot taken after a load run: end-to-end
    rank p99 from the load report gauges, cache hit-rate from the
    cache collector, and the served-score drift *verdict* gauge.  The
    verdict (``repro_drift_ok``) is used rather than raw PSI because
    the monitor applies sampling-noise floors the raw statistic does
    not carry — a fixed 0.2 threshold over small windows flags pure
    sampling noise.
    """
    return (
        SLOSpec(
            name="rank_p99",
            metric="repro_loadgen_latency_seconds",
            tags={"stat": "p99"},
            op="<=",
            target=0.100,
            description="end-to-end request p99 <= 100 ms",
        ),
        SLOSpec(
            name="cache_hit_rate",
            metric="repro_cache_hit_rate",
            op=">=",
            target=0.9,
            description="representation cache hit-rate >= 0.9",
        ),
        SLOSpec(
            name="score_drift_ok",
            metric="repro_drift_ok",
            tags={"monitor": "serving_scores"},
            op=">=",
            target=1.0,
            description="served-score drift verdict healthy",
        ),
    )


# [name=]metric[{k=v,...}][.stat] <=|>= target
_SLO_SYNTAX = re.compile(
    r"^\s*(?:(?P<name>[A-Za-z0-9_.-]+)\s*=\s*)?"
    r"(?P<metric>[a-z0-9_]+)"
    r"(?:\{(?P<tags>[^}]*)\})?"
    r"(?:\.(?P<stat>[a-z0-9]+))?"
    r"\s*(?P<op><=|>=)\s*"
    r"(?P<target>[-+0-9.eE]+)\s*$"
)


def parse_slo(text: str) -> SLOSpec:
    """Parse the CLI spec syntax into an :class:`SLOSpec`.

    ``[name=]metric[{tag=value,...}][.stat]<=target`` — e.g.::

        rank_p99=repro_serving_rank_seconds.p99<=0.01
        repro_cache_hit_rate>=0.9
        score_psi=repro_drift_psi{monitor=serving_scores}<=0.2
    """
    match = _SLO_SYNTAX.match(text)
    if match is None:
        raise ValueError(
            f"cannot parse SLO spec {text!r}; expected "
            "[name=]metric[{tag=value,...}][.stat]<=target"
        )
    tags: dict[str, str] = {}
    if match.group("tags"):
        for pair in match.group("tags").split(","):
            if "=" not in pair:
                raise ValueError(
                    f"bad tag filter {pair!r} in SLO spec {text!r}"
                )
            key, value = pair.split("=", 1)
            tags[key.strip()] = value.strip()
    try:
        target = float(match.group("target"))
    except ValueError:
        raise ValueError(
            f"bad target number in SLO spec {text!r}"
        ) from None
    return SLOSpec(
        name=match.group("name") or match.group("metric"),
        metric=match.group("metric"),
        op=match.group("op"),
        target=target,
        stat=match.group("stat") or "value",
        tags=tags,
    )


def _lookup(snapshot: Sequence[Mapping[str, Any]], spec: SLOSpec):
    for record in snapshot:
        if record.get("name") != spec.metric:
            continue
        tags = record.get("tags", {})
        if all(tags.get(key) == value for key, value in spec.tags.items()):
            return record
    return None


def _extract(record: Mapping[str, Any], stat: str) -> float | None:
    if stat == "value":
        value = record.get("value")
        return None if value is None else float(value)
    if stat in ("p50", "p95", "p99"):
        value = record.get("quantiles", {}).get(stat)
        return None if value is None else float(value)
    if stat == "mean":
        count = record.get("count")
        if not count:
            return None
        return float(record["sum"]) / float(count)
    value = record.get(stat)
    return None if value is None else float(value)


class SLOTracker:
    """Multi-window error-budget accounting for one spec."""

    def __init__(self, spec: SLOSpec) -> None:
        self.spec = spec
        self._short: deque[bool] = deque(maxlen=spec.short_window)
        self._long: deque[bool] = deque(maxlen=spec.long_window)
        self.last_value: float | None = None
        self.missing = 0

    def record(self, value: float | None) -> None:
        """Fold one evaluation sample into both windows."""
        self.last_value = value
        if value is None:
            self.missing += 1
            return
        breach = not self.spec.met_by(value)
        self._short.append(breach)
        self._long.append(breach)

    @staticmethod
    def _burn(window: deque, budget: float) -> float:
        if not window:
            return 0.0
        return (sum(window) / len(window)) / budget

    def burn_rates(self) -> tuple[float, float]:
        return (
            self._burn(self._short, self.spec.budget),
            self._burn(self._long, self.spec.budget),
        )

    def status(self) -> "SLOStatus":
        spec = self.spec
        short_burn, long_burn = self.burn_rates()
        if self.last_value is None:
            state = "missing" if not self._long else "stale"
        elif not self._long:
            state = "warming"
        elif (
            short_burn >= spec.burn_threshold
            and long_burn >= spec.burn_threshold
        ):
            state = "breach"
        else:
            state = "ok"
        return SLOStatus(
            name=spec.name,
            metric=spec.metric,
            stat=spec.stat,
            op=spec.op,
            target=spec.target,
            value=self.last_value,
            status=state,
            burn_short=short_burn,
            burn_long=long_burn,
            description=spec.description,
        )


@dataclass(frozen=True)
class SLOStatus:
    """One SLO's verdict at evaluation time."""

    name: str
    metric: str
    stat: str
    op: str
    target: float
    value: float | None
    status: str
    burn_short: float
    burn_long: float
    description: str = ""

    @property
    def healthy(self) -> bool:
        return self.status in ("ok", "warming")

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "target": self.target,
            "value": self.value,
            "status": self.status,
            "burn_short": round(self.burn_short, 4),
            "burn_long": round(self.burn_long, 4),
            "description": self.description,
        }


@dataclass(frozen=True)
class HealthSnapshot:
    """The aggregated verdict: every SLO plus every drift monitor."""

    healthy: bool
    slos: tuple[SLOStatus, ...]
    drift: tuple[DriftResult, ...] = ()

    def breached(self) -> list[str]:
        """Names of everything unhealthy, SLOs first."""
        names = [slo.name for slo in self.slos if not slo.healthy]
        names.extend(
            f"drift:{result.name}" for result in self.drift if result.drifted
        )
        return names

    def as_dict(self) -> dict[str, Any]:
        return {
            "healthy": self.healthy,
            "breached": self.breached(),
            "slos": [slo.as_dict() for slo in self.slos],
            "drift": [result.as_dict() for result in self.drift],
        }


class HealthMonitor:
    """Evaluate SLO specs (and drift monitors) against snapshots.

    Stateful: each :meth:`evaluate` call feeds the trackers' burn-rate
    windows, so a monitor polled periodically gets genuine
    multi-window semantics while a one-shot evaluation still yields a
    verdict (see module docstring).
    """

    def __init__(
        self,
        slos: Iterable[SLOSpec],
        drift_monitors: Iterable[DriftMonitor] = (),
    ) -> None:
        self.trackers = [SLOTracker(spec) for spec in slos]
        self.drift_monitors = list(drift_monitors)
        if not self.trackers and not self.drift_monitors:
            raise ValueError("health monitor needs at least one SLO or monitor")

    def evaluate(
        self, snapshot: Sequence[Mapping[str, Any]]
    ) -> HealthSnapshot:
        """Fold one snapshot into the windows; return the verdict."""
        statuses: list[SLOStatus] = []
        for tracker in self.trackers:
            record = _lookup(snapshot, tracker.spec)
            value = (
                _extract(record, tracker.spec.stat)
                if record is not None
                else None
            )
            if value is not None and math.isnan(value):
                value = None
            tracker.record(value)
            statuses.append(tracker.status())
        drift_results = tuple(
            monitor.result() for monitor in self.drift_monitors
        )
        healthy = all(status.healthy for status in statuses) and not any(
            result.drifted for result in drift_results
        )
        return HealthSnapshot(
            healthy=healthy,
            slos=tuple(statuses),
            drift=drift_results,
        )

    def export(
        self, snapshot: HealthSnapshot, registry: MetricsRegistry
    ) -> None:
        """Write the verdict back as ``repro_health_*`` gauges."""
        registry.gauge("repro_health_ok").set(1.0 if snapshot.healthy else 0.0)
        registry.counter("repro_health_evaluations_total").inc()
        for slo in snapshot.slos:
            tags = {"slo": slo.name}
            registry.gauge("repro_health_slo_ok", tags=tags).set(
                1.0 if slo.healthy else 0.0
            )
            if slo.value is not None:
                registry.gauge("repro_health_slo_value", tags=tags).set(
                    slo.value
                )
            registry.gauge(
                "repro_health_burn_rate", tags={**tags, "window": "short"}
            ).set(slo.burn_short)
            registry.gauge(
                "repro_health_burn_rate", tags={**tags, "window": "long"}
            ).set(slo.burn_long)


def _format_value(value: float | None) -> str:
    if value is None:
        return "-"
    if value == 0.0 or 0.001 <= abs(value) < 100000.0:
        return f"{value:.4g}"
    return f"{value:.3e}"


def format_health(snapshot: HealthSnapshot) -> str:
    """Human-readable verdict table."""
    lines = [
        f"health: {'OK' if snapshot.healthy else 'BREACHED'}",
        "",
        f"{'slo':<16} {'status':<8} {'value':>12} {'objective':>18} "
        f"{'burn s/l':>12}",
    ]
    for slo in snapshot.slos:
        objective = f"{slo.stat} {slo.op} {_format_value(slo.target)}"
        lines.append(
            f"{slo.name:<16} {slo.status:<8} {_format_value(slo.value):>12} "
            f"{objective:>18} "
            f"{slo.burn_short:>5.1f}/{slo.burn_long:<5.1f}"
        )
    if snapshot.drift:
        lines += [
            "",
            f"{'drift monitor':<20} {'status':<8} {'psi':>8} {'ks':>8} "
            f"{'mean z':>8} {'var x':>8} {'n':>6}",
        ]
        for result in snapshot.drift:
            def cell(value: float) -> str:
                if math.isnan(value):
                    return "-"
                if math.isinf(value):
                    return "inf"
                return f"{value:.3f}"

            lines.append(
                f"{result.name:<20} {result.status:<8} {cell(result.psi):>8} "
                f"{cell(result.ks):>8} {cell(result.mean_zscore):>8} "
                f"{cell(result.var_ratio):>8} {result.live_samples:>6}"
            )
    breached = snapshot.breached()
    if breached:
        lines += ["", "breached: " + ", ".join(breached)]
    return "\n".join(lines)
