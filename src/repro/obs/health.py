"""SLO health: declarative objectives, one verdict per snapshot.

The serving arc needs a single question answered: *is the system
healthy right now?*  This module turns the registry's raw telemetry
into that verdict:

* :class:`SLOSpec` — one declarative objective over a snapshot metric
  (``rank p99 <= 10ms``, ``cache hit-rate >= 0.9``, ``score drift
  verdict >= 1``).  A spec names the metric family, an optional tag
  filter, the statistic to read (``value`` for counters/gauges,
  ``p50``/``p95``/``p99``/``mean``/``max`` for histograms), a
  comparison and a target.
* :func:`evaluate` — judges a spec set against one registry snapshot
  and folds the per-spec :class:`SLOStatus` rows into a
  :class:`HealthSnapshot`, which exports as ``repro_health_*`` gauges,
  JSON, or a text table.

Judging is a pure function of ``(specs, snapshot)``: nothing is
remembered from one evaluation to the next, so the same snapshot
always gets the same verdict — whether ``loadgen`` judged it at the
end of its run or ``repro-events health`` read it back from the
telemetry file.  Each spec is ``ok`` or ``breach`` by its one value.
A spec whose metric is absent from the snapshot reports ``"missing"``
and makes the snapshot unhealthy: an SLO you cannot measure is not
being met.  Drift monitors are judged the same way as everything
else, through the ``repro_drift_ok`` gauge they export.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.obs.registry import MetricsRegistry

__all__ = [
    "SLOSpec",
    "SLOStatus",
    "HealthSnapshot",
    "evaluate",
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
    description: str = ""

    def __post_init__(self) -> None:
        if self.op not in _OPS:
            raise ValueError(f"op must be one of {_OPS}, got {self.op!r}")
        if self.stat not in _STATS:
            raise ValueError(
                f"stat must be one of {_STATS}, got {self.stat!r}"
            )

    def met_by(self, value: float) -> bool:
        if self.op == "<=":
            return value <= self.target
        return value >= self.target


def default_serving_slos() -> tuple[SLOSpec, ...]:
    """The serving path's stock objectives.

    Evaluated against a snapshot taken after a load run: end-to-end
    rank p99 from the load report gauges, cache hit-rate from the
    cache collector, and the drift *verdict* gauge of each of the
    service's three monitors (served scores, candidate-pool sizes,
    user-vector norms).  The verdict (``repro_drift_ok``) is used
    rather than raw PSI because the monitor applies sampling-noise
    floors the raw statistic does not carry — a fixed 0.2 threshold
    over small windows flags pure sampling noise.
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
    ) + tuple(
        SLOSpec(
            name=name,
            metric="repro_drift_ok",
            tags={"monitor": monitor},
            op=">=",
            target=1.0,
            description=description,
        )
        for name, monitor, description in (
            ("score_drift_ok", "serving_scores",
             "served-score drift verdict healthy"),
            ("candidate_drift_ok", "serving_candidates",
             "candidate-pool-size drift verdict healthy"),
            ("user_norm_drift_ok", "serving_user_norms",
             "user-vector-norm drift verdict healthy"),
        )
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


@dataclass(frozen=True)
class SLOStatus:
    """One SLO's verdict: ``ok``, ``breach`` or ``missing``."""

    name: str
    metric: str
    stat: str
    op: str
    target: float
    value: float | None
    status: str
    description: str = ""

    @property
    def healthy(self) -> bool:
        return self.status == "ok"

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "metric": self.metric,
            "stat": self.stat,
            "op": self.op,
            "target": self.target,
            "value": self.value,
            "status": self.status,
            "description": self.description,
        }


@dataclass(frozen=True)
class HealthSnapshot:
    """The aggregated verdict: healthy only if every SLO is ``ok``."""

    healthy: bool
    slos: tuple[SLOStatus, ...]

    def breached(self) -> list[str]:
        """Names of every SLO that is not ``ok``, in spec order."""
        return [slo.name for slo in self.slos if not slo.healthy]

    def as_dict(self) -> dict[str, Any]:
        return {
            "healthy": self.healthy,
            "breached": self.breached(),
            "slos": [slo.as_dict() for slo in self.slos],
        }

    def export(self, registry: MetricsRegistry) -> None:
        """Write the verdict back as ``repro_health_*`` gauges."""
        registry.gauge("repro_health_ok").set(1.0 if self.healthy else 0.0)
        for slo in self.slos:
            tags = {"slo": slo.name}
            registry.gauge("repro_health_slo_ok", tags=tags).set(
                1.0 if slo.healthy else 0.0
            )
            if slo.value is not None:
                registry.gauge("repro_health_slo_value", tags=tags).set(
                    slo.value
                )


def evaluate(
    specs: Iterable[SLOSpec], snapshot: Sequence[Mapping[str, Any]]
) -> HealthSnapshot:
    """Judge ``specs`` against one registry snapshot."""
    specs = tuple(specs)
    if not specs:
        raise ValueError("health evaluation needs at least one SLO")
    statuses: list[SLOStatus] = []
    for spec in specs:
        record = _lookup(snapshot, spec)
        value = _extract(record, spec.stat) if record is not None else None
        if value is None or math.isnan(value):
            value, state = None, "missing"
        else:
            state = "ok" if spec.met_by(value) else "breach"
        statuses.append(
            SLOStatus(
                name=spec.name,
                metric=spec.metric,
                stat=spec.stat,
                op=spec.op,
                target=spec.target,
                value=value,
                status=state,
                description=spec.description,
            )
        )
    return HealthSnapshot(
        healthy=all(status.healthy for status in statuses),
        slos=tuple(statuses),
    )


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
        f"{'slo':<18} {'status':<8} {'value':>12} {'objective':>18}",
    ]
    for slo in snapshot.slos:
        objective = f"{slo.stat} {slo.op} {_format_value(slo.target)}"
        lines.append(
            f"{slo.name:<18} {slo.status:<8} {_format_value(slo.value):>12} "
            f"{objective:>18}"
        )
    breached = snapshot.breached()
    if breached:
        lines += ["", "breached: " + ", ".join(breached)]
    return "\n".join(lines)
