"""Exporters: JSONL telemetry files and Prometheus text format.

Two complementary formats over the same snapshot records (see
:meth:`~repro.obs.registry.MetricsRegistry.snapshot`):

* **JSONL telemetry** — an append-only file mixing event records
  (per-epoch training stats, per-benchmark timings) with full
  ``{"record": "snapshot"}`` metric dumps.  This is what
  ``--metrics-out`` and the benchmark harness write; one file tells
  the whole story of a run.  :func:`last_snapshot` reads its final
  dump back as the live registry's ``snapshot()`` returned it.
* **Prometheus text format** — the scrape-able rendering used by the
  ``repro-events metrics`` CLI command; counters and gauges map
  directly, and a histogram is one ``summary`` family: its sketch's
  ``{quantile="0.5"|"0.95"|"0.99"}`` samples plus ``_sum`` and
  ``_count``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import IO, Any

from repro.obs.registry import MetricsRegistry

__all__ = [
    "json_line",
    "render_prometheus",
    "snapshot_record",
    "TelemetryWriter",
    "last_snapshot",
]


_INFINITIES = {"+Inf": math.inf, "-Inf": -math.inf}
# The fields each metric type's snapshot record carries (and its readers use).
_FIELDS = {
    "counter": ("value",),
    "gauge": ("value",),
    "histogram": ("count", "sum", "min", "max", "quantiles"),
}


def _strict(value: Any) -> Any:
    if isinstance(value, float) and not math.isfinite(value):
        if math.isnan(value):
            return None
        return "+Inf" if value > 0 else "-Inf"
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(item) for item in value]
    return value


def json_line(record: Any) -> str:
    """``record`` as one line of *strict* JSON, keys sorted.

    ``json.dumps`` writes non-finite floats as bare ``NaN`` /
    ``Infinity``, which strict parsers reject.  Here NaN becomes
    ``null``, as the registry snapshot already writes unset quantiles,
    and ±inf the strings ``"+Inf"``/``"-Inf"`` (Prometheus's spelling),
    which :func:`last_snapshot` reads back as floats.  Anything else
    JSON has no type for is written as its ``str``.  Every JSON line
    this package writes goes through here.
    """
    return json.dumps(_strict(record), sort_keys=True, default=str, allow_nan=False)


def _format_value(value: float | None) -> str:
    if value is None or value != value:  # NaN (``null`` in a telemetry file)
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels(tags: dict, extra: dict | None = None) -> str:
    merged = dict(tags)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(str(value))}"' for key, value in sorted(merged.items())
    )
    return "{" + body + "}"


def render_prometheus(snapshot: list[dict]) -> str:
    """Render snapshot records in the Prometheus exposition format.

    A histogram becomes a ``summary``: one sample per sketch quantile
    (``quantile="0.99"`` from the record's ``"p99"``; ``NaN`` while
    empty), then ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for record in snapshot:
        name = record["name"]
        tags = record.get("tags", {})
        kind = "summary" if record["type"] == "histogram" else record["type"]
        if name not in seen_types:
            lines.append(f"# TYPE {name} {kind}")
            seen_types.add(name)
        if kind != "summary":
            lines.append(f"{name}{_labels(tags)} {_format_value(record['value'])}")
            continue
        for label, value in record["quantiles"].items():  # "p50" -> 0.5
            quantile = {"quantile": _format_value(float(label[1:]) / 100)}
            lines.append(f"{name}{_labels(tags, quantile)} {_format_value(value)}")
        lines.append(f"{name}_sum{_labels(tags)} {_format_value(record['sum'])}")
        lines.append(f"{name}_count{_labels(tags)} {record['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


def snapshot_record(registry: MetricsRegistry, **meta: Any) -> dict:
    """A full metrics dump as one JSONL-able record."""
    record: dict = {"record": "snapshot", "metrics": registry.snapshot()}
    if meta:
        record["meta"] = meta
    return record


class TelemetryWriter:
    """Append-only JSONL telemetry file.

    Usage::

        writer = TelemetryWriter(path)
        writer.write({"record": "epoch", "epoch": 1, "train_loss": 0.6})
        writer.write_snapshot(registry, run="train")
        writer.close()
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._handle: IO[str] | None = self.path.open("w", encoding="utf-8")

    def write(self, record: dict) -> None:
        if self._handle is None:
            raise RuntimeError("telemetry writer is closed")
        self._handle.write(json_line(record) + "\n")
        self._handle.flush()

    def write_snapshot(self, registry: MetricsRegistry, **meta: Any) -> None:
        self.write(snapshot_record(registry, **meta))

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "TelemetryWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _read_metric(metric: Any, where: str) -> dict:
    """One snapshot metric record, checked, with an infinite counter or
    gauge value restored (a histogram drops non-finite observations)."""
    if not (
        isinstance(metric, dict)
        and isinstance(metric.get("name"), str)
        and metric.get("type") in _FIELDS
    ):
        raise ValueError(
            f"{where}: a metric must be an object with a string name and a "
            f"type in {tuple(_FIELDS)}"
        )
    kind, name = metric["type"], metric["name"]
    missing = [key for key in _FIELDS[kind] if key not in metric]
    if missing:
        raise ValueError(f"{where}: {kind} {name!r} has no {', '.join(missing)}")
    if kind == "histogram" and not isinstance(metric["quantiles"], dict):
        raise ValueError(f"{where}: histogram {name!r} quantiles must be an object")
    value = metric.get("value")
    if isinstance(value, str) and value in _INFINITIES:
        metric = {**metric, "value": _INFINITIES[value]}
    return metric


def last_snapshot(path: str | Path) -> list[dict]:
    """The metric records of the final snapshot in a telemetry file.

    Raises ``ValueError`` naming the file (and line) when the file
    holds no snapshot record, a line that is not a JSON object, or a
    snapshot whose ``metrics`` is not a list of metric records, each
    with its type's fields — what the ``metrics`` and ``health`` CLI
    commands surface as a user error.
    """
    snapshot: list[dict] | None = None
    with Path(path).open("r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            where = f"{path}:{number}"
            if not isinstance(record, dict):
                raise ValueError(f"{where}: not a JSON object")
            if record.get("record") != "snapshot":
                continue
            metrics = record.get("metrics")
            if not isinstance(metrics, list):
                raise ValueError(f"{where}: snapshot metrics must be a list")
            snapshot = [_read_metric(metric, where) for metric in metrics]
    if snapshot is None:
        raise ValueError(f"no snapshot record in telemetry file {path}")
    return snapshot
