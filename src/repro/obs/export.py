"""Exporters: JSONL telemetry files and Prometheus text format.

Two complementary formats over the same snapshot records (see
:meth:`~repro.obs.registry.MetricsRegistry.snapshot`):

* **JSONL telemetry** — an append-only file mixing event records
  (per-epoch training stats, per-benchmark timings) with full
  ``{"record": "snapshot"}`` metric dumps.  This is what
  ``--metrics-out`` and the benchmark harness write; one file tells
  the whole story of a run.
* **Prometheus text format** — the scrape-able rendering used by the
  ``repro-events metrics`` CLI command; counters and gauges map
  directly, histograms emit ``_bucket``/``_sum``/``_count`` series
  plus ``_p50``/``_p95``/``_p99`` gauges from the streaming
  estimators.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from pathlib import Path
from typing import IO, Any

from repro.obs.registry import MetricsRegistry

__all__ = [
    "json_line",
    "render_prometheus",
    "snapshot_record",
    "TelemetryWriter",
    "read_telemetry",
    "last_snapshot",
]


def _finite(value: Any) -> Any:
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(item) for item in value]
    return value


def json_line(record: Any, default: Callable[[Any], Any] = str) -> str:
    """``record`` as one line of *strict* JSON, keys sorted.

    ``json.dumps`` writes non-finite floats as bare ``NaN`` /
    ``Infinity``, which strict parsers reject; a diverged training run
    produces exactly those (loss and gradient-norm gauges).  They
    become ``null`` here, as the registry snapshot already does for
    unset quantiles — including values ``default`` converts (numpy
    scalars).  Every JSONL writer of this package goes through here.
    """
    return json.dumps(
        _finite(record),
        sort_keys=True,
        default=lambda value: _finite(default(value)),
        allow_nan=False,
    )


def _format_value(value: float | str | None) -> str:
    if isinstance(value, str):  # pre-rendered bound, e.g. "+Inf"
        return value
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

    A bucket's exemplar (a trace id, resolved with
    :meth:`repro.obs.trace.Tracer.find`) stays in the snapshot record:
    the OpenMetrics ``# {trace_id=...}`` suffix is an extension strict
    Prometheus text-format parsers may reject.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for record in snapshot:
        name = record["name"]
        tags = record.get("tags", {})
        kind = record["type"]
        if kind in ("counter", "gauge"):
            if name not in seen_types:
                lines.append(f"# TYPE {name} {kind}")
                seen_types.add(name)
            lines.append(f"{name}{_labels(tags)} {_format_value(record['value'])}")
            continue
        # histogram
        if name not in seen_types:
            lines.append(f"# TYPE {name} histogram")
            seen_types.add(name)
        for le, cumulative in record["buckets"]:
            lines.append(
                f"{name}_bucket{_labels(tags, {'le': _format_value(le)})} {cumulative}"
            )
        lines.append(f"{name}_sum{_labels(tags)} {_format_value(record['sum'])}")
        lines.append(f"{name}_count{_labels(tags)} {record['count']}")
        for label, value in sorted(record.get("quantiles", {}).items()):
            if value is None:
                continue
            quantile_name = f"{name}_{label}"
            if quantile_name not in seen_types:
                lines.append(f"# TYPE {quantile_name} gauge")
                seen_types.add(quantile_name)
            lines.append(f"{quantile_name}{_labels(tags)} {_format_value(value)}")
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


def read_telemetry(path: str | Path) -> list[dict]:
    """Parse every record of a JSONL telemetry file."""
    records: list[dict] = []
    with Path(path).open("r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


def last_snapshot(path: str | Path) -> list[dict]:
    """The metric records of the final snapshot in a telemetry file.

    Raises ``ValueError`` when the file holds no snapshot record, which
    is what the ``metrics`` CLI command surfaces as a user error.
    """
    snapshot: list[dict] | None = None
    for record in read_telemetry(path):
        if record.get("record") == "snapshot":
            snapshot = record.get("metrics", [])
    if snapshot is None:
        raise ValueError(f"no snapshot record in telemetry file {path}")
    return snapshot
