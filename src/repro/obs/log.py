"""Structured logging: JSON-lines records with a fixed schema.

Every record is one JSON object per line::

    {"ts": 1722945600.123, "level": "info", "event": "epoch",
     "logger": "repro.core.trainer", "tags": {"epoch": 3, "loss": 0.41}}

``ts`` is a Unix timestamp, ``level`` one of debug/info/warning/error,
``event`` a stable machine-matchable name (not prose), ``tags`` the
event payload.  Free-form messages go in ``tags={"message": ...}`` if
needed; keeping the schema closed is what makes benchmark telemetry
and production logs greppable with the same four keys.

When the record is emitted inside a traced span (a
:class:`~repro.obs.trace.Tracer` is installed and a span is open),
top-level ``trace_id`` and ``span_id`` keys are injected
automatically, so log lines correlate with exported traces without
call sites threading ids around.

Loggers resolve their sink and threshold from a module-global
configuration at *emit* time, so tests can capture stderr and a CLI
flag can redirect the whole process to a file without threading a
logger object through every layer.  ``configure(clock=...)`` injects a
deterministic clock for golden tests.
"""

from __future__ import annotations

import sys
import threading
import time
from collections.abc import Callable
from typing import IO, Any

from repro.obs.export import json_line
from repro.obs.trace import current_ids

__all__ = ["LEVELS", "StructuredLogger", "configure", "get_logger", "log_context"]

LEVELS: dict[str, int] = {"debug": 10, "info": 20, "warning": 30, "error": 40}


class _LogConfig:
    def __init__(self) -> None:
        self.stream: IO[str] | None = None  # None → sys.stderr at emit time
        self.min_level = "info"
        self.clock: Callable[[], float] | None = None

    def resolve_stream(self) -> IO[str]:
        return self.stream if self.stream is not None else sys.stderr


_CONFIG = _LogConfig()
_LOCK = threading.Lock()


def configure(
    stream: IO[str] | None = None,
    min_level: str | None = None,
    clock: Callable[[], float] | None = None,
) -> None:
    """Set global sink / threshold / clock; ``None`` leaves it as is."""
    if min_level is not None and min_level not in LEVELS:
        raise ValueError(f"unknown level {min_level!r}; expected one of {sorted(LEVELS)}")
    with _LOCK:
        if stream is not None:
            _CONFIG.stream = stream
        if min_level is not None:
            _CONFIG.min_level = min_level
        if clock is not None:
            _CONFIG.clock = clock


class log_context:
    """Scoped :func:`configure`: restores the previous config on exit."""

    def __init__(
        self,
        stream: IO[str] | None = None,
        min_level: str | None = None,
        clock: Callable[[], float] | None = None,
    ) -> None:
        self._overrides = (stream, min_level, clock)
        self._saved: _LogConfig | None = None

    def __enter__(self) -> "log_context":
        global _CONFIG
        self._saved = _CONFIG
        replacement = _LogConfig()
        replacement.stream = _CONFIG.stream
        replacement.min_level = _CONFIG.min_level
        replacement.clock = _CONFIG.clock
        _CONFIG = replacement
        configure(*self._overrides)
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _CONFIG
        if self._saved is not None:
            _CONFIG = self._saved


def _default_json(value: Any) -> Any:
    # numpy scalars and other numerics that json.dumps rejects
    for attribute in ("item",):
        method = getattr(value, attribute, None)
        if callable(method):
            return method()
    return str(value)


class StructuredLogger:
    """Named emitter of schema-fixed JSONL records."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, event: str, **tags: Any) -> None:
        if LEVELS[level] < LEVELS[_CONFIG.min_level]:
            return
        record = {
            "ts": (_CONFIG.clock or time.time)(),
            "level": level,
            "event": event,
            "logger": self.name,
            "tags": tags,
        }
        ids = current_ids()
        if ids is not None:
            record["trace_id"], record["span_id"] = ids
        line = json_line(record, default=_default_json)
        stream = _CONFIG.resolve_stream()
        stream.write(line + "\n")

    def debug(self, event: str, **tags: Any) -> None:
        self.log("debug", event, **tags)

    def info(self, event: str, **tags: Any) -> None:
        self.log("info", event, **tags)

    def warning(self, event: str, **tags: Any) -> None:
        self.log("warning", event, **tags)

    def error(self, event: str, **tags: Any) -> None:
        self.log("error", event, **tags)


_LOGGERS: dict[str, StructuredLogger] = {}


def get_logger(name: str) -> StructuredLogger:
    """Shared logger instance for ``name`` (usually ``__name__``)."""
    logger = _LOGGERS.get(name)
    if logger is None:
        logger = _LOGGERS.setdefault(name, StructuredLogger(name))
    return logger
