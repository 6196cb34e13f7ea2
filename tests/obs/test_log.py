"""Structured logging: schema, levels, deterministic clock."""

import io
import json

import pytest

from repro.obs.log import StructuredLogger, get_logger, log_context


def emit(stream, min_level="info", clock=None, action=None):
    with log_context(stream=stream, min_level=min_level, clock=clock):
        action(get_logger("repro.test"))


class TestSchema:
    def test_record_shape(self):
        stream = io.StringIO()
        emit(
            stream,
            clock=lambda: 1234.5,
            action=lambda log: log.info("epoch", epoch=3, loss=0.25),
        )
        record = json.loads(stream.getvalue())
        assert record == {
            "ts": 1234.5,
            "level": "info",
            "event": "epoch",
            "logger": "repro.test",
            "tags": {"epoch": 3, "loss": 0.25},
        }

    def test_one_json_object_per_line(self):
        stream = io.StringIO()

        def action(log):
            log.info("a")
            log.warning("b", detail="x")

        emit(stream, action=action)
        lines = stream.getvalue().strip().splitlines()
        assert [json.loads(line)["event"] for line in lines] == ["a", "b"]

    def test_numpy_scalars_serialize(self):
        import numpy as np

        stream = io.StringIO()
        emit(stream, action=lambda log: log.info("x", value=np.float64(1.5)))
        assert json.loads(stream.getvalue())["tags"]["value"] == 1.5


    def test_non_finite_tags_are_strict_json_null(self, strict_loads):
        import numpy as np

        stream = io.StringIO()
        emit(
            stream,
            action=lambda log: log.info(
                "epoch",
                loss=float("inf"),
                grad_norm=np.float32("nan"),
                history=[1.0, float("nan")],
            ),
        )
        tags = strict_loads(stream.getvalue())["tags"]
        assert tags == {"loss": None, "grad_norm": None, "history": [1.0, None]}


class TestLevels:
    def test_below_threshold_suppressed(self):
        stream = io.StringIO()

        def action(log):
            log.debug("hidden")
            log.info("shown")

        emit(stream, min_level="info", action=action)
        lines = stream.getvalue().strip().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["event"] == "shown"

    def test_error_always_passes_info_threshold(self):
        stream = io.StringIO()
        emit(stream, action=lambda log: log.error("bad", code=7))
        assert json.loads(stream.getvalue())["level"] == "error"

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError, match="unknown level"):
            with log_context(min_level="loud"):
                pass


class TestLoggerCache:
    def test_get_logger_is_shared(self):
        assert get_logger("repro.same") is get_logger("repro.same")

    def test_default_sink_is_stderr(self, capsys):
        with log_context(clock=lambda: 0.0):
            get_logger("repro.test").info("to_stderr")
        captured = capsys.readouterr()
        assert "to_stderr" in captured.err
        assert captured.out == ""


class TestTraceCorrelation:
    def test_traced_span_ids_injected(self):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.trace import Tracer, span, use_tracer

        registry = MetricsRegistry()
        stream = io.StringIO()
        with log_context(stream=stream, clock=lambda: 0.0):
            with use_tracer(Tracer()):
                with span("repro_test_root", registry=registry) as root:
                    get_logger("repro.test").info("inside")
        record = json.loads(stream.getvalue())
        assert record["trace_id"] == root.trace_id
        assert record["span_id"] == root.span_id

    def test_no_ids_without_open_span(self):
        stream = io.StringIO()
        emit(stream, action=lambda log: log.info("outside"))
        record = json.loads(stream.getvalue())
        assert "trace_id" not in record and "span_id" not in record

    def test_no_ids_for_untraced_span(self):
        from repro.obs.registry import MetricsRegistry
        from repro.obs.trace import span

        registry = MetricsRegistry()
        stream = io.StringIO()
        with log_context(stream=stream, clock=lambda: 0.0):
            with span("repro_test_root", registry=registry):
                get_logger("repro.test").info("inside")
        record = json.loads(stream.getvalue())
        assert "trace_id" not in record


class TestContextRestores:
    def test_nested_contexts(self):
        outer, inner = io.StringIO(), io.StringIO()
        log = StructuredLogger("repro.test")
        with log_context(stream=outer):
            with log_context(stream=inner):
                log.info("inner_event")
            log.info("outer_event")
        assert "inner_event" in inner.getvalue()
        assert "inner_event" not in outer.getvalue()
        assert "outer_event" in outer.getvalue()
