"""Tracing: propagation, tail sampling, trace assembly, JSONL export."""

import json
import threading
import time

import pytest

from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import (
    _MAX_SPANS_PER_TRACE,
    SpanRecord,
    TailSampler,
    Trace,
    Tracer,
    active,
    current_span,
    new_span_id,
    new_trace_id,
    record_stage,
    span,
    trace_to_record,
    use_tracer,
    write_trace_jsonl,
)


def make_record(
    name="repro_test_stage",
    trace_id="t1",
    span_id=None,
    parent_id=None,
    seconds=1.0,
    cpu_seconds=0.0,
    ts=0.0,
):
    return SpanRecord(
        name=name,
        trace_id=trace_id,
        span_id=span_id if span_id is not None else new_span_id(),
        parent_id=parent_id,
        path=name,
        depth=0 if parent_id is None else 1,
        ts=ts,
        seconds=seconds,
        cpu_seconds=cpu_seconds,
        tags={},
        thread=0,
    )


def make_trace(trace_id, seconds, root_name="repro_test_root"):
    root = make_record(name=root_name, trace_id=trace_id, seconds=seconds)
    return Trace(
        trace_id=trace_id, root_name=root_name, seconds=seconds, spans=(root,)
    )


class TestIds:
    def test_shapes_and_uniqueness(self):
        trace_ids = {new_trace_id() for _ in range(50)}
        span_ids = {new_span_id() for _ in range(50)}
        assert len(trace_ids) == 50 and len(span_ids) == 50
        assert all(len(t) == 16 for t in trace_ids)
        assert all(len(s) == 8 for s in span_ids)


class TestInstallation:
    def test_off_by_default(self):
        assert not active()
        with span("repro_test_root", registry=MetricsRegistry()) as opened:
            pass
        assert opened.trace_id is None

    def test_use_tracer_installs_and_restores(self):
        with use_tracer(Tracer()) as tracer:
            assert active()
            with span("repro_test_root", registry=MetricsRegistry()):
                pass
            assert tracer.finished == 1
        assert not active()

    def test_current_span_none_without_span(self):
        assert current_span() is None


class TestPropagation:
    def test_nested_spans_share_trace_and_chain_parents(self):
        registry = MetricsRegistry()
        with use_tracer(Tracer()) as tracer:
            with span("repro_test_root", registry=registry) as root:
                with span("repro_test_child", registry=registry) as child:
                    assert child.trace_id == root.trace_id
                    assert child.parent_id == root.span_id
                    assert current_span() is child
        traces = tracer.traces()
        assert len(traces) == 1
        assert {r.name for r in traces[0].spans} == {
            "repro_test_root",
            "repro_test_child",
        }

    def test_sibling_roots_get_distinct_traces(self):
        registry = MetricsRegistry()
        with use_tracer(Tracer()) as tracer:
            with span("repro_test_root", registry=registry):
                pass
            with span("repro_test_root", registry=registry):
                pass
        ids = {t.trace_id for t in tracer.traces()}
        assert len(ids) == 2
        assert tracer.finished == 2

    def test_untraced_spans_carry_no_ids(self):
        registry = MetricsRegistry()
        with span("repro_test_root", registry=registry) as opened:
            assert current_span() is None
        assert opened.trace_id is None

    def test_new_thread_does_not_inherit_current_span(self):
        registry = MetricsRegistry()
        seen: dict[str, object] = {}

        def worker():
            seen["current"] = current_span()
            with span("repro_test_other", registry=registry) as inner:
                seen["parent"] = inner.parent_id

        with use_tracer(Tracer()):
            with span("repro_test_root", registry=registry):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        assert seen["current"] is None, "fresh thread starts with no span"
        assert seen["parent"] is None, "thread span is its own root"


class TestTailSampler:
    def test_keeps_the_n_slowest(self):
        sampler = TailSampler(keep_slowest=2)
        for index, seconds in enumerate((0.1, 0.5, 0.2, 0.9, 0.05)):
            sampler.offer(make_trace(f"t{index}", seconds))
        assert [t.seconds for t in sampler.traces()] == [0.9, 0.5]
        assert sampler.offered == 5

    def test_offer_reports_retention(self):
        sampler = TailSampler(keep_slowest=1)
        assert sampler.offer(make_trace("a", 0.2))
        assert not sampler.offer(make_trace("b", 0.1))
        assert sampler.offer(make_trace("c", 0.3))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"keep_slowest": -1},
        ],
    )
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TailSampler(**kwargs)


class TestTracer:
    def test_root_finish_assembles_trace(self):
        tracer = Tracer(TailSampler(keep_slowest=4))
        child = make_record(
            name="repro_test_child", parent_id="root-span", seconds=0.3
        )
        root = make_record(
            name="repro_test_root", span_id="root-span", seconds=1.0
        )
        tracer.on_span_finish(child, root=False)
        tracer.on_span_finish(root, root=True)
        (trace,) = tracer.traces()
        assert trace.trace_id == "t1"
        assert trace.root_name == "repro_test_root"
        assert len(trace.spans) == 2

    def test_span_cap_drops_excess_children(self):
        tracer = Tracer(TailSampler(keep_slowest=4))
        for _ in range(_MAX_SPANS_PER_TRACE + 2):
            tracer.on_span_finish(
                make_record(parent_id="root-span", seconds=0.1), root=False
            )
        tracer.on_span_finish(
            make_record(
                name="repro_test_root", span_id="root-span", seconds=1.0
            ),
            root=True,
        )
        (trace,) = tracer.traces()
        assert trace.dropped_spans == 2
        assert tracer.dropped_spans_total == 2

    def test_attribution_self_time_and_share(self):
        """A retained trace is all a reader needs to attribute time:
        from parent ids and durations, each stage's self time (its
        duration minus its children's) and its share of the root follow
        exactly (every input is an exact binary fraction)."""
        tracer = Tracer(TailSampler(keep_slowest=4))
        tracer.on_span_finish(
            make_record(
                name="repro_test_child",
                parent_id="root-span",
                seconds=0.75,
                cpu_seconds=0.5,
            ),
            root=False,
        )
        tracer.on_span_finish(
            make_record(
                name="repro_test_root",
                span_id="root-span",
                seconds=1.0,
                cpu_seconds=0.625,
            ),
            root=True,
        )
        (trace,) = tracer.traces()
        children: dict[str, float] = {}
        for record in trace.spans:
            if record.parent_id is not None:
                children[record.parent_id] = (
                    children.get(record.parent_id, 0.0) + record.seconds
                )
        self_seconds = {
            record.name: record.seconds - children.get(record.span_id, 0.0)
            for record in trace.spans
        }
        assert self_seconds == {"repro_test_child": 0.75, "repro_test_root": 0.25}
        assert {name: value / trace.seconds for name, value in self_seconds.items()} == {
            "repro_test_child": 0.75,
            "repro_test_root": 0.25,
        }
        assert [record.cpu_seconds for record in trace.spans] == [0.5, 0.625]


class TestRecordStage:
    def test_becomes_synthetic_child_of_current_span(self):
        """Nested under a child span, the lock wait lands in the one
        retained trace as that child's child, with the measured
        duration and the nesting's paths and depths."""
        registry = MetricsRegistry()
        with use_registry(registry):
            with use_tracer(Tracer()) as tracer:
                with span("repro_test_root", registry=registry):
                    with span("repro_test_child", registry=registry):
                        record_stage("repro_test_wait", 0.004)
        (trace,) = tracer.traces()
        root = trace.span_named("repro_test_root")
        child = trace.span_named("repro_test_child")
        stage = trace.span_named("repro_test_wait")
        assert stage is not None
        assert stage.seconds == 0.004
        assert stage.cpu_seconds == 0.0
        assert root.parent_id is None and trace.seconds == root.seconds
        assert child.parent_id == root.span_id
        assert stage.parent_id == child.span_id
        assert stage.path == "repro_test_root/repro_test_child/repro_test_wait"
        assert (root.depth, child.depth, stage.depth) == (0, 1, 2)
        assert root.seconds >= child.seconds
        assert registry.histogram("repro_test_wait_seconds").count == 1

    def test_histogram_only_without_tracer(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            record_stage("repro_test_wait", 0.004)
        assert registry.histogram("repro_test_wait_seconds").count == 1


class TestExports:
    def build_traces(self):
        registry = MetricsRegistry()
        with use_tracer(Tracer()) as tracer:
            with span("repro_test_root", registry=registry):
                with span("repro_test_child", registry=registry):
                    pass
        return tracer.traces()

    def test_jsonl_roundtrip(self, tmp_path):
        traces = self.build_traces()
        path = tmp_path / "traces.jsonl"
        assert write_trace_jsonl(traces, path) == len(traces)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert records == [trace_to_record(t) for t in traces]
        assert records[0]["record"] == "trace"
        assert {s["name"] for s in records[0]["spans"]} == {
            "repro_test_root",
            "repro_test_child",
        }

    def test_jsonl_is_strict_json_for_non_finite_values(
        self, tmp_path, strict_loads
    ):
        root = make_record(seconds=float("inf"), cpu_seconds=float("nan"))
        trace = Trace("t1", root.name, root.seconds, (root,))
        path = tmp_path / "traces.jsonl"
        write_trace_jsonl([trace], path)
        (record,) = map(strict_loads, path.read_text().splitlines())
        assert record["seconds"] == "+Inf"
        assert record["spans"][0]["cpu_seconds"] is None


class TestSlowestTrace:
    def test_histogram_max_is_the_first_retained_trace(self):
        """The slowest request, the histogram's ``max``, is the trace a
        keep-slowest sampler lists first — the first record
        ``serve --trace-out`` writes."""
        registry = MetricsRegistry()
        with use_registry(registry):
            with use_tracer(Tracer(TailSampler(keep_slowest=4))) as tracer:
                for index in range(20):
                    with span("repro_test_rank", registry=registry):
                        if index == 7:
                            time.sleep(0.02)
        histogram = registry.histogram("repro_test_rank_seconds")
        slowest = tracer.traces()[0]
        assert slowest.seconds == histogram.max
        assert slowest.span_named("repro_test_rank") is not None
