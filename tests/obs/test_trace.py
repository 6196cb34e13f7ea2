"""Tracing: propagation, tail sampling, attribution, exports."""

import json
import threading
import time

import pytest

from repro.obs.registry import MetricsRegistry, use_registry
from repro.obs.trace import (
    _MAX_SAMPLED,
    _MAX_SPANS_PER_TRACE,
    SpanRecord,
    TailSampler,
    Trace,
    Tracer,
    active,
    chrome_trace_events,
    current_ids,
    format_attribution,
    get_tracer,
    new_span_id,
    new_trace_id,
    record_stage,
    span,
    trace_to_record,
    use_tracer,
    write_chrome_trace,
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
        assert get_tracer() is None

    def test_use_tracer_installs_and_restores(self):
        with use_tracer(Tracer()) as tracer:
            assert active()
            assert get_tracer() is tracer
        assert not active()

    def test_current_ids_none_without_span(self):
        assert current_ids() is None


class TestPropagation:
    def test_nested_spans_share_trace_and_chain_parents(self):
        registry = MetricsRegistry()
        with use_tracer(Tracer()) as tracer:
            with span("repro_test_root", registry=registry) as root:
                with span("repro_test_child", registry=registry) as child:
                    assert child.trace_id == root.trace_id
                    assert child.parent_id == root.span_id
                    assert current_ids() == (child.trace_id, child.span_id)
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
            assert current_ids() is None
        assert opened.trace_id is None

    def test_new_thread_does_not_inherit_current_span(self):
        registry = MetricsRegistry()
        seen: dict[str, object] = {}

        def worker():
            seen["ids"] = current_ids()
            with span("repro_test_other", registry=registry) as inner:
                seen["parent"] = inner.parent_id

        with use_tracer(Tracer()):
            with span("repro_test_root", registry=registry):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join()
        assert seen["ids"] is None, "fresh thread starts with no span"
        assert seen["parent"] is None, "thread span is its own root"


class TestTailSampler:
    def test_keeps_the_n_slowest(self):
        sampler = TailSampler(keep_slowest=2)
        for index, seconds in enumerate((0.1, 0.5, 0.2, 0.9, 0.05)):
            sampler.offer(make_trace(f"t{index}", seconds))
        assert [t.seconds for t in sampler.slowest] == [0.9, 0.5]
        assert sampler.offered == 5

    def test_offer_reports_retention(self):
        sampler = TailSampler(keep_slowest=1)
        assert sampler.offer(make_trace("a", 0.2))
        assert not sampler.offer(make_trace("b", 0.1))
        assert sampler.offer(make_trace("c", 0.3))

    def test_uniform_sample_is_bounded(self):
        sampler = TailSampler(keep_slowest=0, sample_fraction=1.0)
        for index in range(_MAX_SAMPLED + 7):
            sampler.offer(make_trace(f"t{index}", 0.1))
        assert len(sampler.sampled) == _MAX_SAMPLED
        assert sampler.sample_overflow == 7

    def test_sampling_is_seeded(self):
        def kept(seed):
            sampler = TailSampler(keep_slowest=0, sample_fraction=0.5, seed=seed)
            return [
                sampler.offer(make_trace(f"t{i}", 0.1)) for i in range(32)
            ]

        assert kept(3) == kept(3)

    def test_find_resolves_retained_ids_only(self):
        sampler = TailSampler(keep_slowest=1)
        sampler.offer(make_trace("fast", 0.1))
        sampler.offer(make_trace("slow", 0.9))
        assert sampler.find("slow") is not None
        assert sampler.find("fast") is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"keep_slowest": -1},
            {"sample_fraction": 1.5},
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
        trace = tracer.find("t1")
        assert trace is not None
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
        trace = tracer.find("t1")
        assert trace.dropped_spans == 2
        assert tracer.dropped_spans_total == 2

    def test_attribution_self_time_and_share(self):
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
        rows = {row["stage"]: row for row in tracer.attribution()}
        assert rows["repro_test_child"]["self_seconds"] == pytest.approx(0.75)
        assert rows["repro_test_root"]["self_seconds"] == pytest.approx(0.25)
        assert rows["repro_test_child"]["share"] == pytest.approx(0.75)
        assert rows["repro_test_root"]["share"] == pytest.approx(0.25)
        # A second, childless trace: the fold is incremental over every
        # finished trace, and its rows are pinned to the digit (all the
        # inputs are exact binary fractions).
        tracer.on_span_finish(
            make_record(
                name="repro_test_root", trace_id="t2", seconds=1.0,
                cpu_seconds=0.125,
            ),
            root=True,
        )
        assert tracer.attribution() == [
            {
                "stage": "repro_test_root",
                "count": 2.0,
                "seconds": 2.0,
                "self_seconds": 1.25,
                "cpu_seconds": 0.75,
                "share": 0.625,
            },
            {
                "stage": "repro_test_child",
                "count": 1.0,
                "seconds": 0.75,
                "self_seconds": 0.75,
                "cpu_seconds": 0.5,
                "share": 0.375,
            },
        ]

    def test_self_seconds_never_negative(self):
        # Children overlapping (threads) can sum past the parent.
        tracer = Tracer()
        for name, seconds in (("repro_test_a", 0.8), ("repro_test_b", 0.7)):
            tracer.on_span_finish(
                make_record(
                    name=name, trace_id="tx", parent_id="r", seconds=seconds
                ),
                root=False,
            )
        tracer.on_span_finish(
            make_record(
                name="repro_test_root", trace_id="tx", span_id="r", seconds=1.0
            ),
            root=True,
        )
        rows = {row["stage"]: row for row in tracer.attribution()}
        assert rows["repro_test_root"]["self_seconds"] == 0.0


class TestRecordStage:
    def test_becomes_synthetic_child_of_current_span(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            with use_tracer(Tracer()) as tracer:
                with span("repro_test_root", registry=registry):
                    record_stage("repro_test_wait", 0.004)
        trace = tracer.traces()[0]
        stage = trace.span_named("repro_test_wait")
        assert stage is not None
        assert stage.seconds == 0.004
        assert stage.parent_id == trace.span_named("repro_test_root").span_id
        assert registry.histogram("repro_test_wait_seconds").count == 1

    def test_histogram_only_without_tracer(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            record_stage("repro_test_wait", 0.004)
        assert registry.histogram("repro_test_wait_seconds").count == 1


class TestAttributionHelpers:
    def test_format_attribution_renders_table(self):
        rows = [
            {
                "stage": "repro_test_root",
                "count": 2.0,
                "seconds": 0.02,
                "self_seconds": 0.01,
                "cpu_seconds": 0.0,
                "share": 0.5,
            }
        ]
        text = format_attribution(rows)
        assert "stage" in text and "share" in text
        assert "repro_test_root" in text and "50.0%" in text


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
        assert record["seconds"] is None
        assert record["spans"][0]["cpu_seconds"] is None

    def test_chrome_events_use_microseconds(self):
        trace = make_trace("tc", 0.5)
        (event,) = chrome_trace_events([trace])
        assert event["ph"] == "X"
        assert event["dur"] == pytest.approx(0.5 * 1e6)
        assert event["args"]["trace_id"] == "tc"

    def test_chrome_file_is_loadable_document(self, tmp_path):
        path = tmp_path / "chrome.json"
        count = write_chrome_trace(self.build_traces(), path)
        document = json.loads(path.read_text())
        assert len(document["traceEvents"]) == count == 2
        parent_ids = {
            event["args"].get("parent_id")
            for event in document["traceEvents"]
        }
        assert None in parent_ids and len(parent_ids) == 2


class TestExemplarAcceptance:
    def test_p99_bucket_exemplar_resolves_to_retained_trace(self):
        """The top bucket's exemplar is the slowest request, which the
        keep-slowest sampler guarantees to retain — so the exemplar id
        always resolves to a full trace."""
        registry = MetricsRegistry()
        with use_registry(registry):
            with use_tracer(Tracer(TailSampler(keep_slowest=4))) as tracer:
                for index in range(20):
                    with span(
                        "repro_test_rank",
                        registry=registry,
                        buckets=(0.005,),
                    ):
                        if index == 7:
                            time.sleep(0.02)
        histogram = registry.histogram("repro_test_rank_seconds", buckets=(0.005,))
        top = histogram.bucket_exemplars()["+Inf"]
        trace = tracer.find(top["exemplar"])
        assert trace is not None, "exemplar resolves to a retained trace"
        assert trace.seconds == pytest.approx(top["value"])
        assert trace.span_named("repro_test_rank") is not None
        assert trace.seconds == max(t.seconds for t in tracer.traces())
