"""Span timers: histogram recording, nesting, no-op fast path."""

import threading
import time

from repro.obs.registry import MetricsRegistry, NullRegistry
from repro.obs.trace import (
    _NULL_SPAN,
    Tracer,
    carry_span,
    current_span,
    span,
    use_tracer,
)


class TestRecording:
    def test_duration_lands_in_histogram(self):
        registry = MetricsRegistry()
        with span("repro_work", registry=registry):
            time.sleep(0.002)
        histogram = registry.histogram("repro_work_seconds")
        assert histogram.count == 1
        assert histogram.sum >= 0.002

    def test_tags_label_the_series(self):
        registry = MetricsRegistry()
        with span("repro_work", tags={"kind": "user"}, registry=registry):
            pass
        assert registry.histogram(
            "repro_work_seconds", tags={"kind": "user"}
        ).count == 1

    def test_span_exposes_seconds(self):
        registry = MetricsRegistry()
        with span("repro_work", registry=registry) as opened:
            pass
        assert opened.seconds is not None and opened.seconds >= 0.0


class TestNesting:
    """Paths and depths are read off the finished-span records of the
    one sink, the tracer."""

    @staticmethod
    def finished(tracer):
        return {
            record.name: record
            for trace in tracer.traces()
            for record in trace.spans
        }

    def test_paths_and_depths(self):
        registry = MetricsRegistry()
        with use_tracer(Tracer()) as tracer:
            with span("repro_outer", registry=registry):
                with span("repro_mid", registry=registry):
                    with span("repro_leaf", registry=registry):
                        assert current_span().path == "repro_outer/repro_mid/repro_leaf"
        records = self.finished(tracer)
        assert records["repro_leaf"].path == "repro_outer/repro_mid/repro_leaf"
        assert records["repro_leaf"].depth == 2
        assert records["repro_mid"].depth == 1
        assert records["repro_outer"].depth == 0

    def test_siblings_share_parent_path(self):
        registry = MetricsRegistry()
        with use_tracer(Tracer()) as tracer:
            with span("repro_root", registry=registry):
                with span("repro_a", registry=registry):
                    pass
                with span("repro_b", registry=registry):
                    pass
        records = self.finished(tracer)
        assert records["repro_a"].path == "repro_root/repro_a"
        assert records["repro_b"].path == "repro_root/repro_b"
        assert records["repro_a"].parent_id == records["repro_root"].span_id

    def test_threads_do_not_share_span_stacks(self):
        # The current span lives in a contextvar: a span opened in one
        # thread must never become the parent of another thread's span.
        registry = MetricsRegistry()
        ready = threading.Event()

        def worker():
            assert current_span() is None
            with span("repro_thread_b", registry=registry):
                ready.set()

        with use_tracer(Tracer()) as tracer:
            with span("repro_thread_a", registry=registry):
                thread = threading.Thread(target=worker)
                thread.start()
                thread.join(timeout=10.0)
        assert ready.is_set() and not thread.is_alive()
        records = self.finished(tracer)
        assert records["repro_thread_b"].path == "repro_thread_b"
        assert records["repro_thread_a"].path == "repro_thread_a"
        assert records["repro_thread_b"].trace_id != records["repro_thread_a"].trace_id

    def test_stack_unwinds_after_exception(self):
        registry = MetricsRegistry()
        try:
            with span("repro_boom", registry=registry):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert current_span() is None
        # Duration recorded even on the error path.
        assert registry.histogram("repro_boom_seconds").count == 1


class TestDisabled:
    def test_disabled_registry_yields_shared_null_span(self):
        assert span("repro_x", registry=NullRegistry()) is _NULL_SPAN

    def test_null_span_records_nothing(self):
        registry = NullRegistry()
        with span("repro_x", registry=registry):
            pass
        assert registry.snapshot() == []


class TestCarrySpan:
    """carry_span: the parent survives a hop into a worker thread."""

    def run_in_thread(self, fn):
        thread = threading.Thread(target=fn)
        thread.start()
        thread.join(timeout=10.0)
        assert not thread.is_alive()

    def test_worker_spans_join_the_submitting_trace(self):
        registry = MetricsRegistry()

        def work():
            with span("repro_hop_child", registry=registry):
                pass

        with use_tracer(Tracer()) as tracer:
            with span("repro_hop_root", registry=registry):
                self.run_in_thread(carry_span(work))
        (trace,) = tracer.traces()
        child = trace.span_named("repro_hop_child")
        assert child.parent_id == trace.span_named("repro_hop_root").span_id
        assert child.path == "repro_hop_root/repro_hop_child"

    def test_worker_context_is_restored(self):
        seen = []

        def work():
            seen.append(current_span())

        def worker():
            carried()
            seen.append(current_span())

        with use_tracer(Tracer()):
            with span("repro_hop_root", registry=MetricsRegistry()) as root:
                carried = carry_span(work)
            self.run_in_thread(worker)
        assert seen == [root, None]

    def test_untouched_without_tracer_or_open_span(self):
        def work():
            return 1

        with span("repro_hop_root", registry=MetricsRegistry()):
            assert carry_span(work) is work  # no tracer installed
        with use_tracer(Tracer()):
            assert carry_span(work) is work  # no span open
