"""Tests for the tracer: nesting, threads, determinism, null mode."""

import threading

from repro.obs.trace import NULL_SPAN, NullTracer, Span, Tracer
from repro.vtime import ServiceTimer


class FakeClock:
    """A clock that ticks one second per now() call."""

    def __init__(self):
        self.t = 0.0

    def now(self):
        self.t += 1.0
        return self.t


class TestSpanNesting:
    def test_parent_child(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert tracer.roots == [outer]
        assert outer.children == [inner]
        assert inner.parent_id == outer.span_id

    def test_sibling_order(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer") as outer:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        assert [c.name for c in outer.children] == ["a", "b"]

    def test_ids_in_start_order(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.span_id for s in tracer.spans] == ["s1", "s2"]

    def test_current_tracks_innermost(self):
        tracer = Tracer(FakeClock())
        assert tracer.current() is None
        with tracer.span("outer") as outer:
            assert tracer.current() is outer
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        assert tracer.current() is None

    def test_explicit_none_parent_makes_root(self):
        tracer = Tracer(FakeClock())
        with tracer.span("outer"):
            with tracer.span("floating", parent=None) as floating:
                pass
        assert floating in tracer.roots

    def test_attributes_and_set(self):
        tracer = Tracer(FakeClock())
        with tracer.span("s", qid="q1") as span:
            span.set("correct", True)
        assert span.attributes == {"qid": "q1", "correct": True}

    def test_exception_marks_error(self):
        tracer = Tracer(FakeClock())
        try:
            with tracer.span("s") as span:
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert span.attributes["error"] == "RuntimeError"
        assert span.end is not None


class TestTiming:
    def test_duration_from_clock(self):
        tracer = Tracer(FakeClock())
        with tracer.span("s") as span:
            pass
        assert span.start == 1.0
        assert span.end == 2.0
        assert span.duration == 1.0

    def test_open_span_duration_zero(self):
        tracer = Tracer(FakeClock())
        with tracer.span("s") as span:
            assert span.duration == 0.0

    def test_self_time_decomposition(self):
        root = Span("root", "s1", None, 0.0)
        child = Span("child", "s2", "s1", 2.0)
        child.end = 5.0
        root.children.append(child)
        root.end = 10.0
        assert root.self_time() == 7.0
        assert root.self_time() + child.self_time() == root.duration

    def test_simulated_clock_timestamps(self):
        clock = ServiceTimer()
        tracer = Tracer(clock)
        with tracer.span("run") as run:
            clock.sleep(3.0)
            with tracer.span("call") as call:
                clock.sleep(2.0)
        assert run.start == 0.0
        assert call.start == 3.0
        assert call.end == 5.0
        assert run.end == 5.0


class TestCrossThread:
    def test_explicit_parent_across_threads(self):
        tracer = Tracer(FakeClock())
        with tracer.span("dispatch") as dispatch:

            def work():
                with tracer.span("call", parent=dispatch):
                    pass

            t = threading.Thread(target=work)
            t.start()
            t.join()
        (call,) = dispatch.children
        assert call.name == "call"
        assert call.parent_id == dispatch.span_id
        assert call.lane != dispatch.lane

    def test_worker_stack_is_isolated(self):
        tracer = Tracer(FakeClock())
        seen = []
        with tracer.span("main"):

            def work():
                seen.append(tracer.current())

            t = threading.Thread(target=work)
            t.start()
            t.join()
        assert seen == [None]


class TestDeterminism:
    def run_once(self):
        tracer = Tracer(ServiceTimer())
        clock = tracer.clock
        with tracer.span("run", pipeline="udf"):
            for qid in ("q1", "q2"):
                with tracer.span("question", qid=qid) as q:
                    clock.sleep(1.5)
                    q.set("correct", True)
        return tracer

    def test_same_run_same_tree(self):
        a, b = self.run_once(), self.run_once()
        assert [r.tree() for r in a.roots] == [r.tree() for r in b.roots]
        assert [s.span_id for s in a.spans] == [s.span_id for s in b.spans]

    def test_walk_is_depth_first(self):
        tracer = self.run_once()
        names = [s.name for s in tracer.roots[0].walk()]
        assert names == ["run", "question", "question"]


class TestNullTracer:
    def test_disabled_flag(self):
        assert NullTracer().enabled is False
        assert Tracer(FakeClock()).enabled is True

    def test_span_is_shared_noop(self):
        null = NullTracer()
        assert null.span("x") is NULL_SPAN
        assert null.span("x", parent=None, qid="q") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as span:
            span.set("k", "v")
        assert span.attributes == {}
        assert span.duration == 0.0
        assert list(span.walk()) == []
        assert span.tree() == ()

    def test_records_nothing(self):
        null = NullTracer()
        with null.span("x"):
            pass
        assert null.roots == []
        assert null.spans == []
        assert null.current() is None
