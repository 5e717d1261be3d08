"""Unit tests for the tracer."""

from repro.obs.sink import MemorySink
from repro.sim import Tracer


def with_sink(**kwargs):
    tr = Tracer(**kwargs)
    return tr, tr.attach_sink(MemorySink())


class TestTracer:
    def test_disabled_by_default(self):
        tr, sink = with_sink()
        tr.emit(1.0, "cat", "subj", a=1)
        assert sink.events == []

    def test_enabled_records(self):
        tr, sink = with_sink(enabled=True)
        tr.emit(1.0, "cat", "subj", a=1)
        assert sink.events == [{"t": 1.0, "cat": "cat", "sub": "subj", "a": 1}]

    def test_flattens_details(self):
        tr, sink = with_sink(enabled=True)
        tr.emit(2.5, "span.phase", "tx1", edge="B", phase="open")
        assert sink.events == [{
            "t": 2.5, "cat": "span.phase", "sub": "tx1",
            "edge": "B", "phase": "open",
        }]

    def test_category_filter(self):
        tr, sink = with_sink(enabled=True, categories={"keep"})
        tr.emit(0.0, "keep", "x")
        tr.emit(0.0, "drop", "y")
        assert [e["cat"] for e in sink.events] == ["keep"]
        assert tr.wants("keep") and not tr.wants("drop")

    def test_records_by_category(self):
        tr, sink = with_sink(enabled=True)
        tr.emit(0.0, "a", "1")
        tr.emit(0.0, "b", "2")
        tr.emit(0.0, "a", "3")
        assert [e["sub"] for e in sink.events if e["cat"] == "a"] == ["1", "3"]

    def test_reserved_keys_win(self):
        tr, sink = with_sink(enabled=True)
        tr.emit(1.0, "c", "s", t=99.0, cat="x", sub="y", extra=2)
        assert sink.events == [{"t": 1.0, "cat": "c", "sub": "s", "extra": 2}]

    def test_every_sink_sees_the_same_event(self):
        tr, first = with_sink(enabled=True)
        second = tr.attach_sink(MemorySink())
        for i in range(3):
            tr.emit(float(i), "c", f"s{i}")
        assert [e["sub"] for e in first.events] == ["s0", "s1", "s2"]
        assert all(a is b for a, b in zip(first.events, second.events))

    def test_close_sinks(self):
        closed = []

        class Sink:
            def accept(self, event):
                pass

            def close(self):
                closed.append(True)

        tr = Tracer(enabled=True)
        tr.attach_sink(Sink())
        tr.attach_sink(MemorySink())  # no close(): skipped
        tr.close_sinks()
        assert closed == [True]

    def test_tracer_always_truthy(self):
        assert bool(Tracer()) is True
