"""Structured simulation tracing.

The tracer filters ``(time, category, subject, details)`` observations by
category and fans each accepted one out to its attached *sinks*.  Every
observation reaches a sink as one flat event dict — the observability
schema shape (:mod:`repro.obs.events`): the details plus the reserved keys
``t`` (time), ``cat`` (category) and ``sub`` (subject), which win over
same-named details.  The tracer builds that dict once and hands the same
object to every sink, so sinks must not mutate it.

A sink is anything with an ``accept(event)`` method (and optionally
``close()``).  The tracer keeps nothing itself: in-memory retention is
:class:`~repro.obs.sink.MemorySink`, streaming export is
:class:`~repro.obs.sink.JsonlSink`, and the observability layer attaches
its :class:`~repro.obs.recorder.ObsRecorder`.

Tracing is off by default and filtered by category, so the hot path pays a
single guard when disabled.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional

__all__ = ["Tracer"]


class Tracer:
    """Category filter in front of a list of event sinks."""

    def __init__(
        self, enabled: bool = False, categories: Optional[Iterable[str]] = None
    ) -> None:
        self.enabled = enabled
        self._categories = set(categories) if categories is not None else None
        self._sinks: List[Any] = []

    def wants(self, category: str) -> bool:
        """Cheap guard callers can use to skip building details."""
        if not self.enabled:
            return False
        return self._categories is None or category in self._categories

    def attach_sink(self, sink: Any) -> Any:
        """Attach a consumer of every accepted event; returns it."""
        self._sinks.append(sink)
        return sink

    def emit(self, time: float, category: str, subject: str, **details: Any) -> None:
        if not self.wants(category):
            return
        details["t"] = time
        details["cat"] = category
        details["sub"] = subject
        for sink in self._sinks:
            sink.accept(details)

    def close_sinks(self) -> None:
        """Close every attached sink that supports it."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()
