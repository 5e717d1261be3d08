"""Observability for the D-STM reproduction (``repro.obs``).

Layered on the simulation tracer's sink interface: when enabled (see
:class:`~repro.core.config.ObsConfig`), the cluster attaches an
:class:`ObsRecorder` that streams every accepted schema event to
exporters while folding it into bounded in-memory aggregates.

Pieces:

* :mod:`repro.obs.events` — the event schema + validators;
* :mod:`repro.obs.sink` — JSONL / in-memory export sinks;
* :mod:`repro.obs.spans` — offline span reconstruction (report, tests);
* :mod:`repro.obs.series` — per-node / per-object time-series reducer;
* :mod:`repro.obs.chrome` — streaming Chrome ``trace_event`` exporter;
* :mod:`repro.obs.recorder` — the live sink wiring it all together;
* :mod:`repro.obs.report` — the run-report CLI
  (``python -m repro.obs.report run.jsonl``).

DESIGN.md's "Observability" section documents the span model and the
disabled-path cost contract (one category-guard check per emission site).
"""

from repro.obs.chrome import ChromeTraceWriter
from repro.obs.events import (
    OBS_CATEGORIES,
    SPAN_PHASES,
    SchemaError,
    validate_event,
    validate_events,
)
from repro.obs.recorder import ObsRecorder, PhaseStat
from repro.obs.series import NodeSeries, ObjectSeries, SeriesTracker
from repro.obs.sink import JsonlSink, MemorySink, dumps_event
from repro.obs.spans import Phase, Span, SpanBuilder, build_spans, phase_durations

__all__ = [
    "OBS_CATEGORIES",
    "SPAN_PHASES",
    "ChromeTraceWriter",
    "JsonlSink",
    "MemorySink",
    "NodeSeries",
    "ObjectSeries",
    "ObsRecorder",
    "Phase",
    "PhaseStat",
    "SchemaError",
    "SeriesTracker",
    "Span",
    "SpanBuilder",
    "build_spans",
    "dumps_event",
    "phase_durations",
    "validate_event",
    "validate_events",
]
