"""The in-process observability recorder.

One :class:`ObsRecorder` attaches to the cluster tracer as a sink and,
per accepted schema event:

* streams it to the configured exporters (JSONL, Chrome trace);
* folds it into the :class:`~repro.obs.series.SeriesTracker`;
* pairs span/phase edges into **streaming** latency statistics — a
  :class:`~repro.sim.monitor.Tally` (mean/min/max) plus P² quantile
  estimators per phase, so percentiles are available live without
  retaining spans (memory stays bounded by *live* transactions).

Exact percentiles over the full run come from the offline report CLI
(:mod:`repro.obs.report`), which re-reads the JSONL with stored samples.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.chrome import ChromeTraceWriter
from repro.obs.series import SeriesTracker
from repro.obs.sink import JsonlSink
from repro.sim.monitor import Tally
from repro.util.stats import OnlineQuantile

__all__ = ["ObsRecorder", "PhaseStat"]


class PhaseStat:
    """Streaming latency aggregate for one span phase (or outcome)."""

    __slots__ = ("tally", "p50", "p95", "p99")

    def __init__(self, name: str) -> None:
        self.tally = Tally(name)
        self.p50 = OnlineQuantile(0.50)
        self.p95 = OnlineQuantile(0.95)
        self.p99 = OnlineQuantile(0.99)

    def observe(self, value: float) -> None:
        self.tally.observe(value)
        self.p50.observe(value)
        self.p95.observe(value)
        self.p99.observe(value)

    def row(self) -> Dict[str, float]:
        t = self.tally
        if not t.count:
            return {"count": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": t.count, "mean": t.mean,
            "p50": self.p50.value, "p95": self.p95.value, "p99": self.p99.value,
        }


class ObsRecorder:
    """Tracer sink: export + reduce every observability event."""

    def __init__(
        self,
        window: float = 0.25,
        jsonl_path: Optional[str] = None,
        chrome_path: Optional[str] = None,
    ) -> None:
        self.series = SeriesTracker(window=window)
        self.jsonl: Optional[JsonlSink] = JsonlSink(jsonl_path) if jsonl_path else None
        self.chrome: Optional[ChromeTraceWriter] = (
            ChromeTraceWriter(chrome_path) if chrome_path else None
        )
        #: per-phase streaming latency stats; "span.commit"/"span.abort"
        #: hold whole-attempt durations by outcome.
        self.phase_stats: Dict[str, PhaseStat] = {}
        self._span_start: Dict[str, float] = {}
        self._open_phases: Dict[str, List[Tuple[str, float]]] = {}
        self.events = 0

    # -- sink interface --------------------------------------------------

    def accept(self, event: Dict[str, Any]) -> None:
        self.events += 1
        if self.jsonl is not None:
            self.jsonl.accept(event)
        if self.chrome is not None:
            self.chrome.feed(event)
        self.series.feed(event)

        cat = event["cat"]
        if cat == "span.begin":
            self._span_start[event["sub"]] = event["t"]
            self._open_phases[event["sub"]] = []
        elif cat == "span.phase":
            stack = self._open_phases.get(event["sub"])
            if stack is None:
                return
            if event["edge"] == "B":
                stack.append((event["phase"], event["t"]))
            else:
                for i in range(len(stack) - 1, -1, -1):
                    if stack[i][0] == event["phase"]:
                        name, begun = stack.pop(i)
                        self._stat(name).observe(event["t"] - begun)
                        break
        elif cat == "span.end":
            txid = event["sub"]
            t = event["t"]
            for name, begun in self._open_phases.pop(txid, []):
                self._stat(name).observe(t - begun)
            begun = self._span_start.pop(txid, None)
            if begun is not None:
                self._stat(f"span.{event['outcome']}").observe(t - begun)

    def close(self) -> None:
        if self.jsonl is not None:
            self.jsonl.close()
        if self.chrome is not None:
            self.chrome.close()

    # -- summaries -------------------------------------------------------

    def _stat(self, name: str) -> PhaseStat:
        stat = self.phase_stats.get(name)
        if stat is None:
            stat = PhaseStat(name)
            self.phase_stats[name] = stat
        return stat

    def summary(self, now: Optional[float] = None) -> Dict[str, Any]:
        """Live run summary: series snapshot + streaming phase latencies."""
        out = self.series.snapshot(now)
        out["phases"] = {
            name: stat.row() for name, stat in sorted(self.phase_stats.items())
        }
        return out
