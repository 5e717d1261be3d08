"""Build, run and check one benchmark cell through the public API.

A *cell* is one workload of ``workloads.json`` at one seed: a fresh
``Cluster(config)``, a closed-loop ``WorkloadExecutor`` or an open-loop
``OpenLoopExecutor``, ``setup()`` and ``run()``.  Nothing is served from
``repro.par``'s cell cache or pool.  :func:`run_cell` times the set-up and
run phases on the host clock and returns the simulated counts the
output checks and the per-layer ratios are computed from.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "workloads.json")


def load_spec() -> Dict[str, Any]:
    """The workload table: configs, whys, default-seed fingerprints."""
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class CellRun:
    """What one cell run measured and counted."""

    run_s: float
    commits: int
    root_aborts: int
    events: int
    messages: int
    #: output-check failures; empty when the run is correct
    failures: List[str] = field(default_factory=list)
    #: simulated counters the per-layer ratios are built from
    counts: Dict[str, float] = field(default_factory=dict)

    @property
    def fingerprint(self) -> Tuple[int, int]:
        """(commits, root aborts): the simulated outcome pinned per seed."""
        return (self.commits, self.root_aborts)


def import_repro() -> None:
    """Import everything a cell touches, so no timing includes imports."""
    import repro.core.executor  # noqa: F401  (before workloads: import cycle)
    import repro.check  # noqa: F401
    import repro.obs  # noqa: F401
    import repro.prof  # noqa: F401
    import repro.traffic.engine  # noqa: F401
    import repro.workloads.registry  # noqa: F401


def build_cell(entry: Dict[str, Any], seed: int, **overrides: Any) -> Tuple[Any, Any, Any]:
    """``Cluster(config)``, the executor and ``executor.setup()``."""
    # Executor before workloads: the reverse import order is circular.
    from repro.core.cluster import Cluster
    from repro.core.config import ClusterConfig
    from repro.core.executor import WorkloadExecutor
    from repro.traffic.engine import OpenLoopExecutor
    from repro.workloads.registry import make_workload

    config = ClusterConfig(seed=seed, **{**entry["config"], **overrides})
    workload = make_workload(entry["workload"], read_fraction=entry["read_fraction"])
    cluster = Cluster(config)
    if config.arrival.enabled:
        executor: Any = OpenLoopExecutor(
            cluster, workload, config.arrival,
            service_workers=entry["workers_per_node"], horizon=entry["horizon"],
        )
    else:
        executor = WorkloadExecutor(
            cluster, workload,
            workers_per_node=entry["workers_per_node"], horizon=entry["horizon"],
        )
    executor.setup()
    return cluster, workload, executor


def time_setup(entry: Dict[str, Any], seed: int) -> float:
    """Host seconds of one :func:`build_cell` (nothing is run)."""
    t0 = time.perf_counter()
    build_cell(entry, seed)
    return time.perf_counter() - t0


def run_cell(
    entry: Dict[str, Any],
    seed: int,
    expected: Optional[Tuple[int, int]] = None,
    run_phase: ContextManager[Any] = contextlib.nullcontext(),
    **overrides: Any,
) -> CellRun:
    """Set up and run one cell, then check its outputs.

    ``expected`` is the (commits, root aborts) fingerprint the run must
    reproduce (None skips that check).  ``overrides`` replace
    ``ClusterConfig`` fields (the counted run adds profiler counters and
    the sanitizer).  ``run_phase`` is entered around the run phase only.
    """
    cluster, workload, executor = build_cell(entry, seed, **overrides)
    with run_phase:
        t1 = time.perf_counter()
        executor.run()
        t2 = time.perf_counter()
    cluster.finish_obs()

    m = cluster.metrics
    run = CellRun(
        run_s=t2 - t1,
        commits=m.commits.value, root_aborts=m.root_aborts.value,
        events=cluster.env.events_processed,
        messages=cluster.network.messages_sent.value,
    )
    run.counts = _counts(cluster, executor)
    run.failures = check_outputs(cluster, executor, workload, run, expected)
    return run


def check_outputs(
    cluster: Any,
    executor: Any,
    workload: Any,
    run: CellRun,
    expected: Optional[Tuple[int, int]],
) -> List[str]:
    """Every output check of one run; each failure is one line."""
    failures = []
    if run.commits <= 0:
        failures.append("no root transaction committed")
    if expected is not None and run.fingerprint != tuple(expected):
        failures.append(
            f"fingerprint (commits, root aborts) {run.fingerprint} != "
            f"recorded {tuple(expected)}"
        )
    if hasattr(workload, "expected_total"):
        # Money is conserved.
        total = sum(cluster.committed_value(oid) for oid in workload.accounts)
        if total != workload.expected_total():
            failures.append(
                f"bank total {total} != conserved {workload.expected_total()}"
            )
    if cluster.config.arrival.enabled:
        offered, admitted, shed = executor.offered, executor.admitted, executor.shed
        if offered != admitted + shed:
            failures.append(f"offered {offered} != admitted {admitted} + shed {shed}")
    return failures


def _counts(cluster: Any, executor: Any) -> Dict[str, float]:
    """Simulated per-layer counters of one finished run."""
    m = cluster.metrics
    nodes = cluster.nodes
    processed = sum(n.messages_processed for n in nodes)
    span = m.window_end - m.window_start
    counts: Dict[str, float] = {
        "messages_processed": processed,
        "queueing_delay_s": sum(n.total_queueing_delay for n in nodes),
        "busy_s": processed * cluster.config.msg_process_time,
        "node_s": span * len(nodes),
        "rpc_calls": sum(c.calls for c in cluster.rpc_clients),
        "nested_aborts_own": m.nested_aborts_own.value,
        "nested_aborts_parent": m.nested_aborts_parent.value,
        "obs_events": cluster.obs.events if cluster.obs is not None else 0,
        "sanitizer_checks": (
            cluster.sanitizer.checks if cluster.sanitizer is not None else 0
        ),
    }
    if cluster.profiler is not None:
        counts["kernel_batches"] = cluster.profiler.batches
    if cluster.config.arrival.enabled:
        counts["offered"] = executor.offered
        counts["shed"] = executor.shed
        counts["latency_p99_s"] = executor.traffic_summary().get("latency_p99", 0.0)
    return counts
