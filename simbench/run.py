"""Simulator benchmark: host time per simulated commit, layer by layer.

Run from the repository root::

    python3 simbench/run.py --workload bank-80 --seed 1 --seconds 20 --trace 0

Each invocation is one fresh process that drives cells of one workload
(``simbench/workloads.json``) through the public API — ``Cluster(config)``,
a ``WorkloadExecutor`` or ``OpenLoopExecutor``, ``setup()``, ``run()`` —
on one thread, with no ``repro.par`` pool and no cell cache.  ``--seed``
fixes the inputs: cell ``i`` of a run simulates cluster seed
``seed * cells + i``.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` (median of
several set-ups, imports excluded), ``host_ms_per_commit`` (run-phase host
time per committed root transaction; each cell's median over repeated
runs until ``--seconds`` have passed, summed over the cells) and
``rss_growth_mb`` (peak RSS at the end minus RSS after imports).  The two
times are scaled to a reference host speed: multiplied by
``REF_NOMINAL_MS`` over the mean time of ``yardstick.py``'s fixed loop,
sampled between the timed pieces of the same run.  The host drifts in
speed by tens of percent between runs; the scaling removes most of that
drift.  The record line keeps the unscaled values.  Every run has the
same ``PYTHONHASHSEED`` (``HASH_SEED``; the script restarts itself once
to set it), so dict layouts do not differ between runs.

``--trace 1`` runs every cell three times — untraced; counted, with
kernel-profiler counters and the invariant sanitizer; traced, with the
layer wrappers of ``simbench/layers.py`` — and reports the per-layer
metrics.  The counted and traced runs must reproduce the untraced run's
simulated outcome exactly, and the layers must account for at least
``MIN_COVERAGE`` of the traced run's wall time.

Every run's outputs are checked (``cells.check_outputs``); a run that
fails a check counts as a failed operation.  The last stdout line is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
line before it is the result record: the same metrics stamped with the
source sha (outside git, a digest of ``src/``), ``nproc``, the Python
version and the yardstick time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from typing import Any, Dict, List, Optional, Tuple

import cells
from yardstick import yardstick_samples

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: timed set-ups per run (at least; after one untimed warm-up, for at
#: least SETUP_SECONDS); setup_s is their median
SETUP_REPS = 10
SETUP_SECONDS = 2.0
#: after each cell run, the yardstick runs for this share of the cell's
#: time, so its samples spread over the run like the cells' time does
YARDSTICK_SHARE = 0.1
#: mean yardstick ms of the reference speed end-to-end times are scaled
#: to.  It only fixes the unit: scaled times read as the host times of a
#: host on which one yardstick loop takes this long.
REF_NOMINAL_MS = 14.0
#: share of a traced run's wall time the layer self times must account for
MIN_COVERAGE = 0.9
#: PYTHONHASHSEED of every run.  String hashes decide the layout of the
#: simulator's string-keyed dicts; left random, that layout varies peak
#: RSS from process to process.
HASH_SEED = "0"


# -- result stamp ------------------------------------------------------------


def src_digest() -> str:
    """sha1 over the paths and contents of the files under ``src/``."""
    digest = hashlib.sha1()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".pyc"):
                continue
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def _git(*args: str) -> str:
    out = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True,
        timeout=10, check=True,
    )
    return out.stdout


def source_stamp() -> Dict[str, Any]:
    """The commit sha and whether the tree has uncommitted changes; outside
    a git checkout, :func:`src_digest` instead — never null."""
    try:
        top = _git("rev-parse", "--show-toplevel").strip()
        # A checkout nested in some other repository is not that repository.
        if os.path.samefile(top, ROOT):
            return {
                "git_sha": _git("rev-parse", "HEAD").strip(),
                "git_sha_of": "commit",
                "git_dirty": bool(_git("status", "--porcelain").strip()),
            }
    except (OSError, subprocess.SubprocessError):
        pass
    return {"git_sha": src_digest(), "git_sha_of": "src-files"}


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- runs ---------------------------------------------------------------------


def cell_seeds(seed: int, cells: int) -> List[int]:
    """The cluster seeds one run simulates: disjoint across run seeds."""
    return [seed * cells + i for i in range(cells)]


class Tally:
    """Attempted/failed operations of one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {label}: {problem}", file=sys.stderr)


def _run_checked(tally: Tally, label: str, fn: Any, *args: Any, **kwargs: Any) -> Any:
    """One cell run; an exception is a failed operation, not a crash."""
    try:
        return fn(*args, **kwargs)
    except Exception:  # the benchmark must keep going and report the failure
        traceback.print_exc()
        tally.record(label, ["raised " + traceback.format_exc().splitlines()[-1]])
        return None


def end_to_end(
    name: str, entry: Dict[str, Any], seeds: List[int],
    expected: Optional[List[List[int]]], seconds: float, tally: Tally,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """setup_s, host_ms_per_commit and rss_growth_mb of one run."""
    rss_base = peak_rss_mb()
    cells.time_setup(entry, seeds[0])  # warm-up: lazy imports, first touch
    # Set-ups take milliseconds: interleave each with one yardstick sample
    # so both see the same host speed.
    setups: List[float] = []
    setup_ys: List[float] = []
    setup_end = time.perf_counter() + SETUP_SECONDS
    while len(setups) < SETUP_REPS or time.perf_counter() < setup_end:
        gc.collect()
        setup_ys += yardstick_samples(0.0)
        setups.append(cells.time_setup(entry, seeds[len(setups) % len(seeds)]))

    ys: List[float] = []
    run_s: Dict[int, List[float]] = {s: [] for s in seeds}
    fingerprint: Dict[int, Tuple[int, int]] = {}
    events: Dict[int, int] = {}
    deadline = time.perf_counter() + seconds
    i = 0
    while i < len(seeds) or time.perf_counter() < deadline:
        idx = i % len(seeds)
        seed = seeds[idx]
        i += 1
        gc.collect()
        label = f"{name} seed {seed}"
        t0 = time.perf_counter()
        run = _run_checked(
            tally, label, cells.run_cell, entry, seed,
            expected=expected[idx] if expected else None,
        )
        elapsed = time.perf_counter() - t0
        gc.collect()
        ys += yardstick_samples(YARDSTICK_SHARE * elapsed)
        if run is None:
            continue
        problems = list(run.failures)
        first = fingerprint.setdefault(seed, run.fingerprint)
        if run.fingerprint != first:
            problems.append(f"same seed, different outcome: {run.fingerprint} vs {first}")
        tally.record(label, problems)
        run_s[seed].append(run.run_s)
        events[seed] = run.events

    ran = [s for s in seeds if run_s[s]]
    commits = max(sum(fingerprint[s][0] for s in ran), 1)
    host_ms_per_commit = 1e3 * sum(statistics.median(run_s[s]) for s in ran) / commits
    metrics = {
        "host_ms_per_commit": host_ms_per_commit * REF_NOMINAL_MS / statistics.mean(ys),
        "setup_s": statistics.median(setups) * REF_NOMINAL_MS / statistics.mean(setup_ys),
        "rss_growth_mb": peak_rss_mb() - rss_base,
    }
    detail = {
        "cells": len(seeds),
        "runs": sum(len(v) for v in run_s.values()),
        "commits_per_pass": commits,
        "events_per_pass": sum(events.values()),
        "unscaled_host_ms_per_commit": host_ms_per_commit,
        "unscaled_setup_s": statistics.median(setups),
        "yardstick_ms": statistics.mean(ys),
        "setup_reps": len(setups),
        "setup_yardstick_ms": statistics.mean(setup_ys),
        "fingerprints": {str(s): list(fingerprint[s]) for s in ran},
    }
    return metrics, detail


def _outcome(run: Any) -> Tuple[int, int, int, int]:
    return (run.commits, run.root_aborts, run.events, run.messages)


def _same_outcome(run: Any, plain: Any, what: str) -> List[str]:
    if _outcome(run) == _outcome(plain):
        return []
    return [f"{what} outcome {_outcome(run)} != untraced {_outcome(plain)}"]


def traced(
    name: str, entry: Dict[str, Any], seeds: List[int],
    expected: Optional[List[List[int]]], tally: Tally,
) -> Tuple[Dict[str, float], Dict[str, Any]]:
    """Per-layer metrics: each cell untraced, counted and traced.

    The counted pass adds kernel-profiler counters and the sanitizer.  It
    is not timed, and the traced pass leaves both out: the profiler runs
    its own copy of the kernel loop, and the traced pass must time the
    loop the untraced pass runs.
    """
    import layers
    from repro.core.config import CheckConfig, ProfConfig
    from repro.scheduler.backoff import BackoffScheduler
    from repro.scheduler.rts import RtsScheduler
    from repro.scheduler.tfa_baseline import TfaScheduler

    sums: Counter = Counter()
    self_ns: Counter = Counter()
    decisions: Counter = Counter()
    p99s = []
    for idx, seed in enumerate(seeds):
        label = f"{name} seed {seed}"
        gc.collect()
        plain = _run_checked(
            tally, label, cells.run_cell, entry, seed,
            expected=expected[idx] if expected else None,
        )
        if plain is None:
            continue
        tally.record(label, plain.failures)

        counted = _run_checked(
            tally, label + " counted", cells.run_cell, entry, seed,
            prof=ProfConfig(enabled=True), check=CheckConfig(sanitize=True),
        )
        if counted is not None:
            tally.record(
                label + " counted",
                counted.failures + _same_outcome(counted, plain, "counted"),
            )
            sums.update(
                counted_events=counted.events,
                kernel_batches=counted.counts["kernel_batches"],
                sanitizer_checks=counted.counts["sanitizer_checks"],
            )

        clock = layers.LayerClock()
        gc.collect()
        with layers.install(clock) as installed:
            for cls in (RtsScheduler, TfaScheduler, BackoffScheduler):
                if "on_conflict" in vars(cls):
                    installed.observe(
                        cls, "on_conflict",
                        lambda decision: decisions.update([decision.kind.value]),
                    )
            run = _run_checked(
                tally, label + " traced", cells.run_cell, entry, seed,
                run_phase=clock.phase(),
            )
        if run is None:
            continue
        problems = run.failures + _same_outcome(run, plain, "traced")
        unattributed = clock.phase_ns[layers.UNATTRIBUTED]
        coverage = (sum(clock.phase_ns.values()) - unattributed) / 1e9 / run.run_s
        if coverage < MIN_COVERAGE:
            problems.append(f"layer self times cover only {coverage:.1%} of the run")
        tally.record(label + " traced", problems)

        sums.update(
            commits=plain.commits, root_aborts=plain.root_aborts,
            events=plain.events, messages=plain.messages,
            plain_s=plain.run_s, traced_s=run.run_s,
        )
        sums.update({k: v for k, v in plain.counts.items() if k != "latency_p99_s"})
        self_ns.update(clock.phase_ns)
        if "latency_p99_s" in plain.counts:
            p99s.append(plain.counts["latency_p99_s"])

    c = max(sums["commits"], 1)
    traced_s = sums["traced_s"] or 1.0

    def per_commit(value: float) -> float:
        return value / c

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def self_ms(layer: str) -> float:
        return self_ns[layer] / 1e6 / c

    conflicts = sum(decisions.values())
    metrics = {
        "sim.events_per_commit": per_commit(sums["events"]),
        "sim.events_per_s": ratio(sums["events"], sums["plain_s"]),
        "sim.mean_batch": ratio(sums["counted_events"], sums["kernel_batches"]),
        "sim.self_ms_per_commit": self_ms("sim"),
        "net.messages_per_commit": per_commit(sums["messages"]),
        "net.events_per_message": ratio(sums["events"], sums["messages"]),
        "net.self_ms_per_commit": self_ms("net"),
        "node.queue_delay_ms": 1e3 * ratio(sums["queueing_delay_s"], sums["messages_processed"]),
        "node.utilisation": ratio(sums["busy_s"], sums["node_s"]),
        "rpc.calls_per_commit": per_commit(sums["rpc_calls"]),
        "rpc.self_ms_per_commit": self_ms("rpc"),
        "dstm.proxy.self_ms_per_commit": self_ms("dstm.proxy"),
        "dstm.tfa.self_ms_per_commit": self_ms("dstm.tfa"),
        "dstm.directory.self_ms_per_commit": self_ms("dstm.directory"),
        "dstm.commit_ratio": ratio(sums["commits"], sums["commits"] + sums["root_aborts"]),
        "dstm.nested_abort_rate": ratio(
            sums["nested_aborts_parent"],
            sums["nested_aborts_parent"] + sums["nested_aborts_own"],
        ),
        "scheduler.conflicts_per_commit": per_commit(conflicts),
        "scheduler.enqueue_share": ratio(decisions["enqueue"], conflicts),
        "scheduler.self_ms_per_commit": self_ms("scheduler"),
        "core.self_ms_per_commit": self_ms("core"),
        "workloads.self_ms_per_commit": self_ms("workloads"),
        "traffic.self_ms_per_commit": self_ms("traffic"),
        "traffic.shed_rate": ratio(sums["shed"], sums["offered"]),
        "traffic.latency_p99_s": statistics.median(p99s) if p99s else 0.0,
        "obs.self_ms_per_commit": self_ms("obs"),
        "obs.events_per_commit": per_commit(sums["obs_events"]),
        "trace.overhead": ratio(sums["traced_s"], sums["plain_s"]),
        "trace.coverage": (
            (sum(self_ns.values()) - self_ns[layers.UNATTRIBUTED]) / 1e9 / traced_s
        ),
    }
    detail = {
        "cells": len(seeds),
        "commits": sums["commits"],
        "sanitizer_checks": sums["sanitizer_checks"],
        "traced_s": sums["traced_s"],
    }
    return metrics, detail


# -- entry point ---------------------------------------------------------------


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the recorded default seed)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measuring time of the end-to-end run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from the traced run")
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"simbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    # The benchmark picks what is checked: no process-wide sanitizer.
    os.environ.pop("REPRO_SANITIZE", None)
    sys.path.insert(0, SRC)
    spec = cells.load_spec()
    entry = spec["workloads"].get(args.workload)
    if entry is None:
        print(f"simbench: unknown workload {args.workload!r}; "
              f"have {sorted(spec['workloads'])}", file=sys.stderr)
        return 2
    seed = spec["default_seed"] if args.seed is None else args.seed
    seeds = cell_seeds(seed, entry["cells"])
    expected = entry["fingerprint"] if seed == spec["default_seed"] else None
    cells.import_repro()

    tally = Tally()
    if args.trace:
        metrics, detail = traced(args.workload, entry, seeds, expected, tally)
    else:
        metrics, detail = end_to_end(
            args.workload, entry, seeds, expected, args.seconds, tally
        )
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": args.workload, "seed": seed, "trace": args.trace,
        **source_stamp(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "ref_loop_ms": statistics.mean(yardstick_samples(0.2)),
        **detail,
        "metrics": metrics,
    }
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Hash randomisation is fixed at interpreter start: restart once.
        env = {**os.environ, "PYTHONHASHSEED": HASH_SEED}
        os.execve(
            sys.executable,
            [sys.executable, os.path.abspath(__file__), *sys.argv[1:]],
            env,
        )
    sys.exit(main())
