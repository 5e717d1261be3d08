"""Same-seed equivalence: the RPC substrate defaults are byte-identical
to the pre-substrate build.

The refactor moved every protocol message onto repro.rpc.  With the
default RpcConfig (batch_window=0, cache off) no batcher exists and the
lookup cache is a drop-in hint dict, so the kernel must execute the
exact same event sequence as before the refactor.  These pins were
recorded from the pre-refactor tree (commit ecd0040) and re-verified
after it: commits, root aborts, AND the total kernel event count.

The event count may be re-pinned on purpose when a refactor changes
only how the kernel gets to the same timeline (the process-free node
message server did: 63,198 -> 41,098 and 23,149 -> 14,845; the
process-free RPC fan-out did: 41,098 -> 32,269 and 14,845 -> 11,944).
The obs JSONL digests do not count kernel events, so they stay the
independent witness that the same simulation happened; the two
order-insensitive witnesses below survive even a change that only
moves records within their own timestamp.

If a change legitimately alters the schedule (a new message, a protocol
fix), re-record the pins in the same commit and say why in its message.
"""

import hashlib
import itertools

import pytest

from repro.core import ClusterConfig, SchedulerKind
from repro.core.config import (
    CheckConfig, ObsConfig, PayloadConfig, ProfConfig, RpcConfig,
)
from repro.core.experiment import run_experiment
from repro.dstm.transaction import Transaction
from repro.net.message import reset_msg_ids

# (workload, num_nodes, seed) -> (commits, root_aborts, sim_events)
PINS = {
    ("bank", 12, 1): (256, 129, 32269),
    ("dht", 6, 3): (515, 23, 11944),
}

#: sha256 of each cell's full obs JSONL event stream, with the global
#: transaction/message id counters restarted at 1 (ids appear in it).
#: bank-n12 was re-pinned when RPC completion moved from the resumed
#: caller process to the reply's arrival: four ``rpc.done`` records now
#: land earlier within their own timestamp (see the witnesses below).
OBS_SHA256 = {
    ("bank", 12, 1):
        "97a35c9a601fd537004633564740e4903f06f17a6f34d1f22f1e17a2f26d206d",
    ("dht", 6, 3):
        "563da88b978483a9e07748bee31ed52ccfb46a4703d403df758f9a67a6f356cb",
}


def run_cell(workload, num_nodes, seed, **config):
    cfg = ClusterConfig(
        num_nodes=num_nodes, seed=seed,
        scheduler=SchedulerKind.RTS, cl_threshold=4, **config,
    )
    return run_experiment(workload, cfg, read_fraction=0.9,
                          workers_per_node=2, horizon=8.0)


@pytest.mark.parametrize("cell", sorted(PINS), ids=lambda c: f"{c[0]}-n{c[1]}")
def test_default_config_matches_pre_substrate_pin(cell):
    result = run_cell(*cell)
    assert (result.commits, result.root_aborts, result.sim_events) == PINS[cell]


@pytest.mark.parametrize("cell", sorted(PINS), ids=lambda c: f"{c[0]}-n{c[1]}")
def test_obs_timeline_matches_pin(cell, tmp_path):
    """Every traced protocol event, in order, with its simulated time:
    a same-timeline witness that does not count kernel events, so it
    survives refactors that only change how the kernel gets there."""
    Transaction._ids = itertools.count(1)
    reset_msg_ids()
    path = tmp_path / "events.jsonl"
    result = run_cell(*cell, obs=ObsConfig(enabled=True, jsonl_path=str(path)))
    assert (result.commits, result.root_aborts) == PINS[cell][:2]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == OBS_SHA256[cell]


#: (sha256 of the stream without its ``rpc.done`` lines, sha256 of the
#: stream's lines sorted bytewise) — recorded before RPC fan-out became
#: process-free and unchanged by it: every other record keeps its exact
#: position, and the set of records is the same.
OBS_WITNESSES = {
    ("bank", 12, 1): (
        "d8cf6b0cabd72deb43a887a5477b15f446f8e7f373be9e0461321635d426c20b",
        "05231b3359b25a9cab4093b898f1d033cc4d7ecd33e7a2f7ad0dbc630d298848",
    ),
    ("dht", 6, 3): (
        "8c2eb8a7263e3a0a6d0a6bfbe079c5d05d1af8769aea0abf6643ec842828898e",
        "b9c968c98859d5f7732ac87b5fca314fbdff8763dc0281ad47d470d5ed17af07",
    ),
}


@pytest.mark.parametrize("cell", sorted(PINS), ids=lambda c: f"{c[0]}-n{c[1]}")
def test_obs_record_set_matches_witness(cell, tmp_path):
    """Where a record lands *within* its timestamp may move when only the
    kernel path changes (RPC completion is traced at reply arrival); what
    the run did may not.  Both witnesses are insensitive to exactly that
    and nothing else: dropping ``rpc.done`` pins every other record's
    position, sorting pins the multiset of all records."""
    Transaction._ids = itertools.count(1)
    reset_msg_ids()
    path = tmp_path / "events.jsonl"
    run_cell(*cell, obs=ObsConfig(enabled=True, jsonl_path=str(path)))
    lines = path.read_bytes().splitlines(keepends=True)
    without_done = b"".join(l for l in lines if b'"cat":"rpc.done"' not in l)
    assert (
        hashlib.sha256(without_done).hexdigest(),
        hashlib.sha256(b"".join(sorted(lines))).hexdigest(),
    ) == OBS_WITNESSES[cell]


def test_explicit_zero_config_is_the_default():
    """batch_window=0.0 + cache=False spelled out must equal the default
    path bit-for-bit — the knobs are strictly additive."""
    cell = ("dht", 6, 3)
    explicit = run_cell(*cell, rpc=RpcConfig(batch_window=0.0, cache=False))
    assert (explicit.commits, explicit.root_aborts,
            explicit.sim_events) == PINS[cell]
    assert explicit.messages_sent > 0
    assert "rpc_batches" not in explicit.extra
    assert "rpc_cache_hits" not in explicit.extra


@pytest.mark.parametrize(
    "prof",
    [ProfConfig(enabled=False), ProfConfig(enabled=True)],
    ids=["off", "counters"],
)
def test_prof_config_preserves_the_pin(prof):
    """ProfConfig is strictly additive in *both* states: enabled=False
    installs no profiler (the run loop pays one is-not-None guard), and
    counters mode only tallies callback dispatches — it never touches
    the schedule, so the committed timeline is still the pin."""
    cell = ("dht", 6, 3)
    result = run_cell(*cell, prof=prof)
    assert (result.commits, result.root_aborts,
            result.sim_events) == PINS[cell]
    if prof.enabled:
        snap = result.extra["prof"]
        # every processed kernel event was attributed
        assert snap["events"] == result.sim_events
        assert snap["mode"] == "counters"
        # batch shape and per-kind mix (simbench's sim.mean_batch)
        assert (snap["events"], snap["batches"], snap["max_batch"]) == (
            11944, 9803, 12,
        )
        # Process: 12 is the 6 nodes x 2 workers — nothing else spawns one
        assert snap["by_event"] == {
            "AllOf": 1, "AnyOf": 6, "Event": 1919, "Process": 12,
            "Timeout": 10006,
        }
    else:
        assert "prof" not in result.extra


def test_payload_config_off_preserves_the_pin():
    """PayloadConfig(enabled=False) — the default, spelled out — builds
    no plane and no wire-cost model, so the committed timeline is still
    the pin bit-for-bit and no payload keys leak into extras."""
    cell = ("dht", 6, 3)
    result = run_cell(*cell, payload=PayloadConfig(enabled=False))
    assert (result.commits, result.root_aborts,
            result.sim_events) == PINS[cell]
    assert "payload_mode" not in result.extra
    assert "payload_bytes_on_wire" not in result.extra


@pytest.mark.parametrize("sanitize", [False, True], ids=["off", "on"])
def test_check_config_preserves_the_pin(sanitize):
    """CheckConfig is strictly additive in *both* states: sanitize=False
    builds no sanitizer (byte-identical by construction), and
    sanitize=True only observes — the sanitizer draws no randomness and
    sends no messages, so the committed timeline is still the pin."""
    cell = ("dht", 6, 3)
    result = run_cell(*cell, check=CheckConfig(sanitize=sanitize))
    assert (result.commits, result.root_aborts,
            result.sim_events) == PINS[cell]


def test_default_controller_is_off_and_pin_holds():
    """The ScheduleController hook defaults to None — the pinned cells
    above already run without it (one is-not-None guard in run()), and
    the slot really is unset on a fresh environment."""
    from repro.core.cluster import Cluster

    assert Cluster(ClusterConfig(num_nodes=2)).env.controller is None
    # The PINS parametrization is the byte-identity evidence; this cell
    # re-checks one of them explicitly next to the controller assertion.
    cell = ("dht", 6, 3)
    result = run_cell(*cell)
    assert (result.commits, result.root_aborts,
            result.sim_events) == PINS[cell]


def test_passthrough_controller_is_byte_identical():
    """A controller that always returns 0 must reproduce the
    uncontrolled schedule event-for-event — the explorer's soundness
    rests on the instrumented loop processing the same events as run()."""
    from repro.core.cluster import Cluster
    from repro.sim import ScheduleController

    def run_once(controller):
        Transaction._ids = itertools.count(1)
        cluster = Cluster(ClusterConfig(
            num_nodes=4, seed=2, scheduler=SchedulerKind.RTS, cl_threshold=4,
        ))
        for i in range(3):
            cluster.alloc(f"o{i}", 0, node=i % 4)
        results = []

        def body(tx, oid):
            value = yield from tx.read(oid)
            yield from tx.compute(0.01)
            yield from tx.write(oid, value + 1)
            return value

        def driver(k):
            yield cluster.env.timeout(0.001 * k)
            value = yield from cluster.atomic(
                body, f"o{k % 3}", node=k % 4, profile="eq"
            )
            results.append((k, value))

        for k in range(6):
            cluster.spawn(driver(k), name=f"tx@{k % 4}")
        cluster.env.controller = controller
        cluster.env.run()
        return (cluster.env.events_processed, cluster.env.now, sorted(results))

    assert run_once(ScheduleController()) == run_once(None)
