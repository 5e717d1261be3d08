"""Tests of the simulator benchmark itself (not of the simulator).

Run from the repository root::

    python -m pytest simbench/tests -q
"""

import json
import os
import re
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import cells  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

#: a cell small enough for a unit test: 4 nodes, half a simulated second
TINY = {
    "workload": "bank",
    "read_fraction": 0.5,
    "workers_per_node": 1,
    "horizon": 0.5,
    "cells": 1,
    "config": {"num_nodes": 4, "scheduler": "rts", "cl_threshold": 4},
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec():
    return cells.load_spec()


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_wrong_fingerprint_is_a_failed_run():
    cells.import_repro()
    good = cells.run_cell(TINY, seed=3)
    assert good.failures == [] and good.commits > 0
    wrong = [good.commits + 1, good.root_aborts]

    tally = run.Tally()
    _, detail = run.end_to_end("tiny", TINY, [3], [wrong], 0.0, tally)
    assert detail["runs"] == 1
    assert tally.attempted == 1 and tally.failed == 1

    tally = run.Tally()
    run.end_to_end("tiny", TINY, [3], [list(good.fingerprint)], 0.0, tally)
    assert tally.attempted == 1 and tally.failed == 0


def test_output_checks_catch_lost_money():
    cells.import_repro()
    cluster, workload, executor = cells.build_cell(TINY, seed=3)
    executor.run()
    oid = workload.accounts[0]
    for proxy in cluster.proxies:
        if oid in proxy.store:
            proxy.store[oid].value += 1
    outcome = cells.CellRun(0.0, cluster.metrics.commits.value, 0, 0, 0)
    failures = cells.check_outputs(cluster, executor, workload, outcome, None)
    assert any("bank total" in f for f in failures)


def _patchable_state():
    """Identity of every attribute the tracer may patch."""
    from repro.sim.process import Process

    state = {("repro.sim.process", "Process"): dict(vars(Process))}
    for entries in layers.TARGETS.values():
        for module_name, path in entries:
            module = __import__(module_name, fromlist=["_"])
            head = path.partition(".")[0]
            obj = getattr(module, head)
            if isinstance(obj, type):
                state[(module_name, head)] = dict(vars(obj))
    for name, module in list(sys.modules.items()):
        if name.startswith("repro"):
            state[name] = dict(vars(module))
    return state


def test_wrappers_restore_every_patched_attribute():
    cells.import_repro()
    before = _patchable_state()
    clock = layers.LayerClock()
    installed = layers.install(clock)
    assert len(installed.patches) > 50
    from repro.sim.core import Environment

    from repro.sim.process import Process

    assert Environment.run is not before[("repro.sim.core", "Environment")]["run"]
    assert Process.__init__ is not before[("repro.sim.process", "Process")]["__init__"]
    installed.restore()
    after = _patchable_state()
    assert after.keys() == before.keys()
    for key, attrs in before.items():
        assert after[key].keys() == attrs.keys(), key
        for attr, value in attrs.items():
            assert after[key][attr] is value, (key, attr)


def test_traced_run_reproduces_untraced_outcome():
    cells.import_repro()
    plain = cells.run_cell(TINY, seed=5)
    clock = layers.LayerClock()
    with layers.install(clock):
        traced = cells.run_cell(TINY, seed=5, run_phase=clock.phase())
    outcome = lambda r: (r.commits, r.root_aborts, r.events, r.messages)  # noqa: E731
    assert outcome(traced) == outcome(plain)
    assert traced.failures == []
    unattributed = clock.phase_ns[layers.UNATTRIBUTED]
    covered = (sum(clock.phase_ns.values()) - unattributed) / 1e9
    assert 0.9 * traced.run_s <= covered <= traced.run_s
    for layer in ("sim", "net", "dstm.proxy", "dstm.tfa", "core", "workloads"):
        assert clock.phase_ns[layer] > 0, layer


def test_unclaimed_process_body_is_unattributed():
    cells.import_repro()
    from repro.sim.core import Environment

    clock = layers.LayerClock()
    with layers.install(clock):
        env = Environment()

        def body():
            for _ in range(3):
                sum(range(20000))
                yield env.timeout(1.0)

        process = env.process(body())
        env.run()
    assert process.name == "body" and process.ok
    assert clock.stack == []
    assert clock.self_ns[layers.UNATTRIBUTED] > clock.self_ns["sim"] > 0


def test_generator_wrapper_passes_values_and_exceptions():
    clock = layers.LayerClock()

    def inner(x):
        got = yield x
        try:
            yield got * 2
        except KeyError:
            yield "caught"
        return "done"

    wrapped = layers._wrap_generator(inner, "sim", clock)
    gen = wrapped(1)
    assert next(gen) == 1
    assert gen.send(5) == 10
    assert gen.throw(KeyError("k")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert clock.stack == [] and clock.self_ns["sim"] > 0


def test_metric_names_and_units(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in spec["per_layer"]:
        assert set(m["on"]) <= set(spec["workloads"]), m["name"]
        assert m["moves"] in (None, *[e["name"] for e in spec["end_to_end"]])


def test_benchmark_json_matches_workload_table(spec, benchmark_json):
    assert [w["name"] for w in benchmark_json["workloads"]] == list(spec["workloads"])
    for w in benchmark_json["workloads"]:
        assert w["why"] == spec["workloads"][w["name"]]["why"]
        assert NAME.fullmatch(w["name"])
    for key in ("end_to_end", "per_layer"):
        ours = [{k: m[k] for k in benchmark_json[key][0]} for m in spec[key]]
        assert benchmark_json[key] == ours, key
    for entry in spec["workloads"].values():
        assert len(entry["fingerprint"]) == entry["cells"]


def test_result_stamp_is_complete():
    stamp = run.source_stamp()
    assert re.fullmatch(r"[0-9a-f]{40}", stamp["git_sha"])
    assert None not in stamp.values()
    assert re.fullmatch(r"[0-9a-f]{40}", run.src_digest())
    assert min(run.yardstick_samples(0.0)) > 0
    assert os.cpu_count()
