"""Fault mode and the sanitizer's single-writable-copy rule.

Fault mode with every fault rate at zero injects nothing, yet on a few
seeds the RTS bank cell below breaks ``inv-single-writable-copy``: two
nodes hold non-FREE copies of one object at one version, for two
different txids.  The defect is open; the failing seeds are pinned as
strict expected failures so that a fix flips them to passes (and the
``xfail`` marker must then go).  The same seeds are clean with fault mode
off.
"""

import pytest

from repro.check import InvariantViolation
from repro.core.config import ClusterConfig, FaultConfig, SchedulerKind
from repro.core.experiment import run_experiment

#: the smallest reproducer: 2 nodes, seeds 12 and 26 of 0..59
DEFECT_SEEDS = (12, 26)


def run_cell(seed, faults):
    cfg = ClusterConfig(
        num_nodes=2, seed=seed, scheduler=SchedulerKind.RTS, cl_threshold=4,
        faults=FaultConfig(enabled=faults), check=dict(sanitize=True),
    )
    return run_experiment(
        "bank", cfg, read_fraction=0.5, workers_per_node=2, horizon=6.0
    )


@pytest.mark.xfail(
    strict=True, raises=InvariantViolation,
    reason="fault mode forks or mis-reads the writable copy (open defect)",
)
@pytest.mark.parametrize("seed", DEFECT_SEEDS)
def test_fault_mode_keeps_one_writable_copy(seed):
    assert run_cell(seed, faults=True).commits > 0


@pytest.mark.parametrize("seed", DEFECT_SEEDS)
def test_same_seeds_pass_with_fault_mode_off(seed):
    assert run_cell(seed, faults=False).commits > 0
