"""Transactional schedulers: the paper's contribution and its baselines.

* :class:`~repro.scheduler.rts.RtsScheduler` — the Reactive Transactional
  Scheduler (§III): decides, per losing *parent* transaction, between
  abort and enqueue-with-backoff, using the contention level (CL) and the
  transaction's elapsed execution time; maintains the per-object
  ``scheduling_List`` and per-object backlog ``bk``.
* :class:`~repro.scheduler.tfa_baseline.TfaScheduler` — plain TFA: abort
  the loser, retry immediately ("TFA" in §IV).
* :class:`~repro.scheduler.backoff.BackoffScheduler` — TFA plus randomised
  exponential backoff before retry ("TFA+Backoff" in §IV).

Support modules: :mod:`~repro.scheduler.queues` (requester lists),
:mod:`~repro.scheduler.contention_level` (windowed CL tracking),
:mod:`~repro.scheduler.stats_table` (the EWMA commit-time history that
produces the ETS expected-commit estimate), and
:mod:`~repro.scheduler.adaptive` (the adaptive CL-threshold controller).
"""

from repro.scheduler.base import (
    ConflictContext,
    ConflictDecision,
    DecisionKind,
    SchedulerPolicy,
)
from repro.scheduler.backoff import BackoffScheduler
from repro.scheduler.rts import RtsScheduler
from repro.scheduler.tfa_baseline import TfaScheduler

__all__ = [
    "BackoffScheduler",
    "ConflictContext",
    "ConflictDecision",
    "DecisionKind",
    "RtsScheduler",
    "SchedulerPolicy",
    "TfaScheduler",
]


def make_scheduler(kind: str, **kwargs) -> SchedulerPolicy:
    """Factory: ``kind`` in {"rts", "tfa", "tfa-backoff"}."""
    key = kind.lower().replace("_", "-")
    if key == "rts":
        return RtsScheduler(**kwargs)
    if key == "tfa":
        return TfaScheduler(**kwargs)
    if key in ("tfa-backoff", "backoff"):
        return BackoffScheduler(**kwargs)
    raise ValueError(f"unknown scheduler kind {kind!r}")
