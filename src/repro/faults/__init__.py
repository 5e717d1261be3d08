"""Deterministic fault injection and failure recovery (``repro.faults``).

The subsystem has two halves:

* **injection** — :class:`FaultPlan` turns a
  :class:`~repro.core.config.FaultConfig` plus the dedicated ``"faults"``
  RNG stream into a concrete fault timeline (crash windows, partition
  windows, per-message fates); :class:`FaultInjector` installs that plan
  onto a :class:`~repro.net.network.Network`, deciding each message's
  fate at send time and vetoing delivery to crashed nodes;
* **recovery** — :class:`repro.rpc.RetryPolicy` (the stack's single
  retry/backoff policy object) parameterises the RPC substrate's
  timeout/retry loop; the lease/reclaim machinery lives in
  :class:`~repro.dstm.directory.DirectoryShard` and the heartbeat,
  commit-publish, and orphan-sweep processes in
  :class:`~repro.dstm.proxy.TMProxy`.

Everything is driven from config-seeded RNG streams: identical seeds
produce identical fault timelines and therefore bit-identical runs.
"""

from repro.faults.injector import FaultInjector
from repro.faults.plan import CrashWindow, FaultPlan, MessageFate, PartitionWindow

__all__ = [
    "CrashWindow",
    "FaultInjector",
    "FaultPlan",
    "MessageFate",
    "PartitionWindow",
]
