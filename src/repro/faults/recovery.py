"""Recovery-side knobs: the RPC timeout/retry policy.

Since the ``repro.rpc`` refactor the policy class lives in
:mod:`repro.rpc.policy` — the substrate every RPC in the system runs
under — and ``RpcPolicy`` is that class, re-exported under its historic
name so existing imports and configs keep working.  The retry loop
itself is the expiry callback of :meth:`repro.net.node.Node.gather`'s
per-call ``_Call`` (driven by :class:`repro.rpc.RpcClient`); the
lease/reclaim mechanics in
:class:`~repro.dstm.directory.DirectoryShard`; the heartbeat,
commit-publish, and orphan-sweep processes in
:class:`~repro.dstm.proxy.TMProxy`.
"""

from __future__ import annotations

from repro.check.sanitize import validate_policy
from repro.rpc.policy import RetryPolicy as RpcPolicy

__all__ = ["RpcPolicy", "validate_policy"]
