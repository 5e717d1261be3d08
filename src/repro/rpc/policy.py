"""The deadline/retry/backoff policy — the *one* place timeout shapes live.

Every RPC in the system (proxy object opens, directory registrations,
validation fan-outs, fault-recovery publishes, the orphan sweep) is
awaited under a :class:`RetryPolicy`, and
:meth:`repro.net.node.Node.gather` consumes it directly: each outstanding
``_Call`` arms one expiry per attempt, whose callback re-sends or gives
up — the stack's one retry loop.

Retry semantics: attempt 0 waits ``timeout``; each subsequent attempt
multiplies the wait by ``backoff_factor`` up to ``backoff_cap`` — the
growing timeout *is* the exponential backoff (there is no separate
sleep, so a recovered peer is re-probed as soon as the previous window
closes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.config import FaultConfig

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout/backoff parameters for RPCs over the simulated network."""

    timeout: float = 0.25
    max_retries: int = 5
    backoff_factor: float = 2.0
    backoff_cap: float = 2.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be > 0")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if self.backoff_cap < self.timeout:
            raise ValueError("backoff_cap must be >= timeout")

    @classmethod
    def from_config(cls, faults: "FaultConfig") -> "RetryPolicy":
        return cls(
            timeout=faults.rpc_timeout,
            max_retries=faults.rpc_max_retries,
            backoff_factor=faults.rpc_backoff_factor,
            backoff_cap=faults.rpc_backoff_cap,
        )

    @property
    def attempts(self) -> int:
        """Total send attempts (first try + retries)."""
        return self.max_retries + 1

    def nth_timeout(self, attempt: int) -> float:
        """The reply window used on ``attempt`` (0-based)."""
        return min(self.timeout * self.backoff_factor**attempt, self.backoff_cap)

    def worst_case_wait(self) -> float:
        """Total simulated time an unreachable peer can cost one RPC."""
        return sum(self.nth_timeout(i) for i in range(self.max_retries + 1))
