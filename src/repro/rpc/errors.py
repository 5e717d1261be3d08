"""Errors of the RPC substrate."""

from __future__ import annotations

__all__ = ["EndpointError", "PeerUnreachable"]


class EndpointError(ValueError):
    """A call violated an endpoint's declared request/reply shape."""


class PeerUnreachable(RuntimeError):
    """An RPC peer stayed silent through every timeout/retry attempt.

    Protocol layers catch it and convert it into their domain failure
    (the D-STM aborts the root with ``AbortReason.OWNER_FAILURE``).
    """

    def __init__(self, dst: int, what: str, attempts: int) -> None:
        super().__init__(f"node {dst} unreachable: {what} failed {attempts}x")
        self.dst = dst
        self.what = what
        self.attempts = attempts
