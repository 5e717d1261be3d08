"""The typed caller side of the RPC substrate.

:class:`RpcClient` is what protocol layers hold instead of hand-rolled
``node.request`` loops: it resolves an :class:`~repro.rpc.endpoint.Endpoint`
by name, validates the request payload shape, delegates the deadline /
retry machinery to :meth:`repro.net.node.Node.gather` under the bound
:class:`~repro.rpc.policy.RetryPolicy` (the stack's single retry loop,
the node's callback-driven ``_Call``), and owns the cross-cutting
concerns every call shares: ``rpc.issue`` / ``rpc.done`` /
``fault.rpc_retry`` tracing and the cluster metrics counters.

:meth:`RpcClient.call_all` is the fan-out form: one event joining every
reply in call order, ``None`` for a peer silent through every attempt,
and no process per call.  :meth:`RpcClient.call` is its blocking
one-call form, where a silent peer surfaces as
:class:`~repro.rpc.errors.PeerUnreachable`.

The client also carries the node's :class:`~repro.rpc.cache.LookupCache`
so every layer on the node (proxy opens, TFA validation, fault-recovery
reclaim) folds ownership observations into the *same* cache.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.net.message import Message
from repro.net.node import Node
from repro.rpc.cache import LookupCache
from repro.rpc.endpoint import ENDPOINTS, EndpointRegistry
from repro.rpc.errors import EndpointError, PeerUnreachable
from repro.rpc.policy import RetryPolicy
from repro.sim import Event, Tracer

__all__ = ["RpcClient"]


class RpcClient:
    """Typed RPC calls from one node, under one policy, into one cache."""

    def __init__(
        self,
        node: Node,
        policy: Optional[RetryPolicy] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[Any] = None,
        cache: Optional[LookupCache] = None,
        registry: EndpointRegistry = ENDPOINTS,
    ) -> None:
        self.node = node
        self.env = node.env
        #: None (fault-free build): calls are plain blocking waits with no
        #: timeout events — the legacy behaviour, byte-identical same-seed.
        self.policy = policy
        self.tracer = tracer or Tracer()
        self.metrics = metrics
        self.cache = cache if cache is not None else LookupCache()
        self.registry = registry
        #: host-side call counters (feed the obs report)
        self.calls = 0
        self.failures = 0

    def call(
        self,
        dst: int,
        name: str,
        payload: Optional[Dict[str, Any]] = None,
    ) -> Generator[Any, Any, Message]:
        """Issue endpoint ``name`` at ``dst`` (generator; ``yield from``).

        Returns the reply :class:`~repro.net.message.Message`; raises
        :class:`PeerUnreachable` when the policy's attempts are exhausted.
        """
        (reply,) = yield self.call_all(name, [(dst, payload)])
        if reply is None:
            raise PeerUnreachable(
                dst, self.registry.get(name).request.value, self.policy.attempts
            )
        return reply

    def call_all(
        self,
        name: str,
        calls: Iterable[Tuple[int, Optional[Dict[str, Any]]]],
        on_reply: Optional[Callable[[int, Optional[Message]], None]] = None,
    ) -> Event:
        """Issue endpoint ``name`` at every ``(dst, payload)`` at once.

        Returns an event succeeding with the replies in call order; a
        reply is ``None`` when its peer stayed silent through every
        attempt of the policy.  ``on_reply(index, reply)`` runs as each
        call settles, right after its ``rpc.done`` record.
        """
        endpoint = self.registry.get(name)
        if not endpoint.is_rpc:
            raise EndpointError(
                f"endpoint {name!r} is one-way; use Node.send, not call()"
            )
        calls = list(calls)
        for _dst, payload in calls:
            endpoint.check_request(payload)
        mtype = endpoint.request
        tracer = self.tracer
        rpc_trace = tracer.wants("rpc.issue")
        retries: List[int] = [0] * len(calls)

        def issue():
            # Lazily consumed by gather: each issue record lands right
            # before its own send (and any fault.* record that send makes).
            for dst, payload in calls:
                self.calls += 1
                if rpc_trace:
                    tracer.emit(
                        self.env.now, "rpc.issue", mtype.value,
                        node=f"n{self.node.node_id}", dst=dst,
                    )
                yield dst, payload

        def settled(index: int, reply: Optional[Message]) -> None:
            if reply is None:
                self.failures += 1
            if rpc_trace:
                tracer.emit(
                    self.env.now, "rpc.done", mtype.value,
                    node=f"n{self.node.node_id}", dst=calls[index][0],
                    ok=reply is not None, retries=retries[index],
                )
            if on_reply is not None:
                on_reply(index, reply)

        def timed_out(index: int, attempt: int, window: float,
                      will_retry: bool) -> None:
            if self.metrics is not None:
                self.metrics.rpc_timeouts.increment()
            if will_retry:
                retries[index] = attempt + 1
                if self.metrics is not None:
                    self.metrics.rpc_retries.increment()
                if tracer.wants("fault.rpc_retry"):
                    tracer.emit(
                        self.env.now, "fault.rpc_retry", mtype.value,
                        dst=calls[index][0], attempt=attempt + 1,
                        window=window,
                    )

        return self.node.gather(mtype, issue(), self.policy, timed_out, settled)

    def __repr__(self) -> str:
        return (
            f"<RpcClient n{self.node.node_id} calls={self.calls} "
            f"failures={self.failures} policy={self.policy}>"
        )
