"""Node runtime: message dispatch, request/reply plumbing, clock handling.

A :class:`Node` is the per-machine container.  Protocol layers (the TM
proxy, directory shard, scheduler) register one plain callback per
:class:`~repro.net.message.MessageType`; the node delivers each inbound
message to its handler after advancing the local TFA clock to the
piggybacked value — the clock-propagation rule TFA relies on.

A positive ``msg_process_time`` queues inbound messages behind a serial
server: a FIFO plus one pending completion callback, so a remote message
costs two kernel events (link + service) and starts no process.

The :meth:`Node.request` helper implements blocking RPC for process code::

    reply = yield from node.request(dst, MessageType.DIR_LOOKUP, {"oid": oid})

Replies are matched on ``reply_to``.  Without a ``policy`` the caller
waits for the reply indefinitely; with a :class:`repro.rpc.RetryPolicy`
each attempt waits one window and the last expiry raises
:class:`RpcError` — the path fault injection (drops, crashes) exercises.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Callable, Dict, Generator, Optional

from repro.net.clocks import NodeClock
from repro.net.message import Message, MessageType
from repro.sim import Environment

__all__ = ["Node", "RpcError"]

Handler = Callable[[Message], Any]


class RpcError(RuntimeError):
    """A request did not complete (timeout)."""


class Node:
    """One simulated machine attached to a :class:`~repro.net.network.Network`."""

    def __init__(
        self,
        env: Environment,
        network: "Network",  # noqa: F821
        node_id: int,
        clock: Optional[NodeClock] = None,
        msg_process_time: float = 0.0,
    ) -> None:
        self.env = env
        self.network = network
        self.node_id = node_id
        self.clock = clock or NodeClock(node_id)
        self._handlers: Dict[MessageType, Handler] = {}
        self._pending_replies: Dict[int, Any] = {}  # msg_id -> Event
        #: per-message CPU service time of this node's proxy stack.  When
        #: positive, inbound messages queue behind each other (a serial
        #: server): hot nodes congest, so protocols that flood the network
        #: with retries pay for it — the "additional requests incur more
        #: contention" effect of the paper (§IV-C).
        self.msg_process_time = float(msg_process_time)
        #: (arrival time, message) FIFO; the head is in service
        self._inbox: deque = deque()
        #: total messages processed and cumulative queueing delay
        self.messages_processed = 0
        self.total_queueing_delay = 0.0
        #: replies that arrived after their RPC waiter gave up (timeout)
        #: and that no handler wanted — dropped, counted here.  Only
        #: nonzero under fault injection.
        self.late_replies = 0
        network.attach(self)

    # -- handler registry -------------------------------------------------------

    def on(self, mtype: MessageType, handler: Handler) -> None:
        """Register ``handler`` for ``mtype`` (one handler per type).

        Handlers are plain callbacks; one that must block spawns its own
        process.  A generator function would never run, so it is refused.
        """
        # co_flags, not inspect.isgeneratorfunction: 3x cheaper at set-up
        code = getattr(handler, "__code__", None)
        if code is not None and code.co_flags & inspect.CO_GENERATOR:
            raise TypeError(f"node {self.node_id}: {mtype} handler is a "
                            f"generator function, not a plain callback")
        if mtype in self._handlers:
            raise ValueError(f"node {self.node_id}: handler for {mtype} already set")
        self._handlers[MessageType(mtype)] = handler

    # -- inbound ------------------------------------------------------------------

    def deliver(self, msg: Message) -> None:
        """Entry point called by the network on message arrival.

        With a zero service time the message dispatches inline; otherwise
        it queues behind the node's serial message server.
        """
        if self.msg_process_time <= 0.0:
            self._dispatch(msg)
            return
        self._inbox.append((self.env.now, msg))
        if len(self._inbox) == 1:
            self.env.timeout(self.msg_process_time).add_callback(self._served)

    def _served(self, _event) -> None:
        """The head's service period ended: dispatch it, arm the next."""
        arrived, msg = self._inbox[0]
        self.messages_processed += 1
        self.total_queueing_delay += self.env.now - arrived
        self._dispatch(msg)
        self._inbox.popleft()
        if self._inbox:
            self.env.timeout(self.msg_process_time).add_callback(self._served)

    def _dispatch(self, msg: Message) -> None:
        # TFA rule: advance the local transactional clock to any larger
        # observed value before processing.
        self.clock.advance_to(msg.clock)

        if msg.reply_to is not None:
            waiter = self._pending_replies.pop(msg.reply_to, None)
            if waiter is not None and not waiter.triggered:
                waiter.succeed(msg)
                return
            # Fall through: unsolicited/late replies go to handlers too
            # (the RTS object hand-off after backoff expiry needs this).
        handler = self._handlers.get(msg.mtype)
        if handler is None:
            if msg.reply_to is not None:
                # A reply to an RPC that timed out and moved on (fault
                # injection): stale information, safe to discard.  Replies
                # that carry recoverable state (object transfers) have
                # dedicated handlers and never reach this branch.
                self.late_replies += 1
                return
            raise LookupError(
                f"node {self.node_id} has no handler for {msg.mtype} "
                f"(message {msg!r})"
            )
        handler(msg)

    # -- outbound ------------------------------------------------------------------

    def send(
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[dict] = None,
        reply_to: Optional[int] = None,
        wire_bytes: int = 0,
    ) -> Message:
        """Fire-and-forget send; returns the message (for its id).

        ``wire_bytes`` declares payload-plane bytes riding the message
        (object bodies, eager grants); the network's optional cost model
        charges them, so they must be set here — before dispatch — not
        patched onto the message afterwards.
        """
        msg = Message(
            mtype,
            self.node_id,
            dst,
            payload or {},
            clock=self.clock.tfa_clock,
            reply_to=reply_to,
        )
        if wire_bytes:
            msg.wire_bytes = wire_bytes
        self.network.send(msg)
        return msg

    def reply(
        self,
        to: Message,
        mtype: MessageType,
        payload: Optional[dict] = None,
        wire_bytes: int = 0,
    ) -> Message:
        """Answer a request message."""
        return self.send(
            to.src, mtype, payload, reply_to=to.msg_id, wire_bytes=wire_bytes
        )

    def request(
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[dict] = None,
        policy: Optional[Any] = None,
        on_timeout: Optional[Callable[[int, float, bool], None]] = None,
    ) -> Generator[Any, Any, Message]:
        """Blocking RPC (generator; use with ``yield from``).

        Returns the reply :class:`Message`.  Without a ``policy`` it waits
        for the reply indefinitely.

        With a ``policy`` (a :class:`repro.rpc.RetryPolicy`) this is THE
        retry loop of the whole stack: each attempt re-sends the request
        and awaits the reply under ``policy.nth_timeout(attempt)`` — the
        growing window is the backoff — until a reply lands or every
        attempt is exhausted (:class:`RpcError`).  ``on_timeout(attempt,
        window, will_retry)`` is invoked after each expired window so
        callers can count/trace retries without owning the loop.  A
        single bounded wait is ``RetryPolicy(timeout=t, max_retries=0)``.
        """
        if policy is not None:
            attempts = policy.max_retries + 1
            for attempt in range(attempts):
                window = policy.nth_timeout(attempt)
                msg = self.send(dst, mtype, payload)
                waiter = self.env.event()
                self._pending_replies[msg.msg_id] = waiter
                expiry = self.env.timeout(window)
                outcome = yield (waiter | expiry)
                if waiter in outcome:
                    return outcome[waiter]
                self._pending_replies.pop(msg.msg_id, None)
                if on_timeout is not None:
                    on_timeout(attempt, window, attempt + 1 < attempts)
            raise RpcError(
                f"node {self.node_id}: no reply to {mtype.value} from node "
                f"{dst} after {attempts} attempts"
            )
        msg = self.send(dst, mtype, payload)
        waiter = self.env.event()
        self._pending_replies[msg.msg_id] = waiter
        reply = yield waiter
        return reply

    # -- local time -------------------------------------------------------------------

    @property
    def now_local(self) -> float:
        """This node's wall-clock reading (skewed/drifting)."""
        return self.clock.wall_time(self.env.now)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} tfa_clock={self.clock.tfa_clock}>"
