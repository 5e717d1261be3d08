"""Node runtime: message dispatch, request/reply plumbing, clock handling.

A :class:`Node` is the per-machine container.  Protocol layers (the TM
proxy, directory shard, scheduler) register one plain callback per
:class:`~repro.net.message.MessageType`; the node delivers each inbound
message to its handler after advancing the local TFA clock to the
piggybacked value — the clock-propagation rule TFA relies on.

A positive ``msg_process_time`` queues inbound messages behind a serial
server: a FIFO plus one pending completion callback, so a remote message
costs two kernel events (link + service) and starts no process.

Requests fan out through :meth:`Node.gather`: it sends every
``(dst, payload)`` at once and returns one event that succeeds with the
replies in call order.  Each outstanding call is a :class:`_Call` parked
in ``_pending_replies`` under its message id; replies are matched on
``reply_to``, fill their slot, and the last one triggers the join — no
process per call.  Without a ``policy`` a call waits for its reply
indefinitely; with a :class:`repro.rpc.RetryPolicy` each attempt arms one
expiry whose callback re-sends on the next window or, after the last
attempt, settles the slot as ``None``.  That callback is the stack's one
retry loop, exercised by fault injection (drops, crashes).

:meth:`Node.request` is the blocking one-call form for process code::

    reply = yield from node.request(dst, MessageType.DIR_LOOKUP, {"oid": oid})

and raises :class:`RpcError` when the peer stayed silent.
"""

from __future__ import annotations

import inspect
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional, Tuple

from repro.net.clocks import NodeClock
from repro.net.message import Message, MessageType
from repro.sim import Environment, Event

__all__ = ["Node", "RpcError"]

Handler = Callable[[Message], Any]


class RpcError(RuntimeError):
    """A request did not complete (timeout)."""


class _Fan:
    """State one :meth:`Node.gather` shares across its calls."""

    __slots__ = ("node", "mtype", "policy", "on_timeout", "on_reply",
                 "replies", "remaining", "done")

    def __init__(self, node, mtype, policy, on_timeout, on_reply, done) -> None:
        self.node = node
        self.mtype = mtype
        self.policy = policy
        self.on_timeout = on_timeout
        self.on_reply = on_reply
        #: reply per call, in call order (None until settled / if silent)
        self.replies: List[Optional[Message]] = []
        self.remaining = 0
        self.done = done


class _Call:
    """One outstanding request of a fan-out, and its retry loop.

    It waits in ``Node._pending_replies`` under the current attempt's
    message id, where ``_dispatch`` fills it exactly like an event
    (``triggered`` / ``succeed``).  Under a retry policy each attempt arms
    one expiry :class:`~repro.sim.Timeout`; its callback re-sends on the
    next (growing) window, or settles the call as ``None`` after the last.
    """

    __slots__ = ("fan", "index", "dst", "payload", "attempt", "msg_id",
                 "triggered")

    def __init__(self, fan: _Fan, index: int, dst: int,
                 payload: Optional[dict]) -> None:
        self.fan = fan
        self.index = index
        self.dst = dst
        self.payload = payload
        self.attempt = 0
        self.triggered = False
        self._send()

    def _send(self) -> None:
        fan = self.fan
        node = fan.node
        msg = node.send(self.dst, fan.mtype, self.payload)
        self.msg_id = msg.msg_id
        node._pending_replies[msg.msg_id] = self
        if fan.policy is not None:
            node.env.timeout(fan.policy.nth_timeout(self.attempt)).add_callback(
                self._expired
            )

    def succeed(self, msg: Optional[Message]) -> None:
        """Settle with the reply (``None``: silent through every attempt)."""
        self.triggered = True
        fan = self.fan
        fan.replies[self.index] = msg
        if fan.on_reply is not None:
            fan.on_reply(self.index, msg)
        fan.remaining -= 1
        if not fan.remaining:
            fan.done.succeed(fan.replies)

    def _expired(self, _event: Event) -> None:
        if self.triggered:
            return
        fan = self.fan
        fan.node._pending_replies.pop(self.msg_id, None)
        attempt = self.attempt
        will_retry = attempt + 1 < fan.policy.attempts
        if fan.on_timeout is not None:
            fan.on_timeout(self.index, attempt,
                           fan.policy.nth_timeout(attempt), will_retry)
        if will_retry:
            self.attempt = attempt + 1
            self._send()
        else:
            self.succeed(None)


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
        self._pending_replies: Dict[int, _Call] = {}  # msg_id -> call
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

    def gather(
        self,
        mtype: MessageType,
        calls: Iterable[Tuple[int, Optional[dict]]],
        policy: Optional[Any] = None,
        on_timeout: Optional[Callable[[int, int, float, bool], None]] = None,
        on_reply: Optional[Callable[[int, Optional[Message]], None]] = None,
    ) -> Event:
        """Send ``mtype`` to every ``(dst, payload)`` now; join the replies.

        Returns an event that succeeds once, with the replies in call
        order; a reply is ``None`` when that peer stayed silent through
        every attempt of ``policy`` (a :class:`repro.rpc.RetryPolicy`).
        ``calls`` is consumed lazily, one send per item, so a caller can
        trace each issue right before its send.  ``on_reply(index,
        reply)`` runs as each call settles (at reply time, or after its
        last expiry); ``on_timeout(index, attempt, window, will_retry)``
        after each expired window.  Without a policy calls wait
        indefinitely and arm no timeout.
        """
        done = self.env.event()
        fan = _Fan(self, mtype, policy, on_timeout, on_reply, done)
        for index, (dst, payload) in enumerate(calls):
            fan.replies.append(None)
            fan.remaining += 1
            _Call(fan, index, dst, payload)
        if not fan.remaining:
            done.succeed(fan.replies)
        return done

    def request(
        self,
        dst: int,
        mtype: MessageType,
        payload: Optional[dict] = None,
        policy: Optional[Any] = None,
        on_timeout: Optional[Callable[[int, float, bool], None]] = None,
    ) -> Generator[Any, Any, Message]:
        """Blocking RPC (generator; use with ``yield from``).

        A one-call :meth:`gather`: returns the reply :class:`Message`,
        waiting indefinitely without a ``policy``.  With one, each attempt
        waits ``policy.nth_timeout(attempt)`` — the growing window is the
        backoff — and a peer silent through every attempt raises
        :class:`RpcError`.  ``on_timeout(attempt, window, will_retry)`` is
        invoked after each expired window so callers can count/trace
        retries without owning the loop.  A single bounded wait is
        ``RetryPolicy(timeout=t, max_retries=0)``.
        """
        hook = None if on_timeout is None else (
            lambda _index, attempt, window, will_retry:
            on_timeout(attempt, window, will_retry)
        )
        (reply,) = yield self.gather(mtype, [(dst, payload)], policy, hook)
        if reply is None:
            raise RpcError(
                f"node {self.node_id}: no reply to {mtype.value} from node "
                f"{dst} after {policy.attempts} attempts"
            )
        return reply

    # -- local time -------------------------------------------------------------------

    @property
    def now_local(self) -> float:
        """This node's wall-clock reading (skewed/drifting)."""
        return self.clock.wall_time(self.env.now)

    def __repr__(self) -> str:
        return f"<Node {self.node_id} tfa_clock={self.clock.tfa_clock}>"
