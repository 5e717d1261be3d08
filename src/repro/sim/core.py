"""The event loop: :class:`Environment`.

The environment owns the simulated clock and the pending-event schedule.
Schedule entries are keyed ``(time, priority, sequence)``; the
monotonically increasing sequence number makes processing order — and
therefore every simulation in this repository — fully deterministic.

The schedule lives in a :class:`~repro.sim.calendar.CalendarQueue`
(time buckets + far-future overflow heap) rather than a global binary
heap: near-term pushes are amortized O(1) appends and the fast run loop
drains every event tied at the current ``(time, priority)`` in one batch,
which is where the 10–80-node event mix spends its time.  The queue pops
in exact ``(time, priority, sequence)`` tuple order, so the processed
event sequence is byte-identical to the old heap build (pinned in
``tests/rpc/test_equivalence.py`` and ``tests/sim/test_calendar.py``).
A profiled or controlled run takes the one instrumented per-event loop
instead; it and :meth:`Environment.step` share the per-event body
(:meth:`Environment._fire`).

Typical use::

    env = Environment()

    def worker(env, duration):
        yield env.timeout(duration)
        return duration * 2

    proc = env.process(worker(env, 5.0))
    env.run()
    assert env.now == 5.0 and proc.value == 10.0
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Iterable, Iterator, Optional

from repro.sim.calendar import CalendarQueue, Entry
from repro.sim.events import (
    AllOf,
    AnyOf,
    Event,
    Timeout,
    _PENDING,
)
from repro.sim.process import Process

__all__ = ["Environment", "ScheduleController", "SimulationError", "EmptySchedule"]


class SimulationError(RuntimeError):
    """Base class for kernel-level errors."""


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class ScheduleController:
    """Hook over the kernel's schedule-pop choice points.

    When installed (``env.controller = controller``) ``run()`` takes the
    instrumented per-event loop (:meth:`Environment._run_instrumented`),
    which at every pop hands the controller the *ready set* — every
    pending entry tied at the minimal ``(time, priority)`` — and lets it
    either

    * **pick** which tied entry to process (``return i``), overriding the
      sequence-number tie-break, or
    * **defer** one of them by a positive delay
      (``return ("defer", i, delta)``), re-enqueueing it at
      ``when + delta`` with a fresh sequence number — the bounded
      message-delay jitter the systematic explorer
      (:mod:`repro.check.explore`) uses to reorder in-flight deliveries.

    The default implementation always returns ``0`` (the seq-minimal
    entry), which reproduces the uncontrolled schedule exactly.  While
    ``select`` runs, ``env.now`` already stands at the ready set's time.  A
    kernel profiler installed alongside composes with the controller: it
    meters the dispatches of whatever the controller chose.
    """

    def select(
        self,
        env: "Environment",
        when: float,
        priority: int,
        ready: "list[tuple[float, int, int, Event]]",
        next_time: float,
    ) -> "int | tuple[str, int, float]":
        """Choose among ``ready`` (seq-ordered ties at ``(when, priority)``).

        ``next_time`` is the time of the earliest pending entry *behind*
        the ready set (``inf`` when none), so deferral targets can be
        computed without touching the schedule.
        """
        return 0


class Environment:
    """A deterministic discrete-event simulation environment."""

    __slots__ = (
        "_now", "_queue", "_qpush", "_seq",
        "events_processed", "profiler", "controller",
    )

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._queue = CalendarQueue(origin=self._now)
        # Bound push, pre-resolved for the kernel hot sites (Timeout
        # construction, Event.succeed/fail, process bootstrap): one
        # attribute load instead of two on every schedule insert.
        self._qpush = self._queue.push
        self._seq = 0
        #: number of events processed so far (useful for progress/limits)
        self.events_processed = 0
        #: opt-in kernel profiler (:class:`repro.prof.KernelProfiler`);
        #: None keeps run() on the unprofiled fast loop (one guard)
        self.profiler: Optional[Any] = None
        #: opt-in schedule controller (:class:`ScheduleController`); None
        #: keeps run() on the uncontrolled fast loop (one guard)
        self.controller: Optional[ScheduleController] = None

    # -- clock ---------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    # -- event factories -------------------------------------------------------

    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self,
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        return AllOf(self, events)

    # -- scheduling (kernel-internal) ------------------------------------------

    def _enqueue(self, delay: float, priority: int, event: Event) -> None:
        # Reference scheduling path.  The kernel hot sites (Timeout
        # construction, Event.succeed/fail, process bootstrap) inline this
        # push; they must stay semantically identical to it.
        if event._scheduled:
            raise SimulationError(f"{event!r} scheduled twice")
        event._scheduled = True
        self._seq += 1
        self._queue.push((self._now + delay, priority, self._seq, event))

    def pending_entries(self) -> Iterator[Entry]:
        """Snapshot iterator over the scheduled ``(when, prio, seq, event)``
        entries (deterministic order, not time-sorted).  Read-only: used
        by the systematic explorer's independence checks and by tests."""
        return self._queue.entries()

    # -- execution ----------------------------------------------------------------

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` when none remain.

        Pure read: safe to call from process/event callbacks while a run
        loop is mid-batch (the queue's ``next_time`` never restructures).
        """
        return self._queue.next_time()

    def _fire(
        self,
        event: Any,
        dispatch: Optional[Callable[[Any, list], None]] = None,
    ) -> None:
        """Process one popped event: the per-event body of :meth:`step`
        and of the instrumented loop (:meth:`_run_instrumented`).

        Materialises a Timeout's value, detaches the callbacks (a late
        ``add_callback()`` then runs synchronously), dispatches them —
        through ``dispatch(event, callbacks)`` when a profiler meters
        them — and re-raises the exception of any *failed* event that no
        process consumed.  :meth:`run`'s fast path inlines this body and
        must stay semantically identical to it.
        """
        if event._value is _PENDING:
            # Auto-firing event (Timeout): materialise its value now.
            event._ok = True
            event._value = event._fire_value

        callbacks = event.callbacks
        event.callbacks = None
        event._processed = True
        if dispatch is None:
            for callback in callbacks:
                callback(event)
        else:
            dispatch(event, callbacks)

        if not event._ok and not event._defused:
            raise event._value

    def step(self) -> None:
        """Process exactly one event.

        Raises :class:`EmptySchedule` when the schedule is empty, and
        re-raises the exception of any *failed* event that no process
        consumed (an uncaught failure anywhere in the simulation should
        crash the run loudly, never vanish).  Pops through
        :meth:`CalendarQueue.pop`, the single-step form of the very walk
        :meth:`run` batch-drains (pinned by
        ``tests/sim/test_calendar.py::test_step_matches_run``).
        """
        entry = self._queue.pop()
        if entry is None:
            raise EmptySchedule("no events scheduled")
        when, _prio, _seq, event = entry
        self._now = when
        self.events_processed += 1
        self._fire(event)

    def run(
        self,
        until: Optional[float | Event] = None,
        max_events: Optional[int] = None,
    ) -> Any:
        """Run the simulation.

        ``until`` may be a time (run until the clock would pass it), an
        :class:`Event` (run until it is processed, returning its value), or
        ``None`` (run the schedule dry).  ``max_events`` bounds the number of
        processed events as a runaway guard.

        The loop body is :meth:`_fire` inlined with the calendar queue's
        drain cursor held in locals, plus **batch draining**: every event
        tied at the current ``(time, priority)`` is consumed by one inner
        walk over the sorted current bucket — same-timestamp delivery
        bursts pay the outer-loop bookkeeping once, not per event
        (``benchmarks/bench_kernel.py --workload message-storm`` measures
        exactly this).  Ties created *during* the batch (zero-delay
        cascades) insert into the live tail and are swept up by the same
        walk.  A profiler or controller sends the run through
        :meth:`_run_instrumented` instead, which must process the same
        event sequence (a pass-through controller and the profiler are
        pinned byte-identical to this loop).
        """
        stop_event, stop_time = self._parse_until(until)
        if self.profiler is not None or self.controller is not None:
            # Single additive guard: instrumented runs take the per-event
            # loop, so the uninstrumented path below stays untouched.
            self._run_instrumented(stop_event, stop_time, max_events)
            return self._finish(stop_event, stop_time)

        queue = self._queue
        advance = queue._advance
        processed_at_start = self.events_processed
        processed = self.events_processed
        try:
            while advance():
                if stop_event is not None and stop_event._processed:
                    break
                cur = queue._current
                cpos = queue._cpos
                head = cur[cpos]
                when = head[0]
                if when > stop_time:
                    self._now = stop_time
                    break
                prio = head[1]
                self._now = when
                # Batch-drain the (when, prio) tie class with a bare
                # pointer walk.  Drain state (queue cursor, processed
                # count) is synced to the queue only where user code can
                # observe or escape the loop — before callback dispatch
                # and at batch end — so the callback-free majority of a
                # delivery burst pays no bookkeeping stores at all.
                # `n` bounds indexing, not the batch: ties appended past
                # it are swept by the next advance() round, and the live
                # cur[cpos] re-read below keeps a same-time *urgent*
                # push correctly ordered (it breaks the batch).
                n = len(cur)
                if max_events is not None:
                    allowed = processed_at_start + max_events - processed
                    if allowed <= 0:
                        raise SimulationError(
                            f"exceeded max_events={max_events}"
                        )
                    if n - cpos > allowed:
                        n = cpos + allowed
                base = cpos
                while True:
                    event = cur[cpos][3]
                    cpos += 1

                    if event._value is _PENDING:
                        # Auto-firing event (Timeout): materialise its value.
                        event._ok = True
                        event._value = event._fire_value

                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        queue._cpos = cpos
                        processed += cpos - base
                        base = cpos
                        for callback in callbacks:
                            callback(event)

                    if not event._ok and not event._defused:
                        queue._cpos = cpos
                        processed += cpos - base
                        raise event._value
                    if stop_event is not None and stop_event._processed:
                        break
                    if cpos < n:
                        nxt = cur[cpos]
                        if nxt[0] == when and nxt[1] == prio:
                            continue
                    break
                queue._cpos = cpos
                processed += cpos - base
        finally:
            self.events_processed = processed
        return self._finish(stop_event, stop_time)

    def _parse_until(
        self, until: Optional[float | Event]
    ) -> "tuple[Optional[Event], float]":
        """Split run()'s ``until`` into ``(stop_event, stop_time)``."""
        if isinstance(until, Event):
            return until, float("inf")
        if until is None:
            return None, float("inf")
        stop_time = float(until)
        if stop_time < self._now:
            raise ValueError(f"until={stop_time} is in the past (now={self._now})")
        return None, stop_time

    def _finish(self, stop_event: Optional[Event], stop_time: float) -> Any:
        """run()'s result: the stop event's value, or None for a horizon."""
        if stop_event is not None:
            if not stop_event.triggered:
                raise SimulationError(
                    "run(until=event) exhausted the schedule before the event fired"
                )
            if not stop_event.ok:
                raise stop_event.value
            return stop_event.value
        if stop_time != float("inf") and self._now < stop_time:
            # Schedule ran dry before the horizon: advance to it for callers
            # that compute rates over the requested window.
            self._now = stop_time
        return None

    def _run_instrumented(
        self,
        stop_event: Optional[Event],
        stop_time: float,
        max_events: Optional[int],
    ) -> None:
        """The per-event run loop, taken when a profiler or a schedule
        controller is installed; it honours both when both are.

        Semantically :meth:`run` one pop at a time, with two optional
        hooks:

        * the **controller** (:class:`ScheduleController`) picks which
          entry of the ready tie slice runs, or defers one of them.  The
          ready set materialises as one contiguous slice of the calendar
          queue's sorted current bucket — a bucket scan, not repeated
          pops; a controller that always returns ``0`` reproduces the
          uncontrolled schedule event-for-event (pinned in the
          equivalence tests);
        * the **profiler** (:class:`repro.prof.KernelProfiler`) tallies
          batches — a change of ``(when, prio)`` from the previous pop,
          reset at each call — and meters callback dispatch.  It never
          touches the schedule.

        The per-event body is :meth:`_fire`, shared with :meth:`step`.
        """
        prof = self.profiler
        controller = self.controller
        dispatch = None
        if prof is not None:
            prof.begin_run()
            dispatch = prof.dispatch
        queue = self._queue
        limit = float("inf")
        if max_events is not None:
            limit = self.events_processed + max_events
        while queue._advance():
            if stop_event is not None and stop_event._processed:
                break
            cur = queue._current
            cpos = queue._cpos
            when, prio, _seq, event = cur[cpos]
            if when > stop_time:
                self._now = stop_time
                break
            self._now = when
            if self.events_processed >= limit:
                raise SimulationError(f"exceeded max_events={max_events}")

            if controller is None:
                queue._cpos = cpos + 1
            else:
                # Materialise the ready set: the contiguous run of
                # entries tied at the minimal (time, priority).  The
                # current bucket is sorted, and a tie class can never
                # straddle a bucket boundary (equal times share one
                # bucket) or reach into the far heap, so the slice IS
                # the complete tie.  It is detached from the schedule
                # while the controller deliberates.
                j = cpos + 1
                n = len(cur)
                while j < n and cur[j][0] == when and cur[j][1] == prio:
                    j += 1
                ready = cur[cpos:j]
                del cur[cpos:j]
                choice = controller.select(
                    self, when, prio, ready, queue.next_time()
                )
                if isinstance(choice, tuple):
                    kind, index, delta = choice
                    if kind != "defer" or not delta > 0.0:
                        raise SimulationError(
                            f"controller returned invalid choice {choice!r}"
                        )
                    deferred = ready.pop(index)
                    self._seq += 1
                    queue.push((when + delta, prio, self._seq, deferred[3]))
                    event = None
                else:
                    event = ready.pop(choice)[3]
                for entry in ready:
                    queue.push(entry)
                if event is None:
                    continue

            self.events_processed += 1
            if prof is not None:
                prof.tally(when, prio)
            self._fire(event, dispatch)
