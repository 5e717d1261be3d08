"""A fixed pure-Python yardstick of host speed.

A shared host can drift in speed by tens of percent over seconds.
:func:`yardstick_samples` times a small, fixed discrete-event loop
that exercises what the simulator spends its time on — generator
resumes, a binary heap, small slotted objects and dict churn — but uses
no code of the repository, so a change to the simulator cannot move it.
Sampled between the cells of a run, its mean is the host speed the run
had; a single sample is too short to speak for one cell.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Any, Dict, Generator, List, Tuple


class _Msg:
    __slots__ = ("src", "dst", "payload")

    def __init__(self, src: int, dst: int, payload: Dict[str, int]) -> None:
        self.src = src
        self.dst = dst
        self.payload = payload


#: simulated processes and steps per process of the fixed loop
PROCS = 64
STEPS = 200


def _loop() -> None:
    inbox: Dict[int, List[_Msg]] = {}

    def proc(k: int) -> Generator[float, None, None]:
        for n in range(STEPS):
            msg = _Msg(k, (k * 7 + n) % PROCS, {"n": n})
            box = inbox.setdefault(msg.dst, [])
            box.append(msg)
            if len(box) > 4:
                box.pop(0)
            yield 0.001 * ((k + n) % 5 + 1)

    queue: List[Tuple[float, int, Any]] = []
    seq = 0
    for k in range(PROCS):
        heapq.heappush(queue, (0.0, seq, proc(k)))
        seq += 1
    while queue:
        when, _, gen = heapq.heappop(queue)
        try:
            delay = next(gen)
        except StopIteration:
            continue
        seq += 1
        heapq.heappush(queue, (when + delay, seq, gen))


def yardstick_samples(seconds: float) -> List[float]:
    """Host ms of each run of the fixed loop, run for about ``seconds``
    (at least once).

    The garbage collector is off while the loop runs, so a sample never
    pays for collecting garbage the caller left behind.
    """
    times: List[float] = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        end = time.perf_counter() + seconds
        while not times or time.perf_counter() < end:
            t0 = time.perf_counter()
            _loop()
            times.append((time.perf_counter() - t0) * 1e3)
    finally:
        if enabled:
            gc.enable()
    return times
