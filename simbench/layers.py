"""Per-layer host-time attribution for the traced benchmark run.

:func:`install` wraps the public entry points of each ``repro`` layer —
methods on the classes and module-level functions listed in
:data:`TARGETS` — with timers that keep a stack of the layers currently
executing.  A layer's *self time* is the host time during which it is on
top of that stack: time inside its calls minus the time inside nested
wrapped calls of other layers.

``Environment.run`` is wrapped as ``sim``: its own frame is the kernel's
dispatch loop.  The callbacks it dispatches run on top of it; the main
one resumes process bodies.  A process body whose generator function no
layer claims is charged to :data:`UNATTRIBUTED`, not to ``sim``, so a
layer missing from :data:`TARGETS` shows as unattributed time, not as
kernel time.

Generator entry points (``TFAEngine.read``, ``RpcClient.call``,
``run_root``, ...) do their work when the kernel resumes them, not when
they are called, so their wrapper is itself a generator that times each
resume (:func:`_drive`).  Wrappers are installed on the classes before
``Cluster(config)`` (handlers are bound at construction) and every
patched attribute is put back by :meth:`Installed.restore`.  The
wrappers only observe: a traced run must reproduce the untraced run's
simulated outcome exactly.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import time
from typing import Any, Callable, Dict, Generator, Iterator, List, Optional, Tuple

#: layer -> [(module, "Class" or "Class.method" or "function")].  A bare
#: class name wraps every function defined in its body except dunders; a
#: module-level function is also replaced in every ``repro`` module that
#: imported it by name.
TARGETS: Dict[str, List[Tuple[str, str]]] = {
    "sim": [
        ("repro.sim.core", "Environment.run"),
        ("repro.sim.core", "Environment.timeout"),
        ("repro.sim.core", "Environment.event"),
        ("repro.sim.core", "Environment.process"),
        ("repro.sim.core", "Environment.any_of"),
        ("repro.sim.core", "Environment.all_of"),
        ("repro.sim.events", "Event.succeed"),
        ("repro.sim.events", "Event.fail"),
    ],
    "net": [
        ("repro.net.network", "Network"),
        ("repro.net.node", "Node"),
    ],
    "rpc": [
        ("repro.rpc.client", "RpcClient"),
        ("repro.rpc.cache", "LookupCache"),
    ],
    "dstm.proxy": [("repro.dstm.proxy", "TMProxy")],
    "dstm.tfa": [("repro.dstm.tfa", "TFAEngine")],
    "dstm.directory": [("repro.dstm.directory", "DirectoryShard")],
    "scheduler": [
        ("repro.scheduler.base", "SchedulerPolicy"),
        ("repro.scheduler.rts", "RtsScheduler"),
        ("repro.scheduler.queues", "RequesterList"),
        ("repro.scheduler.stats_table", "TransactionStatsTable"),
        ("repro.scheduler.contention_level", "ContentionTracker"),
    ],
    "core": [
        ("repro.core.api", "run_root"),
        ("repro.core.api", "TransactionHandle"),
        ("repro.core.executor", "WorkloadExecutor._worker"),
        ("repro.core.metrics", "MetricsCollector.on_commit"),
        ("repro.core.metrics", "MetricsCollector.on_abort"),
    ],
    "workloads": [
        ("repro.workloads.base", "Workload"),
        ("repro.workloads.bank", "BankWorkload"),
        ("repro.workloads.bank", "transfer"),
        ("repro.workloads.bank", "_transfer_leg"),
        ("repro.workloads.bank", "total_balance"),
        ("repro.workloads.dht", "DhtWorkload"),
        ("repro.workloads.dht", "put_multi"),
        ("repro.workloads.dht", "remove_multi"),
        ("repro.workloads.dht", "get_multi"),
        ("repro.workloads.dht", "_bucket_put"),
        ("repro.workloads.dht", "_bucket_remove"),
    ],
    "traffic": [
        ("repro.traffic.engine", "OpenLoopExecutor._arrivals"),
        ("repro.traffic.engine", "OpenLoopExecutor._dispatcher"),
        ("repro.traffic.admission", "AdmissionQueue"),
        ("repro.traffic.arrivals", "PoissonProcess"),
        ("repro.traffic.popularity", "PopularityModel"),
        ("repro.traffic.stability", "StabilityMonitor"),
    ],
    "obs": [
        ("repro.sim.trace", "Tracer.emit"),
        ("repro.obs.recorder", "ObsRecorder"),
    ],
}

#: pseudo-layer of process bodies no layer claims
UNATTRIBUTED = "unattributed"


class LayerClock:
    """Stack of executing layers and the host ns each spent on top."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = dict.fromkeys([*TARGETS, UNATTRIBUTED], 0)
        self.stack: List[str] = []
        self.mark = 0

        #: the totals of the last :meth:`phase`
        self.phase_ns: Dict[str, int] = dict(self.self_ns)

    @contextlib.contextmanager
    def phase(self) -> Iterator[None]:
        """Count only inside the block: zero the totals on entry, keep them
        in :attr:`phase_ns` on exit (the stack must be empty)."""
        self.self_ns = dict.fromkeys(self.self_ns, 0)
        yield
        self.phase_ns = dict(self.self_ns)

    def enter(self, layer: str) -> None:
        now = time.perf_counter_ns()
        stack = self.stack
        if stack:
            self.self_ns[stack[-1]] += now - self.mark
        stack.append(layer)
        self.mark = now

    def leave(self) -> None:
        now = time.perf_counter_ns()
        self.self_ns[self.stack.pop()] += now - self.mark
        self.mark = now


def _wrap_call(fn: Callable[..., Any], layer: str, clock: LayerClock) -> Callable[..., Any]:
    stack = clock.stack

    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        if stack and stack[-1] == layer:
            return fn(*args, **kwargs)  # same layer: not a boundary
        clock.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            clock.leave()

    return timed


Gen = Generator[Any, Any, Any]


def _drive(gen: Gen, layer: str, clock: LayerClock) -> Gen:
    """Run ``gen`` step by step, charging each resume to ``layer``."""
    stack = clock.stack
    value: Any = None
    error: Optional[BaseException] = None
    while True:
        boundary = not (stack and stack[-1] == layer)
        if boundary:
            clock.enter(layer)
        try:
            if error is None:
                yielded = gen.send(value)
            else:
                yielded = gen.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            if boundary:
                clock.leave()
        try:
            value = yield yielded
            error = None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # resumed with an exception: pass it in
            value, error = None, exc


def _driven(gen: Gen, layer: str, clock: LayerClock) -> Gen:
    """:func:`_drive` over ``gen``, under ``gen``'s name (process names
    default to it)."""
    timed = _drive(gen, layer, clock)
    timed.__name__ = gen.__name__
    timed.__qualname__ = gen.__qualname__
    return timed


def _wrap_generator(fn: Callable[..., Any], layer: str, clock: LayerClock) -> Callable[..., Any]:
    @functools.wraps(fn)
    def timed(*args: Any, **kwargs: Any) -> Any:
        return _driven(fn(*args, **kwargs), layer, clock)

    return timed


def _wrap_process_init(init: Callable[..., Any], clock: LayerClock) -> Callable[..., Any]:
    """``Process.__init__`` that charges unclaimed process bodies to
    :data:`UNATTRIBUTED`."""

    @functools.wraps(init)
    def wrapped(self: Any, env: Any, generator: Any, *args: Any, **kwargs: Any) -> None:
        if inspect.isgenerator(generator) and generator.gi_code is not _drive.__code__:
            generator = _driven(generator, UNATTRIBUTED, clock)
        init(self, env, generator, *args, **kwargs)

    return wrapped


def _wrapper(fn: Callable[..., Any], layer: str, clock: LayerClock) -> Callable[..., Any]:
    if inspect.isgeneratorfunction(fn):
        return _wrap_generator(fn, layer, clock)
    return _wrap_call(fn, layer, clock)


class Installed:
    """Handle on installed wrappers; :meth:`restore` undoes every patch."""

    def __init__(self) -> None:
        #: (owner, attribute, original value), in patch order
        self.patches: List[Tuple[Any, str, Any]] = []

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def observe(self, owner: Any, attr: str, on_result: Callable[[Any], None]) -> None:
        """Also pass every result of ``owner.attr`` to ``on_result``."""
        inner = getattr(owner, attr)

        @functools.wraps(inner)
        def observed(*args: Any, **kwargs: Any) -> Any:
            result = inner(*args, **kwargs)
            on_result(result)
            return result

        self._patch(owner, attr, observed)

    def restore(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()


def _class_methods(cls: type) -> List[str]:
    """Plain functions defined in ``cls``'s own body, dunders excluded."""
    return [
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) and not (name.startswith("__") and name.endswith("__"))
    ]


def install(clock: LayerClock) -> Installed:
    """Wrap every target with a timer that charges ``clock``."""
    from repro.sim.process import Process

    installed = Installed()
    try:
        installed._patch(
            Process, "__init__", _wrap_process_init(Process.__init__, clock)
        )
        for layer, entries in TARGETS.items():
            for module_name, path in entries:
                module = importlib.import_module(module_name)
                head, _, method = path.partition(".")
                obj = getattr(module, head)
                if isinstance(obj, type):
                    for name in [method] if method else _class_methods(obj):
                        installed._patch(obj, name, _wrapper(vars(obj)[name], layer, clock))
                    continue
                wrapped = _wrapper(obj, layer, clock)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("repro") and vars(mod).get(head) is obj:
                        installed._patch(mod, head, wrapped)
    except BaseException:
        installed.restore()
        raise
    return installed
