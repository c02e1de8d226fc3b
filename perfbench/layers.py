"""Per-layer timing from outside the program: wrap each layer's public methods.

:class:`LayerTracer` replaces the public methods of each layer's classes with
thin wrappers that keep a span stack.  A span's *self time* is its duration
minus the time covered by its child spans, so the self times of every layer
plus the root's own time (``remainder``) add up to the traced wall time by
construction.
Nothing under ``src/`` changes; install the tracer before the simulator is
built, because nodes bind ``NodeLoadIndex.touch`` when they are created.

Layers are named after the ``repro`` modules that define the classes.
Module-level functions imported by name (``bound_work``,
``normalized_load``), private methods, properties and timer closures stay in
their caller's self time; the kernels' run loops are the self time of
``simulation.engine`` and ``cluster.simulator``.
"""

from __future__ import annotations

import time
from collections import Counter
from types import FunctionType
from typing import Dict, Iterable, List, Sequence, Tuple

#: Every layer the tracer reports, in reporting order.
LAYERS: Tuple[str, ...] = (
    "simulation.events",
    "simulation.cpu",
    "simulation.machine",
    "simulation.engine",
    "schedulers",
    "core.hybrid",
    "ghost",
    "cluster.dispatchers",
    "cluster.load_index",
    "cluster.node",
    "cluster.simulator",
    "middleware",
    "simulation.columns",
    "simulation.metrics",
    "workload.streaming",
    "telemetry",
    "cost",
)

#: Scheduler hooks the tracer wraps: the simulator's callbacks and the ghOSt
#: policy handlers the hybrid's agents call back into.
SCHEDULER_HOOKS = (
    "on_task_arrival",
    "on_task_finished",
    "handle_task_new",
    "handle_task_dead",
    "handle_task_preempt",
    "handle_cpu_tick",
)


def _subclasses(cls: type) -> List[type]:
    """``cls`` and every ``repro`` class derived from it, base first."""
    out, todo = [], [cls]
    while todo:
        current = todo.pop(0)
        if current not in out and current.__module__.startswith("repro."):
            out.append(current)
        todo.extend(current.__subclasses__())
    return out


def _public_methods(cls: type) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if isinstance(value, FunctionType) and not name.startswith("_")
    ]


def layer_classes() -> List[Tuple[str, type, Sequence[str]]]:
    """``(layer, class, method names)`` for every wrapped class."""
    from repro.cluster.dispatchers import Dispatcher
    from repro.cluster.load_index import ActiveNodeView, NodeLoadIndex
    from repro.cluster.node import ClusterNode
    from repro.cluster.simulator import ClusterSimulator
    from repro.core.hybrid import HybridScheduler  # noqa: F401  (registers the subclass)
    from repro.cost.cost_model import CostModel
    from repro.ghost.agent import Agent, AgentGroup
    from repro.ghost.channel import MessageChannel
    from repro.ghost.enclave import Enclave
    from repro.ghost.status_word import StatusWord
    from repro.middleware.base import MiddlewareChain
    from repro.schedulers.base import Scheduler
    from repro.simulation.columns import TaskColumns
    from repro.simulation.cpu import Core
    from repro.simulation.engine import Simulator
    from repro.simulation.events import EventHandle, EventQueue
    from repro.simulation.machine import Machine
    from repro.simulation.metrics import MetricsCollector
    from repro.telemetry.gauges import CounterRegistry, GaugeRegistry, GaugeSampler
    from repro.telemetry.runtime import Telemetry
    from repro.telemetry.tracer import Tracer
    from repro.workload.streaming import StreamFeed

    whole = {
        "simulation.events": [EventQueue],
        "simulation.cpu": [Core],
        "simulation.machine": [Machine],
        "simulation.engine": [Simulator],
        "ghost": [Enclave, MessageChannel, AgentGroup, StatusWord] + _subclasses(Agent),
        "cluster.load_index": [NodeLoadIndex, ActiveNodeView],
        "cluster.node": [ClusterNode],
        "cluster.simulator": [ClusterSimulator],
        "middleware": [MiddlewareChain],
        "simulation.columns": _subclasses(TaskColumns),
        "simulation.metrics": [MetricsCollector],
        "telemetry": [GaugeRegistry, CounterRegistry, GaugeSampler, Telemetry, Tracer],
        "cost": [CostModel],
    }
    out = [
        (layer, cls, _public_methods(cls))
        for layer, classes in whole.items()
        for cls in classes
    ]
    out.append(("simulation.events", EventHandle, ["cancel"]))
    out.append(("workload.streaming", StreamFeed, ["next_chunk"]))
    for cls in _subclasses(Dispatcher):
        out.append(("cluster.dispatchers", cls, ["select_node"]))
    for cls in _subclasses(Scheduler):
        layer = "core.hybrid" if cls.__module__ == "repro.core.hybrid" else "schedulers"
        out.append((layer, cls, SCHEDULER_HOOKS))
    return out


class LayerTracer:
    """Span-stack wrappers around layer methods, aggregated per method.

    Spans are aggregated as they close (calls and self seconds per
    ``Class.method``) rather than stored, so the tracer's memory does not
    grow with the number of spans.
    """

    def __init__(self) -> None:
        self._stack: List[float] = [0.0]
        self.methods: Dict[str, List[float]] = {}
        self.method_layer: Dict[str, str] = {}
        self.counts: Counter = Counter()
        self._queues: list = []

    # ------------------------------------------------------------- install

    def install(self) -> None:
        for layer, cls, names in layer_classes():
            for name in names:
                if name in vars(cls):
                    self._wrap(cls, name, layer)
        self._install_counters()

    def _wrap(self, cls: type, name: str, layer: str) -> None:
        key = f"{cls.__name__}.{name}"
        stat = self.methods.setdefault(key, [0, 0.0])
        self.method_layer[key] = layer
        fn = vars(cls)[name]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[1] += elapsed - stack.pop()
                stat[0] += 1
                stack[-1] += elapsed

        span.__name__ = fn.__name__
        span.__qualname__ = fn.__qualname__
        span.__doc__ = fn.__doc__
        span.__wrapped__ = fn
        setattr(cls, name, span)

    def _install_counters(self) -> None:
        """Exact work counts that per-method call counts cannot give."""
        from repro.simulation.columns import TaskColumns
        from repro.simulation.events import EventHandle, EventQueue

        counts = self.counts
        queues = self._queues

        init = vars(EventQueue)["__init__"]

        def queue_init(queue, *args, **kwargs):
            init(queue, *args, **kwargs)
            queues.append(queue)

        EventQueue.__init__ = queue_init

        cancel = vars(EventHandle)["cancel"]

        def counted_cancel(handle):
            was_cancelled = handle.cancelled
            cancel(handle)
            if not was_cancelled and handle.cancelled:
                counts["cancelled"] += 1

        EventHandle.cancel = counted_cancel

        cancel_pending = vars(EventQueue)["cancel_pending"]

        def counted_cancel_pending(queue, tag):
            cancelled = cancel_pending(queue, tag)
            counts["cancelled"] += cancelled
            return cancelled

        EventQueue.cancel_pending = counted_cancel_pending

        # A subclass's append calls its base's: count outermost calls only.
        depth = [0]
        for cls in _subclasses(TaskColumns):
            if "append" not in vars(cls):
                continue
            append = vars(cls)["append"]

            def counted_append(store, task, _append=append):
                if depth[0] == 0:
                    counts["appends"] += 1
                depth[0] += 1
                try:
                    _append(store, task)
                finally:
                    depth[0] -= 1

            cls.append = counted_append

    # -------------------------------------------------------------- readout

    def snapshot(self) -> Dict[str, object]:
        """Per-layer and per-method totals plus the exact work counts."""
        layers = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        methods = {}
        for key, (calls, self_s) in self.methods.items():
            if not calls:
                continue
            layer = layers[self.method_layer[key]]
            layer["calls"] += calls
            layer["self_s"] += self_s
            methods[key] = {"calls": calls, "self_s": self_s}

        def calls(*keys: str) -> int:
            return sum(int(self.methods.get(key, (0, 0.0))[0]) for key in keys)

        counts = {
            "pushed": calls("EventQueue.push", "EventQueue.push_sequenced"),
            "cancelled": int(self.counts["cancelled"]),
            "compactions": sum(int(queue.compactions) for queue in self._queues),
            "touches": calls("NodeLoadIndex.touch"),
            "queries": calls("NodeLoadIndex.min"),
            "chunks": calls("StreamFeed.next_chunk"),
            "appends": int(self.counts["appends"]),
        }
        return {
            "layers": layers,
            "methods": methods,
            "counts": counts,
            # Time covered by top-level spans: the traced wall minus this is
            # the remainder outside every layer.
            "covered_s": self._stack[0],
            "open_spans": len(self._stack) - 1,
        }


def coverage_problems(
    layers: Dict[str, Dict[str, float]], bypassed: Iterable[str]
) -> List[str]:
    """Layers that should do work but recorded none, and the reverse."""
    bypassed = set(bypassed)
    problems = []
    for layer in LAYERS:
        calls = layers[layer]["calls"]
        if layer in bypassed and calls:
            problems.append(f"{layer}: expected bypassed, recorded {calls} calls")
        if layer not in bypassed and not calls:
            problems.append(f"{layer}: expected work, recorded no calls")
    return problems


def trace_problems(
    trace: Dict[str, object], wall_s: float, events: int, runs: int
) -> List[str]:
    """Checks of a traced repetition that a mis-attributing tracer would fail.

    Self times plus the remainder add up to the traced wall by construction,
    so that sum is not checked.  Instead: every span that opened has closed;
    the top-level spans cover no more than the traced wall (the remainder is
    non-negative); and the wrapped ``EventQueue.pop`` was called once per
    event the kernels counted themselves, plus at most one empty pop per
    simulator run.
    """
    problems = []
    if trace["open_spans"]:
        problems.append(f"{trace['open_spans']} spans still open after the run")
    if trace["covered_s"] > wall_s:
        problems.append(
            f"top-level spans cover {trace['covered_s']!r} s, more than the "
            f"traced wall {wall_s!r} s"
        )
    pops = trace["methods"].get("EventQueue.pop", {}).get("calls", 0)
    if not events <= pops <= events + runs:
        problems.append(
            f"EventQueue.pop traced {pops} calls, the kernels processed {events} "
            f"events in {runs} runs"
        )
    return problems
