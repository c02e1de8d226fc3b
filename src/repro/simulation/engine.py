"""Discrete-event simulation engine.

The :class:`Simulator` ties together the clock, the event queue, the machine
and a scheduler.  Schedulers never touch cores directly — they start, stop
and migrate tasks through the simulator so that pending completion events
always stay consistent with the cores' task sets.

Scheduler interface (duck-typed; see :class:`repro.schedulers.base.Scheduler`):

* ``attach(simulator)`` — called once before the run.
* ``on_start()`` — called when the simulation starts.
* ``on_task_arrival(task)`` — a new invocation arrived.
* ``on_task_finished(task, core)`` — a task completed on ``core``.
* ``on_end()`` — called after the last event.
"""

from __future__ import annotations

import itertools
import time as _wallclock
from typing import Iterable, List, Optional, Sequence

from repro.simulation.clock import VirtualClock
from repro.simulation.config import SimulationConfig
from repro.simulation.cpu import Core
from repro.simulation.events import (
    STREAM_SEQ_BASE,
    Event,
    EventPriority,
    EventQueue,
)
from repro.simulation.machine import Machine
from repro.simulation.metrics import MetricsCollector
from repro.simulation.results import SimulationResult, build_result
from repro.simulation.task import Task, TaskState
from repro.telemetry.gauges import SAMPLER_TAG
from repro.telemetry.runtime import as_telemetry
from repro.telemetry.tracer import MACHINE_PID, QUEUE_TID, core_tid


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Simulator:
    """Event-driven multicore scheduling simulator."""

    def __init__(
        self,
        machine: Machine,
        scheduler,
        config: Optional[SimulationConfig] = None,
        collector: Optional[MetricsCollector] = None,
        clock: Optional[VirtualClock] = None,
        events: Optional[EventQueue] = None,
        telemetry=None,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.config = config or machine.config
        self.collector = collector or MetricsCollector()
        # Accepts a TelemetrySpec, a live Telemetry (the cluster layer shares
        # one across node engines), or None.  ``_tracer``/``_trace_pid`` are
        # cached so hot-path guards are one attribute load; the cluster layer
        # reassigns ``_trace_pid`` to the node's track.
        self.telemetry = as_telemetry(telemetry)
        self._tracer = self.telemetry.tracer if self.telemetry is not None else None
        self._trace_pid = MACHINE_PID
        # The cluster layer injects a shared clock/event queue so that many
        # per-node engines advance in lockstep; standalone runs own both.
        self.clock = clock if clock is not None else VirtualClock()
        self.events = events if events is not None else EventQueue()
        self.tasks: List[Task] = []
        self._unfinished = 0
        self._pending_arrivals = 0
        self._events_processed = 0
        self._running = False
        self._tasks_submitted = 0
        # Streaming arrival feed (see submit_stream); None on classic runs,
        # whose hot paths pay only one is-None check per arrival.
        self._stream = None
        self._stream_low_water = 0
        self._stream_seq = None
        self._stream_total: Optional[int] = None
        # Tasks finished by the most recent completion event; the cluster
        # node engine reads this for fleet accounting (the collector may be
        # configured not to retain task objects on streaming runs).
        self._last_finished: Sequence[Task] = ()
        # Tag-dispatched completion events carry only the core; record the
        # owning engine on each core so shared-queue (cluster) loops can
        # route the event to the right per-node engine.
        for core in machine.cores:
            core._engine = self
        scheduler.attach(self)

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        return self.clock.now

    # --------------------------------------------------------------- workload

    def submit(self, tasks: Iterable[Task]) -> None:
        """Register tasks and schedule their arrival events."""
        if self._running:
            raise SimulationError("cannot submit tasks while the simulation is running")
        for task in tasks:
            self.tasks.append(task)
            self._tasks_submitted += 1
            self._unfinished += 1
            self._pending_arrivals += 1
            # Payload-carrying event dispatched by tag: no per-task closure.
            self.events.push(
                task.arrival_time,
                None,
                priority=EventPriority.ARRIVAL,
                tag="arrival",
                payload=task,
            )

    def submit_stream(self, source, *, chunk: int = 8192, low_water: Optional[int] = None) -> None:
        """Attach a streaming arrival source; arrivals are fed in chunks.

        Instead of pre-pushing every arrival (an O(total tasks) heap and task
        list), the next ``chunk`` tasks are pushed whenever fewer than
        ``low_water`` fed arrivals remain pending, keeping live memory
        O(horizon).  Fed arrivals carry pre-assigned sequence numbers from
        the reserved negative range (:data:`STREAM_SEQ_BASE`), so event
        ordering — and therefore the whole run — is bit-identical to
        ``submit(source.materialise())``.  Streaming runs do not retain the
        task list; results report counts and columnar metrics instead.
        """
        from repro.workload.streaming import StreamFeed

        if self._running:
            raise SimulationError("cannot attach a stream while the simulation is running")
        if self._stream is not None:
            raise SimulationError("a streaming source is already attached")
        if low_water is None:
            low_water = max(1, chunk // 4)
        if low_water < 0:
            raise ValueError(f"low_water must be >= 0, got {low_water!r}")
        self._stream = StreamFeed(source, chunk)
        self._stream_low_water = low_water
        self._stream_seq = itertools.count(STREAM_SEQ_BASE)
        self._stream_total = source.total_hint()
        self._refill_stream()

    def _refill_stream(self) -> None:
        """Feed arrival chunks until pending arrivals clear the low-water mark."""
        feed = self._stream
        events = self.events
        seq = self._stream_seq
        while not feed.exhausted and self._pending_arrivals <= self._stream_low_water:
            tasks = feed.next_chunk()
            if not tasks:
                break
            self._tasks_submitted += len(tasks)
            self._unfinished += len(tasks)
            self._pending_arrivals += len(tasks)
            for task in tasks:
                events.push_sequenced(
                    task.arrival_time,
                    next(seq),
                    priority=EventPriority.ARRIVAL,
                    tag="arrival",
                    payload=task,
                )

    # ----------------------------------------------------------------- timers

    def schedule_at(
        self, time: float, callback, tag: str = "timer"
    ) -> Event:
        """Schedule a callback at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule an event in the past: now={self.now}, requested={time}"
            )
        return self.events.push(time, callback, priority=EventPriority.TIMER, tag=tag)

    def schedule_timer(self, delay: float, callback, tag: str = "timer") -> Event:
        """Schedule a callback ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"timer delay must be >= 0, got {delay!r}")
        return self.schedule_at(self.now + delay, callback, tag=tag)

    def record_series(self, name: str, value: float) -> None:
        """Record one point of a named time series at the current time.

        With telemetry enabled the point flows through the gauge registry
        (so it is counted in the snapshot); either way it lands in the same
        ``collector.series`` store under the same name.
        """
        if self.telemetry is not None:
            self.telemetry.gauges.record(self.collector.series, name, self.now, value)
        else:
            self.collector.record_series(name, self.now, value)

    # ----------------------------------------------------- task/core plumbing

    def start_task(self, task: Task, core: Core) -> None:
        """Begin (or resume) executing ``task`` on ``core``."""
        tracer = self._tracer
        if tracer is not None:
            tid = task.task_id
            tracer.end(("q", tid), self.now)
            tracer.begin(
                ("r", tid), "run", self._trace_pid,
                core_tid(core.core_id), self.now, tid,
            )
        core.add_task(task, self.now)
        self._reschedule_completion(core)

    def stop_task(self, task: Task, core: Core, *, preempted: bool = True) -> Task:
        """Remove ``task`` from ``core`` (involuntarily unless stated otherwise)."""
        removed = core.remove_task(task, self.now, preempted=preempted)
        self._reschedule_completion(core)
        tracer = self._tracer
        if tracer is not None:
            tid = task.task_id
            tracer.end(("r", tid), self.now)
            if preempted:
                # The task is runnable again but off-core: back to waiting.
                tracer.begin(
                    ("q", tid), "queued", self._trace_pid, QUEUE_TID, self.now, tid
                )
        return removed

    def drain_core(self, core: Core) -> List[Task]:
        """Preempt and return every task on ``core`` (core-migration protocol)."""
        drained = core.drain(self.now)
        self._reschedule_completion(core)
        tracer = self._tracer
        if tracer is not None:
            pid = self._trace_pid
            for task in drained:
                tid = task.task_id
                tracer.end(("r", tid), self.now)
                tracer.begin(("q", tid), "queued", pid, QUEUE_TID, self.now, tid)
        return drained

    def sync_core(self, core: Core) -> None:
        """Bring one core's accounting up to the current time."""
        core.sync(self.now)

    def refresh_core(self, core: Core) -> None:
        """Re-evaluate a core's pending completion after an external change."""
        core.sync(self.now)
        self._reschedule_completion(core)

    # ---------------------------------------------------------------- running

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run the simulation to completion and return its result."""
        limit = until if until is not None else self.config.max_simulated_time
        started = _wallclock.perf_counter()
        self._running = True
        self.scheduler.on_start()
        if self.telemetry is not None:
            self._start_telemetry()
        if self.config.record_utilization:
            self.collector.start_utilization_window(self.machine.cores, self.now)
            self._schedule_utilization_sample()

        done = False
        while not done:
            next_time = self.events.peek_time()
            if next_time is None:
                break
            if limit is not None and next_time > limit:
                self.clock.advance_to(limit)
                break
            self.clock.advance_to(next_time)
            # Batched draining: every event sharing this timestamp (including
            # ones pushed *at* it by the handlers below) is dispatched in one
            # loop iteration, paying the clock advance and limit check once.
            # Events are still popped strictly in (time, priority, seq)
            # order, so results are bit-identical to one-at-a-time draining.
            while True:
                event = self.events.pop()
                if event is None:
                    done = True
                    break
                self._events_processed += 1
                callback = event.callback
                if callback is not None:
                    callback()
                else:
                    self._dispatch_tagged(event)
                if self._unfinished == 0 and self._pending_arrivals == 0:
                    done = True
                    break
                if self.events.peek_time() != next_time:
                    break

        # Flush lazily accounted service so task fields (remaining,
        # cpu_time_received) are concrete in the result, even for tasks cut
        # off by a time limit.
        for core in self.machine.cores:
            core.sync(self.now)
            core.materialize_all()
        # Final utilization sample so short runs still get at least one point.
        if self.config.record_utilization and self.machine.cores:
            self.collector.sample_utilization(
                self.machine.cores, self.now, window=None
            )
        self.scheduler.on_end()
        self._running = False
        telemetry_snapshot = None
        if self.telemetry is not None:
            # Finish before building the result: the final gauge sample and
            # any open-span drain must land in the copied series/snapshot.
            self.telemetry.finish(self.now)
            telemetry_snapshot = self.telemetry.snapshot()
        wall = _wallclock.perf_counter() - started
        return build_result(
            scheduler_name=getattr(self.scheduler, "name", type(self.scheduler).__name__),
            config=self.config,
            tasks=self.tasks,
            cores=self.machine.cores,
            collector=self.collector,
            simulated_time=self.now,
            wall_clock_seconds=wall,
            events_processed=self._events_processed,
            telemetry=telemetry_snapshot,
            tasks_submitted=self._tasks_submitted,
        )

    def _start_telemetry(self) -> None:
        """Wire this standalone machine's tracks and gauges, arm the sampler."""
        telemetry = self.telemetry
        tracer = self._tracer
        if tracer is not None:
            pid = self._trace_pid
            tracer.name_process(pid, "machine")
            tracer.name_track(pid, QUEUE_TID, "queue")
            for core in self.machine.cores:
                tracer.name_track(pid, core_tid(core.core_id), f"core {core.core_id}")
        telemetry.gauges.register(
            "machine.busy_cores",
            lambda: sum(1 for core in self.machine.cores if core.is_busy),
            self.collector.series,
        )
        if self._stream is not None:
            # The total may be unknown (an open-ended source); the reporter
            # then prints completion rate instead of a percentage.
            telemetry.bind_progress(
                self._stream_total,
                lambda: self._tasks_submitted - self._unfinished,
            )
        else:
            telemetry.bind_progress(
                len(self.tasks), lambda: len(self.tasks) - self._unfinished
            )
        telemetry.start(
            self.events,
            self.clock,
            lambda: self._unfinished > 0 or self._pending_arrivals > 0,
        )

    # ----------------------------------------------------------- event logic

    def _dispatch_tagged(self, event) -> None:
        """Route a payload-carrying (callback-free) event by its tag."""
        tag = event.tag
        if tag == "completion":
            core = event.payload
            core._engine._handle_completion(core)
        elif tag == "arrival":
            self._handle_arrival(event.payload)
        elif tag == SAMPLER_TAG:
            event.payload.on_tick()
        else:
            raise SimulationError(
                f"event at t={event.time} has no callback and unknown tag {tag!r}"
            )

    def _handle_arrival(self, task: Task) -> None:
        self._pending_arrivals -= 1
        if self._stream is not None and self._pending_arrivals <= self._stream_low_water:
            self._refill_stream()
        task.mark_queued()
        tracer = self._tracer
        if tracer is not None:
            pid = self._trace_pid
            tid = task.task_id
            tracer.instant("arrival", pid, QUEUE_TID, self.now, tid)
            tracer.begin(("q", tid), "queued", pid, QUEUE_TID, self.now, tid)
        self.scheduler.on_task_arrival(task)

    def _handle_completion(self, core: Core) -> None:
        core._completion_handle = None
        finished = core.finish_ready_tasks(self.now)
        self._last_finished = finished
        self._reschedule_completion(core)
        tracer = self._tracer
        for task in finished:
            self._unfinished -= 1
            if tracer is not None:
                tracer.end(("r", task.task_id), self.now)
            self.collector.on_task_finished(task)
            self.scheduler.on_task_finished(task, core)

    def _reschedule_completion(self, core: Core) -> None:
        if core._completion_handle is not None:
            core._completion_handle.cancel()
            core._completion_handle = None
        delta = core.time_to_next_completion()
        if delta is None:
            return
        core._completion_handle = self.events.push(
            self.now + delta,
            None,
            priority=EventPriority.COMPLETION,
            tag="completion",
            payload=core,
        )

    def _schedule_utilization_sample(self) -> None:
        window = self.config.utilization_window

        def _sample() -> None:
            self.collector.sample_utilization(
                self.machine.cores, self.now, window=window
            )
            if self._unfinished > 0 or self._pending_arrivals > 0:
                self._schedule_utilization_sample()

        self.events.push(
            self.now + window,
            _sample,
            priority=EventPriority.CONTROL,
            tag="utilization-sample",
        )


def simulate(
    scheduler,
    tasks: Sequence[Task],
    config: Optional[SimulationConfig] = None,
    machine: Optional[Machine] = None,
    until: Optional[float] = None,
    telemetry=None,
) -> SimulationResult:
    """One-call helper: build a machine, run ``scheduler`` over ``tasks``.

    This is the main entry point used by examples, tests and the experiment
    harness when no special machine topology is needed.  ``telemetry``
    accepts a :class:`~repro.telemetry.spec.TelemetrySpec` (or a live
    runtime) to record spans/gauges for the run.
    """
    cfg = config or SimulationConfig()
    target_machine = machine or Machine(
        cfg, groups=scheduler.preferred_groups(cfg.num_cores)
    )
    simulator = Simulator(target_machine, scheduler, config=cfg, telemetry=telemetry)
    simulator.submit(tasks)
    return simulator.run(until=until)


def simulate_stream(
    scheduler,
    source,
    config: Optional[SimulationConfig] = None,
    machine: Optional[Machine] = None,
    until: Optional[float] = None,
    telemetry=None,
    *,
    chunk: int = 8192,
    low_water: Optional[int] = None,
    metrics_cap: Optional[int] = None,
    metrics_policy: str = "reservoir",
    spill_dir: Optional[str] = None,
) -> SimulationResult:
    """Streaming analogue of :func:`simulate` for bounded-memory replay.

    ``source`` is a :class:`~repro.workload.streaming.StreamingWorkload`;
    tasks are fed to the event queue ``chunk`` at a time and not retained
    after completion, so the run's live memory is O(horizon) rather than
    O(total tasks).  ``metrics_cap`` bounds the columnar metrics store using
    ``metrics_policy`` (``"reservoir"`` — exact streaming summaries plus a
    uniform sample for CDFs — or ``"spill"`` — full rows in on-disk npy
    chunks under ``spill_dir``).  The result's ``tasks`` list is empty;
    summaries, columns and cost all work from the collector.
    """
    from repro.simulation.columns import build_columns_store

    cfg = config or SimulationConfig()
    target_machine = machine or Machine(
        cfg, groups=scheduler.preferred_groups(cfg.num_cores)
    )
    collector = MetricsCollector(
        columns=build_columns_store(
            metrics_cap, policy=metrics_policy, spill_dir=spill_dir, seed=cfg.seed
        ),
        keep_tasks=False,
    )
    simulator = Simulator(
        target_machine, scheduler, config=cfg, collector=collector, telemetry=telemetry
    )
    simulator.submit_stream(source, chunk=chunk, low_water=low_water)
    return simulator.run(until=until)
