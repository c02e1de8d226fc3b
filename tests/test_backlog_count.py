"""The queued-backlog counter behind ``stealable_count``.

Queue-backed schedulers keep the number of queued, never-run tasks as a
counter updated where a task enters or leaves the queue, so the load-aware
middlewares and the queue-depth gauges read it in O(1) per node.  These
tests pin the counter to an independent recount of the queue:

* unit level — random sequences of push, push-front, pop, remove (queued or
  not) and preempt-then-requeue against every queue shape;
* end to end — an overloaded, chaotic, work-stealing fleet checks the
  counter on every dispatch, then runs again with the recount swapped in and
  must produce the same run.
"""

from __future__ import annotations

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.chaos import ChaosSpec
from repro.cluster import ClusterConfig, ClusterSimulator
from repro.cluster.node import ClusterNode
from repro.middleware import DeadlineShedMiddleware, TimeoutRetryMiddleware
from repro.middleware.base import Middleware
from repro.schedulers.base import CentralizedQueueScheduler
from repro.schedulers.edf import EDFScheduler
from repro.schedulers.fifo import FIFOScheduler
from repro.schedulers.fifo_preempt import FIFOPreemptScheduler
from repro.schedulers.round_robin import RoundRobinScheduler
from repro.schedulers.sjf import SJFScheduler
from repro.schedulers.srtf import SRTFScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.task import Task

SCHEDULERS = [
    FIFOScheduler,
    FIFOPreemptScheduler,
    RoundRobinScheduler,
    SJFScheduler,
    SRTFScheduler,
    EDFScheduler,
]


def recount(scheduler) -> int:
    return sum(
        1 for task in scheduler.stealable_tasks() if task.first_run_time is None
    )


# ----------------------------------------------------------------- unit level


class QueueOps:
    """Drives either queue shape through the same five operations."""

    def __init__(self, scheduler) -> None:
        self.scheduler = scheduler
        self.deque = isinstance(scheduler, CentralizedQueueScheduler)
        self.tasks = []  # every task ever created, queued or not
        self.held = []  # popped tasks, off the queue
        self.now = 0.0

    def queued(self, task) -> bool:
        return any(queued is task for queued in self.scheduler.stealable_tasks())

    def push(self, task, front: bool = False) -> None:
        if not self.deque:
            self.scheduler._push(task)
        elif front:
            self.scheduler.push_front(task)
        else:
            self.scheduler.push(task)

    def apply(self, op, arg: int, service: float) -> None:
        sched = self.scheduler
        self.now += 0.1
        if op in ("push", "push_front"):
            task = Task(
                task_id=len(self.tasks), arrival_time=self.now, service_time=service
            )
            self.tasks.append(task)
            self.push(task, front=op == "push_front")
        elif op == "pop":
            task = sched.pop_next() if self.deque else sched._pop()
            if task is not None:
                self.held.append(task)
        elif op == "remove" and self.tasks:
            task = self.tasks[arg % len(self.tasks)]
            was_queued = self.queued(task)
            before = sched.stealable_count()
            assert sched.remove_queued_task(task) is was_queued
            if was_queued:
                self.held.append(task)
            else:
                assert sched.stealable_count() == before
        elif op == "requeue" and self.held:
            # Mostly preempt-then-requeue: the task runs, is descheduled and
            # goes back on the queue, where it must no longer count.  Now and
            # then it goes back unstarted (a migrated or retried task landing
            # on a new queue), and must count again.
            task = self.held.pop(arg % len(self.held))
            if arg % 3 and task.first_run_time is None:
                task.mark_running(self.now, core_id=0)
                task.mark_preempted()
            self.push(task, front=arg % 2 == 0)


operations = st.lists(
    st.tuples(
        st.sampled_from(["push", "push_front", "pop", "remove", "requeue"]),
        st.integers(min_value=0, max_value=1000),
        st.floats(min_value=0.01, max_value=5.0),
    ),
    max_size=60,
)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(factory=st.sampled_from(SCHEDULERS), ops=operations)
def test_counter_matches_recount_after_every_operation(factory, ops):
    queue = QueueOps(factory())
    assert queue.scheduler.stealable_count() == 0
    for op, arg, service in ops:
        queue.apply(op, arg, service)
        assert queue.scheduler.stealable_count() == recount(queue.scheduler)


def test_srtf_preempted_victim_does_not_count():
    """SRTF requeues its preempted victim through the same push, after it ran."""
    scheduler = SRTFScheduler()
    tasks = [
        Task(task_id=0, arrival_time=0.0, service_time=5.0),
        Task(task_id=1, arrival_time=1.0, service_time=1.0),
    ]
    simulate(scheduler, tasks, SimulationConfig(num_cores=1), until=1.5)
    assert tasks[0].preemptions == 1
    assert scheduler.queue_length == 1  # the victim, back on the queue
    assert scheduler.stealable_count() == 0


# ---------------------------------------------------------------- end to end


class BacklogAudit(Middleware):
    """Checks every live node's counter against a recount on each dispatch."""

    name = "backlog_audit"

    def __init__(self) -> None:
        self.checks = 0
        self.nonzero = 0

    def on_dispatch(self, task, now):
        for node in self.chain.cluster.nodes:
            if node.state.terminal:
                continue
            expected = recount(node.scheduler)
            assert node.stealable_count() == expected, (node.node_id, now)
            self.checks += 1
            self.nonzero += expected > 0
        return None

    def stats(self):
        return {"checks": float(self.checks), "nonzero": float(self.nonzero)}


def overloaded_run():
    # Four bursts of 120 arrivals, each far beyond the fleet's 8 cores; the
    # lulls between them let drained nodes steal from the random dispatcher's
    # deeper queues.
    services = [0.3, 2.5, 0.8, 6.0, 1.2, 0.5, 4.0, 0.2]
    tasks = [
        Task(
            task_id=burst * 120 + i,
            arrival_time=burst * 25.0 + i * 0.05,
            service_time=services[(burst * 120 + i) % len(services)],
        )
        for burst in range(4)
        for i in range(120)
    ]
    config = ClusterConfig(
        num_nodes=4,
        cores_per_node=2,
        scheduler="fifo_preempt",
        scheduler_kwargs={"quantum": 0.5},
        dispatcher="random",
        migration="work_stealing",
        migration_kwargs={"interval": 0.5},
        chaos=ChaosSpec(crash_rate=0.02, max_failures=2),
        seed=1,
    )
    cluster = ClusterSimulator(
        config=config,
        middleware=[
            BacklogAudit(),
            DeadlineShedMiddleware(relative_deadline=12.0, load_aware=True),
            TimeoutRetryMiddleware(timeout=4.0, max_retries=2),
        ],
    )
    cluster.submit(tasks)
    return cluster.run()


def scan_stealable_count(node) -> int:
    """Reference answer: walk the scheduler's queue."""
    if node.state.terminal:
        return 0
    return recount(node.scheduler)


def fingerprint(result):
    return (
        result.middleware_stats,
        result.tasks_rejected,
        sorted(task.task_id for task in result.finished_tasks),
        float(np.percentile(result.turnaround_times(), 99)),
    )


def test_counter_run_equals_scan_run(monkeypatch):
    counted = overloaded_run()
    audit = counted.middleware_stats["backlog_audit"]
    # The audit saw real backlogs, and the run exercised every subsystem
    # the counter must survive.
    assert audit["nonzero"] > 100
    assert counted.middleware_stats["deadline_shed"]["shed"] > 0
    assert counted.middleware_stats["timeout_retry"]["retries"] > 0
    assert counted.tasks_migrated > 0
    assert counted.nodes_failed > 0
    assert sum(task.preemptions for task in counted.tasks) > 0

    monkeypatch.setattr(ClusterNode, "stealable_count", scan_stealable_count)
    scanned = overloaded_run()
    assert fingerprint(scanned) == fingerprint(counted)
