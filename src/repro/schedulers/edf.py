"""Earliest Deadline First scheduling.

Tasks are ordered by absolute deadline; the task with the nearest deadline
always runs first, preempting a running task with a later deadline when no
core is idle.  Serverless invocations do not ship deadlines, so tasks without
one are assigned ``arrival + slack_factor * service`` as an implicit deadline
(a common soft-real-time convention), which makes EDF behave similarly to a
slack-aware shortest-job-first policy on FaaS workloads.
"""

from __future__ import annotations

from typing import Optional

from repro.schedulers.base import HeapQueueStealMixin, Scheduler
from repro.simulation.cpu import Core
from repro.simulation.task import Task


class EDFScheduler(HeapQueueStealMixin, Scheduler):
    """Preemptive Earliest Deadline First with a centralized queue."""

    name = "edf"

    def __init__(self, slack_factor: float = 5.0, default_relative_deadline: float = 10.0) -> None:
        """Args:
        slack_factor: Implicit deadline multiplier over service time for
            tasks that do not carry an explicit deadline.
        default_relative_deadline: Fallback relative deadline (s) for tasks
            whose implicit deadline cannot be derived.
        """
        super().__init__()
        if slack_factor <= 0:
            raise ValueError(f"slack_factor must be positive, got {slack_factor!r}")
        if default_relative_deadline <= 0:
            raise ValueError(
                f"default_relative_deadline must be positive, got {default_relative_deadline!r}"
            )
        self.slack_factor = slack_factor
        self.default_relative_deadline = default_relative_deadline

    def describe(self) -> str:
        return "EDF (preemptive earliest deadline first)"

    # ------------------------------------------------------------------ queue

    def deadline_of(self, task: Task) -> float:
        if task.deadline is not None:
            return task.deadline
        implicit = task.arrival_time + self.slack_factor * task.service_time
        return min(implicit, task.arrival_time + self.default_relative_deadline)

    def _heap_key(self, task: Task) -> float:
        return self.deadline_of(task)

    # ------------------------------------------------------------------ hooks

    def on_task_arrival(self, task: Task) -> None:
        core = self.first_idle_core(self.default_group())
        if core is not None:
            self.sim.start_task(task, core)
            return
        victim_core = self._latest_deadline_running_core()
        if victim_core is not None:
            victim = victim_core.current_task
            if victim is not None and self.deadline_of(victim) > self.deadline_of(task):
                self.sim.stop_task(victim, victim_core, preempted=True)
                self._push(victim)
                self.sim.start_task(task, victim_core)
                return
        self._push(task)

    def on_task_finished(self, task: Task, core: Core) -> None:
        next_task = self._pop()
        if next_task is not None:
            self.sim.start_task(next_task, core)

    # ---------------------------------------------------------------- helpers

    def _latest_deadline_running_core(self) -> Optional[Core]:
        """Busy core whose running task has the latest deadline."""
        busy = [
            core
            for core in self.machine.group_cores(self.default_group())
            if core.is_busy and not core.locked
        ]
        if not busy:
            return None
        return max(busy, key=lambda c: self.deadline_of(c.current_task))
