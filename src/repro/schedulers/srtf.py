"""Shortest Remaining Time First (preemptive).

The policy that SFS (Fu et al., SC'22) — the closest related work discussed
in §VIII — approximates for serverless functions.  An arriving short task may
preempt the running task with the largest remaining work; completions always
hand the core to the waiting task with the least remaining work.
"""

from __future__ import annotations

from typing import Optional

from repro.schedulers.base import HeapQueueStealMixin, Scheduler
from repro.simulation.cpu import Core
from repro.simulation.task import Task


class SRTFScheduler(HeapQueueStealMixin, Scheduler):
    """Preemptive shortest remaining time first with a centralized queue."""

    name = "srtf"

    def __init__(self, preemption_margin: float = 0.0) -> None:
        """Args:
        preemption_margin: A running task is only preempted when its
            remaining work exceeds the newcomer's by more than this margin
            (seconds), which damps thrashing between near-equal tasks.
        """
        super().__init__()
        if preemption_margin < 0:
            raise ValueError(
                f"preemption_margin must be >= 0, got {preemption_margin!r}"
            )
        self.preemption_margin = preemption_margin

    def describe(self) -> str:
        return "SRTF (preemptive shortest remaining time first)"

    # ------------------------------------------------------------------ queue

    def _heap_key(self, task: Task) -> float:
        return task.remaining

    # ------------------------------------------------------------------ hooks

    def on_task_arrival(self, task: Task) -> None:
        core = self.first_idle_core(self.default_group())
        if core is not None:
            self.sim.start_task(task, core)
            return
        victim_core = self._longest_remaining_core()
        if victim_core is not None:
            victim = victim_core.current_task
            if (
                victim is not None
                and victim.remaining > task.remaining + self.preemption_margin
            ):
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

    def _longest_remaining_core(self) -> Optional[Core]:
        """Busy core whose running task has the most remaining work."""
        busy = [
            core
            for core in self.machine.group_cores(self.default_group())
            if core.is_busy and not core.locked
        ]
        if not busy:
            return None
        return max(busy, key=lambda c: c.current_task.remaining)
