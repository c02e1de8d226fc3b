"""Per-task status words.

ghOSt shares a small "status word" per scheduled task between kernel and
agents: whether the task is runnable, whether it is currently on a CPU, which
CPU, and how much CPU time it has accumulated.  The hybrid policy uses the
accumulated runtime to decide when a task has exceeded the FIFO time limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from repro.simulation.task import DATACLASS_KWARGS


class TaskRunState(Enum):
    """Agent-visible run state of a task."""

    NEW = "new"
    QUEUED = "queued"
    ON_CPU = "on_cpu"
    PREEMPTED = "preempted"
    BLOCKED = "blocked"
    DEAD = "dead"


@dataclass(**DATACLASS_KWARGS)
class StatusWord:
    """Shared task state between the (simulated) kernel and the agents.

    Attributes:
        task_id: Identifier of the task this word describes.
        state: Current run state.
        cpu_id: CPU the task is running on, when on CPU.
        group: Policy group the task currently belongs to ("fifo" / "cfs").
        runtime: Accumulated CPU time (s) observed by the agents.
        last_dispatch_time: Simulation time of the latest dispatch, used to
            compute how long the current uninterrupted run has lasted.
        dispatch_count: How many times the task has been placed on a CPU.
    """

    task_id: int
    state: TaskRunState = TaskRunState.NEW
    cpu_id: Optional[int] = None
    group: str = ""
    runtime: float = 0.0
    last_dispatch_time: Optional[float] = None
    dispatch_count: int = 0

    def mark_queued(self, group: str) -> None:
        self.state = TaskRunState.QUEUED
        self.group = group
        self.cpu_id = None

    def mark_on_cpu(self, cpu_id: int, now: float) -> None:
        self.state = TaskRunState.ON_CPU
        self.cpu_id = cpu_id
        self.last_dispatch_time = now
        self.dispatch_count += 1

    def mark_preempted(self, now: float) -> None:
        self._accumulate(now)
        self.state = TaskRunState.PREEMPTED
        self.cpu_id = None

    def mark_dead(self, now: float) -> None:
        self._accumulate(now)
        self.state = TaskRunState.DEAD
        self.cpu_id = None

    def current_run_length(self, now: float) -> float:
        """Length of the current uninterrupted on-CPU stint."""
        if self.state is not TaskRunState.ON_CPU or self.last_dispatch_time is None:
            return 0.0
        return max(0.0, now - self.last_dispatch_time)

    def _accumulate(self, now: float) -> None:
        if self.state is TaskRunState.ON_CPU and self.last_dispatch_time is not None:
            self.runtime += max(0.0, now - self.last_dispatch_time)
            self.last_dispatch_time = None

    @property
    def is_dead(self) -> bool:
        return self.state is TaskRunState.DEAD

    @property
    def is_on_cpu(self) -> bool:
        return self.state is TaskRunState.ON_CPU
