"""Workload generation (§V-B "Workload Generation").

From the downscaled trace buckets, the generator computes per-minute
inter-arrival times (each bucket's invocations arrive at regular intervals
within their minute), merges and sorts all invocations, and emits
:class:`WorkloadItem` rows / :class:`~repro.simulation.task.Task` objects.

Convenience builders reproduce the two workloads the paper uses:

* :func:`paper_workload_2min` — the first 12,442 invocations (~2 minutes),
  used for all headline comparisons.
* :func:`paper_workload_10min` — the first 10 minutes, used for the
  utilization / rightsizing studies and the Firecracker runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simulation.task import Task
from repro.workload.azure import AzureTraceConfig, SyntheticAzureTrace, generate_trace
from repro.workload.calibration import CalibrationTable, default_calibration_table
from repro.workload.extraction import ExtractionPipeline, TraceBucket


@dataclass(frozen=True)
class WorkloadItem:
    """One line of the workload file: when to launch which Fibonacci call."""

    arrival_time: float
    fibonacci_n: int
    duration: float
    memory_mb: int

    def __post_init__(self) -> None:
        if self.arrival_time < 0:
            raise ValueError(f"arrival_time must be >= 0, got {self.arrival_time!r}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration!r}")
        if self.memory_mb <= 0:
            raise ValueError(f"memory_mb must be positive, got {self.memory_mb!r}")


@dataclass(frozen=True)
class WorkloadSpec:
    """What slice of the trace to turn into a workload."""

    minutes: int = 2
    limit: Optional[int] = None
    seed: int = 7
    duration_jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.minutes <= 0:
            raise ValueError(f"minutes must be positive, got {self.minutes!r}")
        if self.limit is not None and self.limit <= 0:
            raise ValueError(f"limit must be positive when set, got {self.limit!r}")
        if not 0 <= self.duration_jitter < 1:
            raise ValueError(
                f"duration_jitter must be in [0, 1), got {self.duration_jitter!r}"
            )


class WorkloadGenerator:
    """Turns trace buckets into a sorted list of workload items / tasks."""

    def __init__(self, buckets: Sequence[TraceBucket]) -> None:
        if not buckets:
            raise ValueError("the workload generator needs at least one trace bucket")
        self.buckets = list(buckets)

    # ------------------------------------------------------------------ items

    def generate_items(self, spec: WorkloadSpec) -> List[WorkloadItem]:
        """Generate workload items for the first ``spec.minutes`` minutes."""
        rng = np.random.default_rng(spec.seed)
        items: List[WorkloadItem] = []
        for bucket in self.buckets:
            memory_sizes = bucket.memory_sizes_mb or [128]
            memory_weights = bucket.memory_weights or [1.0]
            for minute in range(spec.minutes):
                count = bucket.invocations_in_minute(minute)
                if count <= 0:
                    continue
                interval = 60.0 / count
                memory_choices = rng.choice(
                    np.array(memory_sizes), size=count, p=np.array(memory_weights)
                )
                for k in range(count):
                    arrival = minute * 60.0 + k * interval
                    duration = bucket.duration
                    if spec.duration_jitter > 0:
                        duration *= 1.0 + rng.uniform(
                            -spec.duration_jitter, spec.duration_jitter
                        )
                    items.append(
                        WorkloadItem(
                            arrival_time=arrival,
                            fibonacci_n=bucket.fibonacci_n,
                            duration=float(duration),
                            memory_mb=int(memory_choices[k]),
                        )
                    )
        items.sort(key=lambda item: (item.arrival_time, item.fibonacci_n))
        if spec.limit is not None:
            items = items[: spec.limit]
        return items

    def generate_tasks(self, spec: WorkloadSpec) -> List[Task]:
        """Generate :class:`Task` objects ready to submit to a simulator."""
        return items_to_tasks(self.generate_items(spec))

    # ------------------------------------------------------------- statistics

    def duration_percentile(self, percentile: float, minutes: Optional[int] = None) -> float:
        """Invocation-weighted duration percentile of the generated workload.

        The paper's fixed FIFO limit (1,633 ms) is the 90th percentile of its
        sampled workload; this helper lets experiments derive the same kind
        of limit from the generated workload.
        """
        durations = []
        weights = []
        for bucket in self.buckets:
            counts = bucket.per_minute_counts
            if minutes is not None:
                counts = counts[:minutes]
            weight = float(np.asarray(counts).sum())
            if weight > 0:
                durations.append(bucket.duration)
                weights.append(weight)
        if not durations:
            raise ValueError("no invocations in the requested window")
        order = np.argsort(durations)
        durations_arr = np.array(durations)[order]
        weights_arr = np.array(weights)[order]
        cumulative = np.cumsum(weights_arr) / weights_arr.sum()
        index = int(np.searchsorted(cumulative, percentile / 100.0))
        index = min(index, len(durations_arr) - 1)
        return float(durations_arr[index])


def items_to_tasks(items: Sequence[WorkloadItem]) -> List[Task]:
    """Convert workload items into simulator tasks (ids follow arrival order).

    Each task carries a ``function_id`` identifying the serverless function
    it is an invocation of (same Fibonacci argument and memory size ⇒ same
    function), e.g. ``"fib(38)/256mb"``.  Locality-aware cluster dispatchers
    route on this id so repeat invocations land on the same node.  The
    ``name`` and ``function_id`` strings are built once per function and
    shared by all of its invocations.
    """
    labels: Dict[Tuple[int, int], Tuple[str, str]] = {}
    return [
        invocation_task(
            labels, i, item.arrival_time, item.duration, item.fibonacci_n, item.memory_mb
        )
        for i, item in enumerate(items)
    ]


def invocation_task(
    labels: Dict[Tuple[int, int], Tuple[str, str]],
    task_id: int,
    arrival_time: float,
    service_time: float,
    fibonacci_n: int,
    memory_mb: int,
) -> Task:
    """One invocation of the function ``(fibonacci_n, memory_mb)``.

    ``labels`` memoises each function's ``(name, function_id)`` pair, so
    every invocation of a function references the same two string objects
    instead of formatting its own copies.
    """
    key = (fibonacci_n, memory_mb)
    shared = labels.get(key)
    if shared is None:
        name = f"fib({fibonacci_n})"
        shared = labels[key] = (name, f"{name}/{memory_mb}mb")
    return Task(
        task_id=task_id,
        arrival_time=arrival_time,
        service_time=service_time,
        memory_mb=memory_mb,
        fibonacci_n=fibonacci_n,
        name=shared[0],
        function_id=shared[1],
    )


# --------------------------------------------------------------------------
# Convenience builders matching the paper's workloads
# --------------------------------------------------------------------------

#: Number of invocations in the paper's two-minute workload.
PAPER_TWO_MINUTE_INVOCATIONS = 12_442

#: Number of microVMs the paper's server fits for the Firecracker experiment.
PAPER_FIRECRACKER_INVOCATIONS = 2_952


def build_workload(
    minutes: int,
    limit: Optional[int] = None,
    trace_config: Optional[AzureTraceConfig] = None,
    calibration: Optional[CalibrationTable] = None,
    downscale_factor: float = 100.0,
    seed: int = 7,
) -> List[Task]:
    """Full pipeline: synthesise trace → extract buckets → generate tasks."""
    trace_cfg = trace_config or AzureTraceConfig(minutes=max(minutes, 2))
    trace = generate_trace(trace_cfg)
    pipeline = ExtractionPipeline(
        calibration=calibration or default_calibration_table(),
        downscale_factor=downscale_factor,
    )
    buckets = pipeline.run(trace)
    generator = WorkloadGenerator(buckets)
    return generator.generate_tasks(WorkloadSpec(minutes=minutes, limit=limit, seed=seed))


def paper_workload_2min(
    limit: int = PAPER_TWO_MINUTE_INVOCATIONS, seed: int = 7
) -> List[Task]:
    """The first ~12,442 invocations (≈ 2 minutes) — the headline workload."""
    trace_cfg = AzureTraceConfig(minutes=2)
    return build_workload(minutes=2, limit=limit, trace_config=trace_cfg, seed=seed)


def paper_workload_10min(limit: Optional[int] = None, seed: int = 7) -> List[Task]:
    """The first 10 minutes — used for utilization and Firecracker studies."""
    trace_cfg = AzureTraceConfig(minutes=10)
    return build_workload(minutes=10, limit=limit, trace_config=trace_cfg, seed=seed)


def scaled_workload(
    num_tasks: int,
    minutes: int = 2,
    seed: int = 7,
    num_cores_hint: int = 50,
) -> List[Task]:
    """A smaller workload with the same shape, for tests and quick examples.

    The trace volume is scaled so that roughly ``num_tasks`` invocations fall
    in the requested window, keeping the duration mix and burstiness of the
    full workload while staying fast enough for unit tests.
    """
    if num_tasks <= 0:
        raise ValueError(f"num_tasks must be positive, got {num_tasks!r}")
    target = num_tasks * 100
    trace_cfg = AzureTraceConfig(
        minutes=max(minutes, 2),
        num_functions=max(50, min(2000, num_tasks)),
        target_invocations_first_two_minutes=max(200, int(target * 2 / max(minutes, 2))),
    )
    return build_workload(
        minutes=minutes, limit=num_tasks, trace_config=trace_cfg, seed=seed
    )
