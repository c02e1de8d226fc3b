"""Per-invocation memory footprint of the materialised path.

Workload factories share one ``name`` and one ``function_id`` string per
function, tasks carry no per-task dict contents or list, the ghOSt status
word and series points are slotted, and the column store's row buffer is
bounded.  The tracemalloc bounds pin the resulting bytes per task on the
paper's two-minute workload; they apply on Python >= 3.10 only, where
dataclasses can be slotted.
"""

from __future__ import annotations

import gc
import sys
import tracemalloc

import numpy as np
import pytest

from repro.cluster.dispatchers import function_key
from repro.core.hybrid import HybridScheduler
from repro.experiments.common import paper_hybrid_config
from repro.ghost.status_word import StatusWord
from repro.schedulers.fifo import FIFOScheduler
from repro.simulation.config import SimulationConfig
from repro.simulation.engine import simulate
from repro.simulation.metrics import SeriesPoint
from repro.workload.extraction import TraceBucket
from repro.workload.generator import (
    PAPER_TWO_MINUTE_INVOCATIONS,
    WorkloadItem,
    items_to_tasks,
    paper_workload_2min,
)
from repro.workload.streaming import BucketStreamSource

needs_slots = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="slotted dataclasses need Python >= 3.10"
)


def two_buckets():
    return [
        TraceBucket(
            fibonacci_n=25,
            duration=0.05,
            per_minute_counts=np.array([6.0, 3.0, 9.0]),
            memory_sizes_mb=[128, 256],
            memory_weights=[0.5, 0.5],
        ),
        TraceBucket(
            fibonacci_n=30,
            duration=0.4,
            per_minute_counts=np.array([3.0, 5.0, 2.0]),
            memory_sizes_mb=[512],
            memory_weights=[1.0],
        ),
    ]


def assert_labels_shared(tasks):
    """Same function => the very same name and function_id objects."""
    first = {}
    for task in tasks:
        key = (task.fibonacci_n, task.memory_mb)
        seen = first.setdefault(key, task)
        assert task.name is seen.name
        assert task.function_id is seen.function_id
    assert len(first) < len(tasks)


class TestSharedLabels:
    def test_items_to_tasks_shares_strings(self):
        items = [
            WorkloadItem(arrival_time=i * 0.1, fibonacci_n=30 + i % 2, duration=0.5,
                         memory_mb=128 * (1 + i % 3))
            for i in range(24)
        ]
        tasks = items_to_tasks(items)
        assert_labels_shared(tasks)
        assert not any(t.metadata for t in tasks)

    def test_bucket_stream_source_shares_strings_across_windows(self):
        source = BucketStreamSource(two_buckets(), minutes=3, seed=7)
        tasks = source.materialise()
        assert {int(t.arrival_time // 60) for t in tasks} == {0, 1, 2}
        assert_labels_shared(tasks)
        assert not any(t.metadata for t in tasks)

    def test_function_key_keeps_the_generated_strings(self):
        tasks = items_to_tasks(
            [WorkloadItem(arrival_time=0.0, fibonacci_n=33, duration=1.0, memory_mb=256)]
        ) + BucketStreamSource(two_buckets(), minutes=1).materialise()
        for task in tasks:
            expected = f"fib({task.fibonacci_n})/{task.memory_mb}mb"
            assert task.function_id == expected
            assert task.name == f"fib({task.fibonacci_n})"
            assert function_key(task) == expected

    def test_function_key_resolution_order(self):
        (task,) = items_to_tasks(
            [WorkloadItem(arrival_time=0.0, fibonacci_n=33, duration=1.0, memory_mb=256)]
        )
        task.metadata["function_id"] = "override"
        assert function_key(task) == "override"
        task.metadata["function_id"] = ""
        assert function_key(task) == "fib(33)/256mb"
        task.function_id = ""
        assert function_key(task) == "fib(33)"
        task.name = ""
        assert function_key(task) == f"task-{task.task_id}"


@needs_slots
def test_status_word_and_series_point_have_no_dict():
    assert not hasattr(StatusWord(task_id=1), "__dict__")
    assert not hasattr(SeriesPoint(time=0.0, value=1.0), "__dict__")


def traced_bytes_per_task(make_scheduler):
    """``(retained, peak)`` traced bytes per task: build, run, summarise.

    The same pipeline first runs untraced on a short prefix, so lazy
    imports and trace-bucket caches are warm and only per-invocation
    allocations are traced.
    """

    def build_run_summarise(limit):
        tasks = paper_workload_2min(limit=limit)
        result = simulate(make_scheduler(), tasks, config=SimulationConfig(num_cores=50))
        result.summary()
        return tasks, result

    build_run_summarise(1_000)
    gc.collect()
    tracemalloc.start()
    try:
        tasks, result = build_run_summarise(PAPER_TWO_MINUTE_INVOCATIONS)
        gc.collect()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(tasks) == 12_261
    return retained / len(tasks), peak / len(tasks)


@needs_slots
class TestTracedFootprint:
    def test_fifo_retained_bytes_per_task(self):
        retained, _ = traced_bytes_per_task(FIFOScheduler)
        assert retained <= 600, f"{retained:.0f} B/task retained"

    def test_hybrid_peak_bytes_per_task(self):
        _, peak = traced_bytes_per_task(lambda: HybridScheduler(paper_hybrid_config()))
        assert peak <= 1_100, f"{peak:.0f} B/task at peak"
