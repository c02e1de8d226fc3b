"""Differential test of the column stores' bounded row buffer.

``append`` flushes its row buffer into the structured array every
``FLUSH_ROWS`` rows.  Random interleavings of append batches with reads
(``len``, ``data``, ``column``, ``summary``, ``sorted_by_task_id``) run
against a model filled in one shot: every row appended so far converted in
a single ``np.array`` call (for the reservoir, after replaying algorithm R
with the store's seeded generator).  After every read the store must hold
exactly the model's rows, and the pending buffer must never exceed the
chunk size.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.simulation.columns import (
    FLUSH_ROWS,
    NO_CORE,
    TASK_COLUMNS_DTYPE,
    ReservoirTaskColumns,
    SpillTaskColumns,
    TaskColumns,
    merge_columns,
)
from repro.simulation.metrics import TaskMetricsSummary
from repro.simulation.task import Task

POOL_SIZE = 12_000


def _finished(i):
    task = Task(
        task_id=i,
        arrival_time=i * 0.01,
        service_time=0.05 + (i % 13) * 0.2,
        memory_mb=128 * (1 + i % 4),
        weight=1.0 + (i % 3),
    )
    start = task.arrival_time + (i % 7) * 0.1
    core = None if i % 11 == 0 else i % 5
    task.mark_running(start, core_id=-1 if core is None else core)
    task.last_core = core
    task.account_service(task.service_time)
    task.preemptions = i % 2
    task.mark_finished(start + task.service_time + (i % 5) * 0.3)
    return task


POOL = [_finished(i) for i in range(POOL_SIZE)]


def _row(task):
    return (
        task.task_id,
        task.arrival_time,
        task.service_time,
        task.first_run_time,
        task.completion_time,
        task.memory_mb,
        task.weight,
        task.preemptions,
        task.migrations,
        NO_CORE if task.last_core is None else task.last_core,
    )


class PlainModel:
    """Every appended row, in order (the plain and spill stores keep all)."""

    def __init__(self):
        self.rows = []

    def append(self, task):
        self.rows.append(_row(task))

    def array(self):
        return np.array(self.rows, dtype=TASK_COLUMNS_DTYPE)


class ReservoirModel(PlainModel):
    """Algorithm R over the same seeded generator as the reservoir store."""

    def __init__(self, cap, seed):
        super().__init__()
        self.cap = cap
        self.rng = np.random.default_rng(seed)
        self.seen = 0

    def append(self, task):
        index = self.seen
        self.seen += 1
        if index < self.cap:
            self.rows.append(_row(task))
            return
        slot = int(self.rng.integers(0, index + 1))
        if slot < self.cap:
            self.rows[slot] = _row(task)


STORES = {
    "plain": (lambda: TaskColumns(), PlainModel),
    "reservoir_small": (
        lambda: ReservoirTaskColumns(cap=1_000, seed=3),
        lambda: ReservoirModel(1_000, 3),
    ),
    "reservoir_large": (
        lambda: ReservoirTaskColumns(cap=FLUSH_ROWS + 1_000, seed=3),
        lambda: ReservoirModel(FLUSH_ROWS + 1_000, 3),
    ),
    "spill": (lambda: SpillTaskColumns(cap=FLUSH_ROWS + 500), PlainModel),
}

READS = ["len", "data", "column", "summary", "sorted"]

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=1, max_value=3_000)),
        st.tuples(st.just("read"), st.sampled_from(READS)),
    ),
    max_size=10,
)


def _expected_summary(kind, model, appended):
    if kind.startswith("reservoir"):
        # The exact aggregates cover every task: compare with a store of the
        # same kind filled in one shot, read once.
        reference = STORES[kind][0]()
        reference.extend(POOL[i % POOL_SIZE] for i in range(appended))
        return reference.summary()
    return TaskMetricsSummary.from_columns(
        merge_columns([SimpleNamespace(data=model.array())])
    )


def _check_read(kind, store, model, appended, read):
    expected = model.array()
    if read == "len":
        assert len(store) == appended
        assert bool(store) == (appended > 0)
    elif read == "data":
        np.testing.assert_array_equal(store.data, expected)
    elif read == "column":
        np.testing.assert_array_equal(store.column("completion"), expected["completion"])
    elif read == "summary":
        assert store.summary() == _expected_summary(kind, model, appended)
    else:
        order = np.argsort(expected["task_id"], kind="stable")
        np.testing.assert_array_equal(store.sorted_by_task_id(), expected[order])
    # Whatever was read, the stored rows are the model's rows.
    np.testing.assert_array_equal(store.data, expected)


def run_ops(kind, ops):
    make_store, make_model = STORES[kind]
    store, model = make_store(), make_model()
    appended = 0
    try:
        for op, arg in ops:
            if op == "append":
                for _ in range(arg):
                    task = POOL[appended % POOL_SIZE]
                    store.append(task)
                    model.append(task)
                    appended += 1
                    assert len(store._pending) < FLUSH_ROWS
            else:
                _check_read(kind, store, model, appended, arg)
        _check_read(kind, store, model, appended, "data")
    finally:
        if isinstance(store, SpillTaskColumns):
            store.close()


@pytest.mark.parametrize("kind", sorted(STORES))
@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture],
)
@given(ops=operations)
@example(
    ops=[
        ("append", 3_000),
        ("read", "summary"),
        ("append", 2_000),
        ("read", "len"),
        ("append", 1),
        ("read", "sorted"),
        ("append", 2_500),
        ("read", "column"),
    ]
)
@example(ops=[("append", FLUSH_ROWS), ("read", "data"), ("append", FLUSH_ROWS + 1)])
def test_chunked_flush_matches_one_shot_fill(kind, ops):
    run_ops(kind, ops)


def test_flush_boundary_moves_rows_into_the_array():
    store = TaskColumns()
    for task in POOL[: FLUSH_ROWS - 1]:
        store.append(task)
    assert store._size == 0 and len(store._pending) == FLUSH_ROWS - 1
    store.append(POOL[FLUSH_ROWS - 1])
    assert store._size == FLUSH_ROWS and not store._pending
    assert len(store) == FLUSH_ROWS
