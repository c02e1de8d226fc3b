"""Differential test of :class:`EventQueue` against a sorted-list model.

Random interleavings of push, push_sequenced, cancel (double cancels and
cancels after pop included), cancel_pending, pop, peek_time and clear run
against both the real queue and a plain list of pending entries.  After
every operation the queue must agree with the model on ``len()`` and the
live timestamps; every ``peek_time()`` on the earliest time and every pop
on the very event the model says is earliest.  Bulk pushes and range cancels push the
heap past the compaction threshold, so the same checks also hold across
tombstone compactions.
"""

from __future__ import annotations

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.simulation.events import EventPriority, EventQueue

TAGS = ["a", "b", "c"]

times = st.integers(min_value=0, max_value=6).map(lambda t: t / 2)
priorities = st.sampled_from(list(EventPriority))
tags = st.sampled_from(TAGS)
handle_refs = st.integers(min_value=0, max_value=10_000)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("push"), times, priorities, tags),
        st.tuples(
            st.just("push_sequenced"),
            times,
            priorities,
            tags,
            st.integers(min_value=-40, max_value=-1),
        ),
        st.tuples(st.just("bulk"), times, tags, st.integers(min_value=40, max_value=90)),
        st.tuples(st.just("cancel"), handle_refs),
        st.tuples(st.just("cancel_range"), handle_refs, st.integers(1, 80)),
        st.tuples(st.just("cancel_pending"), tags),
        st.tuples(st.just("pop")),
        st.tuples(st.just("peek_time")),
        st.tuples(st.just("clear")),
    ),
    max_size=80,
)


class Model:
    """The queue's contract as a list: pending entries, earliest first."""

    def __init__(self) -> None:
        self.pending = []  # (time, priority, seq, event), kept sorted
        self.next_seq = 0

    def add(self, time, priority, seq, event) -> None:
        self.pending.append((time, int(priority), seq, event))
        self.pending.sort(key=lambda entry: entry[:3])

    def drop(self, event) -> bool:
        for index, entry in enumerate(self.pending):
            if entry[3] is event:
                del self.pending[index]
                return True
        return False

    def times(self):
        return [entry[0] for entry in self.pending]


def apply(queue: EventQueue, model: Model, handles: list, used_seqs: set, op) -> None:
    name = op[0]
    if name == "push":
        _, time, priority, tag = op
        event = queue.push(time, None, priority=priority, tag=tag)
        model.add(time, priority, model.next_seq, event)
        model.next_seq += 1
        handles.append(event)
    elif name == "push_sequenced":
        _, time, priority, tag, seq = op
        if seq in used_seqs:  # the caller contract: sequence numbers are unique
            return
        used_seqs.add(seq)
        event = queue.push_sequenced(time, seq, priority=priority, tag=tag)
        model.add(time, priority, seq, event)
        handles.append(event)
    elif name == "bulk":
        _, time, tag, count = op
        for i in range(count):
            push = ("push", time + (i % 5) / 4, EventPriority.TIMER, tag)
            apply(queue, model, handles, used_seqs, push)
    elif name == "cancel":
        if handles:
            event = handles[op[1] % len(handles)]
            was_cancelled, was_pending = event.cancelled, model.drop(event)
            event.cancel()
            # Only a pending event changes state; a popped one stays uncancelled.
            assert event.cancelled == (was_cancelled or was_pending)
    elif name == "cancel_range":
        _, start, count = op
        for i in range(count):
            apply(queue, model, handles, used_seqs, ("cancel", start + i))
    elif name == "cancel_pending":
        tag = op[1]
        doomed = [entry for entry in model.pending if entry[3].tag == tag]
        for entry in doomed:
            model.drop(entry[3])
        assert queue.cancel_pending(tag) == len(doomed)
    elif name == "pop":
        expected = model.pending.pop(0)[3] if model.pending else None
        assert queue.pop() is expected
    elif name == "peek_time":
        expected = model.pending[0][0] if model.pending else None
        assert queue.peek_time() == expected
    elif name == "clear":
        queue.clear()
        model.pending.clear()
    else:  # pragma: no cover - strategy and dispatcher out of step
        raise AssertionError(name)


COMPACTING = [
    ("bulk", 0.0, "a", 80),
    ("push", 1.0, EventPriority.ARRIVAL, "b"),
    ("cancel_range", 0, 70),
    ("pop",),
    ("cancel_pending", "a"),
    ("bulk", 0.5, "c", 70),
    ("cancel_range", 82, 60),
]


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ops=operations)
@example(ops=COMPACTING)
def test_queue_matches_sorted_list_model(ops):
    queue, model, handles, used_seqs = EventQueue(), Model(), [], set()
    for op in ops:
        apply(queue, model, handles, used_seqs, op)
        assert len(queue) == len(model.pending)
        assert queue.drain_times() == model.times()
    # Drain: the full pop order matches, whatever compactions happened.
    assert list(iter(queue.pop, None)) == [entry[3] for entry in model.pending]
    assert len(queue) == 0 and queue.peek_time() is None
    # Every handle is spent now: cancelling any of them is a no-op.
    for event in handles:
        event.cancel()
    assert len(queue) == 0


def test_compacting_example_does_compact():
    """Keeps the pinned example above honest: it must cross a compaction."""
    queue, model, handles, used_seqs = EventQueue(), Model(), [], set()
    for op in COMPACTING:
        apply(queue, model, handles, used_seqs, op)
    assert queue.compactions > 0
    assert list(iter(queue.pop, None)) == [entry[3] for entry in model.pending]
