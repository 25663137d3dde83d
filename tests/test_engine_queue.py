"""Interface-queue discipline, checked against a plain-list reference model."""

import random
from dataclasses import dataclass

import pytest

from cbrsim.engine import InterfaceQueue, QueueOutcome
from cbrsim.errors import InvariantError


@dataclass
class FakePacket:
    label: str
    control: bool
    size_bytes: int = 512


def ctrl(label="c"):
    return FakePacket(label, True, 64)


def data(label="d"):
    return FakePacket(label, False, 512)


def test_data_into_empty_queue_accepted_at_head():
    q = InterfaceQueue(50)
    outcome, evicted = q.enqueue(data("d0"))
    assert outcome is QueueOutcome.ACCEPTED and evicted is None
    assert [p.label for p in q.slots] == ["d0"]


def test_control_inserts_between_controls_and_data():
    q = InterfaceQueue(50)
    q.enqueue(ctrl("c0"))
    q.enqueue(data("d0"))
    q.enqueue(ctrl("c1"))
    assert [p.label for p in q.slots] == ["c0", "c1", "d0"]


def test_full_queue_drops_incoming_data():
    q = InterfaceQueue(3)
    for i in range(3):
        q.enqueue(data(f"d{i}"))
    outcome, evicted = q.enqueue(data("late"))
    assert outcome is QueueOutcome.DROPPED_INCOMING and evicted is None
    assert [p.label for p in q.slots] == ["d0", "d1", "d2"]


def test_full_queue_control_evicts_newest_data():
    q = InterfaceQueue(3)
    q.enqueue(ctrl("c0"))
    q.enqueue(data("d0"))
    q.enqueue(data("d1"))
    outcome, evicted = q.enqueue(ctrl("c1"))
    assert outcome is QueueOutcome.DROPPED_TAIL_DATA
    assert evicted.label == "d1"
    assert [p.label for p in q.slots] == ["c0", "c1", "d0"]


def test_full_queue_of_controls_drops_incoming_control():
    q = InterfaceQueue(2)
    q.enqueue(ctrl("c0"))
    q.enqueue(ctrl("c1"))
    outcome, evicted = q.enqueue(ctrl("c2"))
    assert outcome is QueueOutcome.DROPPED_INCOMING and evicted is None
    assert [p.label for p in q.slots] == ["c0", "c1"]


def test_pop_preserves_fifo_within_classes():
    q = InterfaceQueue(50)
    q.enqueue(data("d0"))
    q.enqueue(ctrl("c0"))
    q.enqueue(data("d1"))
    q.enqueue(ctrl("c1"))
    order = [q.pop_head().label for _ in range(4)]
    assert order == ["c0", "c1", "d0", "d1"]


class ReferenceQueue:
    """Straight-line restatement of the discipline, kept deliberately naive."""

    def __init__(self, capacity):
        self.items = []
        self.capacity = capacity

    def enqueue(self, p):
        if p.control:
            if len(self.items) >= self.capacity:
                if all(x.control for x in self.items):
                    return ("dropped_incoming", None)
                evicted = self.items.pop()  # newest data sits last
                insert_at = sum(1 for x in self.items if x.control)
                self.items.insert(insert_at, p)
                return ("dropped_tail_data", evicted)
            insert_at = sum(1 for x in self.items if x.control)
            self.items.insert(insert_at, p)
            return ("accepted", None)
        if len(self.items) >= self.capacity:
            return ("dropped_incoming", None)
        self.items.append(p)
        return ("accepted", None)

    def pop(self):
        return self.items.pop(0)


@pytest.mark.parametrize("seed", range(10))
def test_randomized_sequences_match_reference(seed):
    rng = random.Random(seed)
    capacity = rng.choice([1, 2, 3, 5, 8, 50])
    q = InterfaceQueue(capacity)
    ref = ReferenceQueue(capacity)
    for step in range(2000):
        if rng.random() < 0.65 or not ref.items:
            p = FakePacket(f"p{step}", control=rng.random() < 0.4)
            got, got_evicted = q.enqueue(p)
            want, want_evicted = ref.enqueue(p)
            assert got.value == want
            assert (got_evicted.label if got_evicted else None) == (
                want_evicted.label if want_evicted else None
            )
        else:
            assert q.pop_head().label == ref.pop().label
        assert [p.label for p in q.slots] == [p.label for p in ref.items]
        assert len(q.slots) <= capacity
        labels_control = [p.control for p in q.slots]
        # control prefix, then data suffix
        assert labels_control == sorted(labels_control, reverse=True)


def test_capacity_breach_raises():
    q = InterfaceQueue(3)
    for i in range(3):
        q.enqueue(data(f"d{i}"))
    q.capacity = 2  # the queue now holds more than it may
    with pytest.raises(InvariantError, match="above capacity"):
        q.enqueue(ctrl())


def test_slots_view_is_read_only():
    q = InterfaceQueue(5)
    q.enqueue(data("d0"))
    q.enqueue(ctrl("c0"))
    with pytest.raises(TypeError):
        q.slots[0] = ctrl("x")
    with pytest.raises(AttributeError):
        q.slots = []
    assert [p.label for p in q.slots] == ["c0", "d0"]


def test_transmission_time_of_512_bytes_at_2mbit():
    # 512 bytes at 2 Mbit/s occupy the medium for exactly 2.048 ms.
    assert 512 * 8.0 / 2_000_000.0 == pytest.approx(2.048e-3, rel=1e-12)
