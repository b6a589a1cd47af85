"""Shared-memory layer: mailboxes, FIFO segments, latency model."""

import pytest

from repro.errors import ShmError
from repro.hardware.machines import dancer, ig, zoot
from repro.hardware.memory import MemorySystem
from repro.kernel.costs import KernelCosts
from repro.kernel.shm import FifoSegment, ShmWorld, mailbox_latency
from repro.simtime import Simulator


@pytest.fixture
def world():
    sim = Simulator()
    spec = dancer()
    mem = MemorySystem(sim, spec)
    return sim, spec, mem, ShmWorld(sim, spec, mem)


class TestMailboxLatency:
    def test_monotone_with_distance(self):
        spec = ig()
        same_core = mailbox_latency(spec, 0, 0)
        same_socket = mailbox_latency(spec, 0, 1)
        same_board = mailbox_latency(spec, 0, 6)
        cross_board = mailbox_latency(spec, 0, 47)
        assert same_core < same_socket < same_board < cross_board

    def test_symmetry(self):
        spec = ig()
        for a, b in ((0, 5), (0, 13), (3, 42)):
            assert mailbox_latency(spec, a, b) == mailbox_latency(spec, b, a)

    def test_zoot_same_domain_uses_socket_distance(self):
        spec = zoot()
        assert mailbox_latency(spec, 0, 1) < mailbox_latency(spec, 0, 4)


class TestMailbox:
    def test_post_delivers_after_latency(self, world):
        sim, spec, _mem, shm = world
        box = shm.mailbox(4, "x")
        got = []

        def receiver():
            v = yield box.recv()
            got.append((v, sim.now))

        def sender():
            yield box.store(0)
            box.deliver(0, "hello")

        sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert got[0][0] == "hello"
        assert got[0][1] > 0

    def test_fifo_order_per_sender(self, world):
        sim, _spec, _mem, shm = world
        box = shm.mailbox(1, "y")
        got = []

        def sender():
            for i in range(5):
                yield box.store(0)
                box.deliver(0, i)

        def receiver():
            for _ in range(5):
                got.append((yield box.recv()))

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert got == [0, 1, 2, 3, 4]


class TestFifoSegment:
    def test_slots_cycle_through_indices(self, world):
        sim, spec, mem, shm = world
        fifo = shm.fifo(0, 4, fragment_size=1024, n_slots=2)
        seen = []

        def sender():
            for i in range(4):
                slot = yield fifo.acquire_slot()
                seen.append(slot)
                fifo.publish(slot, 1024)

        def receiver():
            for _ in range(4):
                slot, n, _meta = yield fifo.next_full()
                assert n == 1024
                fifo.release_slot(slot)

        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert sorted(set(seen)) == [0, 1]

    def test_backpressure_blocks_sender(self, world):
        sim, _spec, _mem, shm = world
        fifo = shm.fifo(0, 4, fragment_size=64, n_slots=2)
        progress = []

        def sender():
            for i in range(3):
                slot = yield fifo.acquire_slot()
                progress.append((i, sim.now))
                fifo.publish(slot, 64)

        def slow_receiver():
            yield sim.timeout(1.0)
            slot, _n, _ = yield fifo.next_full()
            fifo.release_slot(slot)

        sim.process(sender())
        sim.process(slow_receiver())
        sim.run(until=10.0)
        # third acquisition had to wait for the slow receiver's release
        assert progress[2][1] >= 1.0

    def test_buffer_homed_on_receiver_domain(self, world):
        _sim, spec, _mem, shm = world
        fifo = shm.fifo(0, 4)  # sender socket 0, receiver socket 1
        assert fifo.buffer.domain == spec.core_domain(4)

    def test_per_pair_caching(self, world):
        _sim, _spec, _mem, shm = world
        assert shm.fifo(0, 4) is shm.fifo(0, 4)
        assert shm.fifo(0, 4) is not shm.fifo(4, 0)

    def test_bad_parameters_rejected(self, world):
        sim, spec, mem, _shm = world
        with pytest.raises(ShmError):
            FifoSegment(mem, spec, KernelCosts(), 0, 1, fragment_size=0,
                        n_slots=4)
        fifo = FifoSegment(mem, spec, KernelCosts(), 0, 1, 64, 2)
        with pytest.raises(ShmError):
            fifo.slot_offset(2)
        with pytest.raises(ShmError):
            fifo.release_slot(5)
