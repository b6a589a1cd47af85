"""PML protocol internals: selection boundaries, injection ordering,
unexpected messages, FIN bookkeeping."""

import numpy as np
import pytest

from repro.mpi import Job, Machine, stacks
from repro.mpi.stacks import Stack
from repro.units import KiB


def run2(program, stack=stacks.TUNED_KNEM, machine="dancer", nprocs=2):
    m = Machine.build(machine)
    job = Job(m, nprocs=nprocs, stack=stack)
    return m, job.run(program)


class TestProtocolBoundaries:
    @pytest.mark.parametrize("nbytes,expect_knem,expect_fifo", [
        (64, 0, 0),            # inline
        (4 * KiB, 0, 0),       # eager (temp buffer, not per-pair FIFO)
        (8 * KiB, 0, 1),       # SM rendezvous (below knem threshold)
        (64 * KiB, 1, 0),      # KNEM rendezvous
    ])
    def test_transport_selection(self, nbytes, expect_knem, expect_fifo):
        def program(proc):
            buf = proc.alloc(nbytes, backed=False)
            if proc.rank == 0:
                yield from proc.comm.send(1, buf, 0, nbytes)
            else:
                yield from proc.comm.recv(0, buf, 0, nbytes)

        m, _ = run2(program)
        assert m.knem.stats_registrations == expect_knem
        assert len(m.shm._fifos) == expect_fifo

    def test_exact_threshold_uses_knem(self):
        def program(proc):
            buf = proc.alloc(16 * KiB, backed=False)
            if proc.rank == 0:
                yield from proc.comm.send(1, buf, 0, 16 * KiB)
            else:
                yield from proc.comm.recv(0, buf, 0, 16 * KiB)

        m, _ = run2(program)
        assert m.knem.stats_registrations == 1


class TestInjectionOrdering:
    def test_concurrent_isends_of_mixed_sizes_arrive_in_order(self):
        """A small message posted after a large one to the same peer must
        not overtake it (MPI non-overtaking) even though its protocol
        engine finishes registration earlier."""
        sizes = [256 * KiB, 1 * KiB, 64 * KiB, 64, 32 * KiB]

        def program(proc):
            if proc.rank == 0:
                reqs = []
                for i, n in enumerate(sizes):
                    buf = proc.alloc_array(n, "u1")
                    buf.array[:] = i + 1
                    reqs.append(proc.comm.isend(1, buf.sim, 0, n, tag="t"))
                for r in reqs:
                    yield r.event
                return None
            got = []
            for n in sizes:
                buf = proc.alloc_array(n, "u1")
                yield from proc.comm.recv(0, buf.sim, 0, n, tag="t")
                got.append(int(buf.array[0]))
            return got

        for stack in (stacks.TUNED_SM, stacks.TUNED_KNEM):
            _, res = run2(program, stack=stack)
            assert res.values[1] == [1, 2, 3, 4, 5], stack.name

    def test_ordering_independent_destinations_not_serialized(self):
        """Sends to different peers proceed concurrently."""
        def program(proc):
            n = 512 * KiB
            if proc.rank == 0:
                bufs = [proc.alloc(n, backed=False) for _ in range(3)]
                t0 = proc.now
                reqs = [proc.comm.isend(d + 1, bufs[d], 0, n)
                        for d in range(3)]
                for r in reqs:
                    yield r.event
                return proc.now - t0
            buf = proc.alloc(n, backed=False)
            yield from proc.comm.recv(0, buf, 0, n)
            return None

        _, res = run2(program, nprocs=4)
        # three concurrent 512K sends complete in well under 3x one send
        _, res_one = run2(_single_send_program, nprocs=4)
        assert res.values[0] < 2.2 * res_one.values[0]


def _single_send_program(proc):
    n = 512 * KiB
    if proc.rank == 0:
        buf = proc.alloc(n, backed=False)
        t0 = proc.now
        yield from proc.comm.send(1, buf, 0, n)
        return proc.now - t0
    if proc.rank == 1:
        buf = proc.alloc(n, backed=False)
        yield from proc.comm.recv(0, buf, 0, n)
    return None


class TestUnexpectedMessages:
    @pytest.mark.parametrize("nbytes", [64, 2 * KiB, 8 * KiB, 128 * KiB])
    def test_send_before_recv_posted(self, nbytes):
        """Unexpected-queue path for every protocol class."""
        def program(proc):
            buf = proc.alloc_array(nbytes, "u1")
            if proc.rank == 0:
                buf.array[:] = 99
                yield from proc.comm.send(1, buf.sim, 0, nbytes)
                return None
            yield proc.compute(1e-3)  # guarantee the message arrives first
            yield from proc.comm.recv(0, buf.sim, 0, nbytes)
            return int(buf.array[-1])

        _, res = run2(program)
        assert res.values[1] == 99

    def test_many_unexpected_matched_in_order(self):
        def program(proc):
            if proc.rank == 0:
                for i in range(8):
                    yield from proc.comm.send_obj(1, i, tag="u")
                return None
            yield proc.compute(1e-3)
            got = []
            for _ in range(8):
                obj, _st = yield from proc.comm.recv_obj(0, tag="u")
                got.append(obj)
            return got

        _, res = run2(program)
        assert res.values[1] == list(range(8))


class TestEndpointState:
    def test_no_leaked_regions_or_waiters_after_traffic(self):
        def program(proc):
            peer = 1 - proc.rank
            for n in (64, 8 * KiB, 128 * KiB):
                s = proc.alloc(n, backed=False)
                r = proc.alloc(n, backed=False)
                yield from proc.comm.sendrecv(peer, s, 0, n, peer, r, 0, n)

        m, _ = run2(program)
        assert m.knem.live_regions == 0
        for proc_ep in [p.pml for p in []]:
            pass
        # all matching queues drained
        job = Job(Machine.build("dancer"), nprocs=2, stack=stacks.TUNED_KNEM)
        job.run(program)
        for p in job.procs:
            assert all(eng.idle() for eng in p.pml.engines.values())
            assert not p.pml._fin_waiters

    def test_message_counters(self):
        def program(proc):
            if proc.rank == 0:
                buf = proc.alloc(1 * KiB, backed=False)
                yield from proc.comm.send(1, buf, 0, 1 * KiB)
                return proc.pml.sent_messages
            buf = proc.alloc(1 * KiB, backed=False)
            yield from proc.comm.recv(0, buf, 0, 1 * KiB)
            return proc.pml.received_messages

        _, res = run2(program)
        assert res.values == [1, 1]


class TestFifoBacking:
    """The per-pair FIFO is backed only once a backed payload enters it."""

    N = 96 * KiB  # above the eager limit: SM rendezvous through the FIFO

    def test_unbacked_send_leaves_fifo_unbacked(self):
        def program(proc):
            buf = proc.alloc(self.N, backed=False)
            if proc.rank == 0:
                yield from proc.comm.send(1, buf, 0, self.N)
            else:
                yield from proc.comm.recv(0, buf, 0, self.N)

        m, _ = run2(program, stack=stacks.TUNED_SM)
        (fifo,) = m.shm._fifos.values()
        assert not fifo.buffer.backed

    def test_backed_message_after_unbacked_one_delivers_exact_bytes(self):
        data = ((np.arange(self.N) * 7 + 3) % 251).astype(np.uint8)

        def program(proc):
            timing = proc.alloc(self.N, backed=False)
            buf = proc.alloc_array(self.N, "u1")
            if proc.rank == 0:
                buf.array[:] = data
                yield from proc.comm.send(1, timing, 0, self.N)
                yield from proc.comm.send(1, buf.sim, 0, self.N)
                return None
            yield from proc.comm.recv(0, timing, 0, self.N)
            yield from proc.comm.recv(0, buf.sim, 0, self.N)
            return np.array_equal(buf.array, data)

        m, res = run2(program, stack=stacks.TUNED_SM)
        assert res.values[1]
        (fifo,) = m.shm._fifos.values()
        assert fifo.buffer.backed
