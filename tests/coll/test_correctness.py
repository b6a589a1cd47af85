"""Data correctness of every collective on every component.

Each test moves real numpy payloads through the simulated machine and
verifies MPI semantics byte-for-byte, across components, roots, and the
delegation threshold (sizes below/above KNEM-Coll's 16 KB switch-point).
"""

import numpy as np
import pytest

from repro.hardware.memory import MemorySystem
from repro.mpi import Job, Machine, stacks
from repro.units import KiB

ALL = list(stacks.ALL_STACKS)
IDS = [s.name for s in ALL]

# one size under the KNEM delegation threshold, one over it
SIZES = [4 * KiB, 96 * KiB]


def run(program, *args, stack, nprocs=8, machine="dancer"):
    job = Job(Machine.build(machine), nprocs=nprocs, stack=stack)
    return job.run(program, *args)


def pattern(rank: int, n: int, salt: int = 0) -> np.ndarray:
    return ((np.arange(n) * (rank + 3) + salt) % 251).astype(np.uint8)


@pytest.mark.parametrize("stack", ALL, ids=IDS)
@pytest.mark.parametrize("count", SIZES)
class TestBcast:
    def test_bcast(self, stack, count):
        def program(proc, root):
            buf = proc.alloc_array(count, "u1")
            if proc.rank == root:
                buf.array[:] = pattern(root, count)
            yield from proc.comm.bcast(buf.sim, 0, count, root=root)
            return np.array_equal(buf.array, pattern(root, count))

        for root in (0, 5):
            res = run(program, root, stack=stack)
            assert all(res.values), f"bcast root={root}"

    def test_bcast_offset(self, stack, count):
        def program(proc):
            buf = proc.alloc_array(count + 128, "u1")
            if proc.rank == 0:
                buf.array[64:64 + count] = pattern(0, count)
            yield from proc.comm.bcast(buf.sim, 64, count, root=0)
            ok = np.array_equal(buf.array[64:64 + count], pattern(0, count))
            ok &= (buf.array[:64] == 0).all() and (buf.array[64 + count:] == 0).all()
            return ok

        assert all(run(program, stack=stack).values)


@pytest.mark.parametrize("stack", ALL, ids=IDS)
@pytest.mark.parametrize("count", SIZES)
class TestRooted:
    def test_gather(self, stack, count):
        def program(proc, root):
            send = proc.alloc_array(count, "u1")
            send.array[:] = pattern(proc.rank, count)
            recv = (proc.alloc_array(count * proc.comm.size, "u1")
                    if proc.rank == root else None)
            yield from proc.comm.gather(send.sim, recv.sim if recv else None,
                                        count, root=root)
            if proc.rank != root:
                return True
            return all(
                np.array_equal(recv.array[r * count:(r + 1) * count],
                               pattern(r, count))
                for r in range(proc.comm.size)
            )

        for root in (0, 3):
            assert all(run(program, root, stack=stack).values)

    def test_scatter(self, stack, count):
        def program(proc, root):
            size = proc.comm.size
            send = None
            if proc.rank == root:
                send = proc.alloc_array(count * size, "u1")
                for r in range(size):
                    send.array[r * count:(r + 1) * count] = pattern(r, count)
            recv = proc.alloc_array(count, "u1")
            yield from proc.comm.scatter(send.sim if send else None, recv.sim,
                                         count, root=root)
            return np.array_equal(recv.array, pattern(proc.rank, count))

        for root in (0, 6):
            assert all(run(program, root, stack=stack).values)

    def test_gatherv_ragged(self, stack, count):
        def program(proc):
            size = proc.comm.size
            counts = [count // 2 + 128 * r for r in range(size)]
            displs = list(np.cumsum([0] + counts[:-1]))
            mine = counts[proc.rank]
            send = proc.alloc_array(mine, "u1")
            send.array[:] = pattern(proc.rank, mine, salt=9)
            recv = (proc.alloc_array(sum(counts), "u1")
                    if proc.rank == 1 else None)
            yield from proc.comm.gatherv(send.sim,
                                         recv.sim if recv else None,
                                         counts, displs, root=1)
            if proc.rank != 1:
                return True
            return all(
                np.array_equal(
                    recv.array[displs[r]:displs[r] + counts[r]],
                    pattern(r, counts[r], salt=9))
                for r in range(size)
            )

        assert all(run(program, stack=stack).values)

    def test_scatterv_ragged(self, stack, count):
        def program(proc):
            size = proc.comm.size
            counts = [count // 2 + 64 * r for r in range(size)]
            displs = list(np.cumsum([0] + counts[:-1]))
            send = None
            if proc.rank == 2:
                send = proc.alloc_array(sum(counts), "u1")
                for r in range(size):
                    send.array[displs[r]:displs[r] + counts[r]] = \
                        pattern(r, counts[r], salt=4)
            recv = proc.alloc_array(counts[proc.rank], "u1")
            yield from proc.comm.scatterv(send.sim if send else None, counts,
                                          displs, recv.sim, root=2)
            return np.array_equal(recv.array,
                                  pattern(proc.rank, counts[proc.rank], salt=4))

        assert all(run(program, stack=stack).values)


@pytest.mark.parametrize("stack", ALL, ids=IDS)
@pytest.mark.parametrize("count", SIZES)
class TestAllToAllFamily:
    def test_allgather(self, stack, count):
        def program(proc):
            size = proc.comm.size
            send = proc.alloc_array(count, "u1")
            send.array[:] = pattern(proc.rank, count)
            recv = proc.alloc_array(count * size, "u1")
            yield from proc.comm.allgather(send.sim, recv.sim, count)
            return all(
                np.array_equal(recv.array[r * count:(r + 1) * count],
                               pattern(r, count))
                for r in range(size)
            )

        assert all(run(program, stack=stack).values)

    def test_alltoall(self, stack, count):
        def program(proc):
            size = proc.comm.size
            send = proc.alloc_array(count * size, "u1")
            for r in range(size):
                send.array[r * count:(r + 1) * count] = \
                    pattern(proc.rank * size + r, count)
            recv = proc.alloc_array(count * size, "u1")
            yield from proc.comm.alltoall(send.sim, recv.sim, count)
            return all(
                np.array_equal(recv.array[r * count:(r + 1) * count],
                               pattern(r * size + proc.rank, count))
                for r in range(size)
            )

        assert all(run(program, stack=stack).values)

    def test_alltoallv_ragged(self, stack, count):
        def program(proc):
            size = proc.comm.size
            # rank r sends (count//4 + 64*(r+p)) bytes to rank p
            def block(r, p):
                return count // 4 + 64 * (r + p)

            send_counts = [block(proc.rank, p) for p in range(size)]
            send_displs = list(np.cumsum([0] + send_counts[:-1]))
            recv_counts = [block(p, proc.rank) for p in range(size)]
            recv_displs = list(np.cumsum([0] + recv_counts[:-1]))
            send = proc.alloc_array(sum(send_counts), "u1")
            for p in range(size):
                send.array[send_displs[p]:send_displs[p] + send_counts[p]] = \
                    pattern(proc.rank * size + p, send_counts[p], salt=1)
            recv = proc.alloc_array(sum(recv_counts), "u1")
            yield from proc.comm.alltoallv(
                send.sim, send_counts, send_displs,
                recv.sim, recv_counts, recv_displs,
            )
            return all(
                np.array_equal(
                    recv.array[recv_displs[p]:recv_displs[p] + recv_counts[p]],
                    pattern(p * size + proc.rank, recv_counts[p], salt=1))
                for p in range(size)
            )

        assert all(run(program, stack=stack).values)


@pytest.mark.parametrize("stack", ALL, ids=IDS)
class TestEdgeShapes:
    def test_single_rank_collectives(self, stack):
        def program(proc):
            n = 64 * KiB
            a = proc.alloc_array(n, "u1")
            b = proc.alloc_array(n, "u1")
            a.array[:] = 17
            yield from proc.comm.bcast(a.sim, 0, n, root=0)
            yield from proc.comm.allgather(a.sim, b.sim, n)
            yield from proc.comm.alltoall(a.sim, b.sim, n)
            yield from proc.comm.gather(a.sim, b.sim, n, root=0)
            yield from proc.comm.scatter(a.sim, b.sim, n, root=0)
            yield from proc.comm.barrier()
            return (b.array == 17).all()

        res = run(program, stack=stack, nprocs=1)
        assert res.values == [True]

    def test_two_ranks(self, stack):
        def program(proc):
            n = 32 * KiB
            send = proc.alloc_array(n, "u1")
            send.array[:] = proc.rank + 1
            recv = proc.alloc_array(2 * n, "u1")
            yield from proc.comm.allgather(send.sim, recv.sim, n)
            return (recv.array[:n] == 1).all() and (recv.array[n:] == 2).all()

        res = run(program, stack=stack, nprocs=2)
        assert all(res.values)

    def test_odd_rank_count(self, stack):
        """Non-power-of-two paths (ring fallbacks, binomial remainders)."""
        def program(proc):
            n = 48 * KiB
            size = proc.comm.size
            send = proc.alloc_array(n, "u1")
            send.array[:] = proc.rank + 1
            recv = proc.alloc_array(n * size, "u1")
            yield from proc.comm.allgather(send.sim, recv.sim, n)
            buf = proc.alloc_array(n, "u1")
            if proc.rank == 2:
                buf.array[:] = 99
            yield from proc.comm.bcast(buf.sim, 0, n, root=2)
            return (buf.array == 99).all() and all(
                (recv.array[r * n:(r + 1) * n] == r + 1).all()
                for r in range(size)
            )

        res = run(program, stack=stack, nprocs=7)
        assert all(res.values)

    def test_zero_byte_collectives(self, stack):
        def program(proc):
            buf = proc.alloc_array(16, "u1")
            yield from proc.comm.bcast(buf.sim, 0, 0, root=0)
            yield from proc.comm.gather(buf.sim, buf.sim, 0, root=0)
            return True

        assert all(run(program, stack=stack, nprocs=4).values)


def concat(parts):
    return np.concatenate(parts) if parts else np.zeros(0, dtype="u1")


@pytest.mark.parametrize("stack", ALL, ids=IDS)
class TestDifferentialOracle:
    """Ragged v-collectives against an independently built NumPy oracle.

    The count vectors mix zero-length, tiny, and beyond-threshold entries
    in one call, so each component crosses its delegation and topology
    branches mid-collective; the expected payloads are assembled with plain
    numpy from the same deterministic per-rank patterns and compared
    byte-for-byte with what the ranks hand back.
    """

    # 8 ranks: two silent ranks, sub-cacheline scraps, and three blocks
    # beyond KNEM-Coll's 16 KB switch-point
    COUNTS = [0, 20 * KiB, 3, 40 * KiB, 0, 17, 25 * KiB, KiB]

    @staticmethod
    def displs(counts):
        return list(np.cumsum([0] + list(counts[:-1])))

    def test_scatterv_matches_oracle(self, stack):
        counts, displs = self.COUNTS, self.displs(self.COUNTS)
        parts = [pattern(r, counts[r], salt=11) for r in range(len(counts))]

        def program(proc):
            send = None
            if proc.rank == 3:
                send = proc.wrap(concat(parts))
            recv = proc.alloc_array(max(counts[proc.rank], 1), "u1")
            yield from proc.comm.scatterv(send.sim if send else None, counts,
                                          displs, recv.sim, root=3)
            return recv.array[:counts[proc.rank]].tobytes()

        res = run(program, stack=stack)
        assert res.values == [p.tobytes() for p in parts]

    def test_gatherv_matches_oracle(self, stack):
        counts, displs = self.COUNTS, self.displs(self.COUNTS)
        oracle = concat([pattern(r, counts[r], salt=13)
                         for r in range(len(counts))]).tobytes()

        def program(proc):
            mine = counts[proc.rank]
            send = proc.wrap(pattern(proc.rank, mine, salt=13)) \
                if mine else proc.alloc_array(1, "u1")
            recv = (proc.alloc_array(sum(counts), "u1")
                    if proc.rank == 5 else None)
            yield from proc.comm.gatherv(send.sim, recv.sim if recv else None,
                                         counts, displs, root=5)
            return recv.array.tobytes() if recv is not None else None

        res = run(program, stack=stack)
        assert res.values[5] == oracle

    def test_allgatherv_matches_oracle(self, stack):
        counts, displs = self.COUNTS, self.displs(self.COUNTS)
        oracle = concat([pattern(r, counts[r], salt=15)
                         for r in range(len(counts))]).tobytes()

        def program(proc):
            mine = counts[proc.rank]
            send = proc.wrap(pattern(proc.rank, mine, salt=15)) \
                if mine else proc.alloc_array(1, "u1")
            recv = proc.alloc_array(sum(counts), "u1")
            yield from proc.comm.allgatherv(send.sim, recv.sim, counts,
                                            displs)
            return recv.array.tobytes()

        res = run(program, stack=stack)
        assert res.values == [oracle] * len(counts)

    @pytest.mark.parametrize("regime", ["delegated", "knem"])
    def test_alltoallv_with_holes_matches_oracle(self, stack, regime):
        # zero blocks punched into the exchange; every rank's largest send
        # stays on the same side of the 16 KB switch-point (KNEM-Coll's
        # delegation decision is per-rank)
        base = 512 if regime == "delegated" else 18 * KiB
        nprocs = 8

        def block(r, p):
            return 0 if (r + p) % 3 == 0 else base + 32 * (r + p)

        def payload(r, p):
            return pattern(r * nprocs + p, block(r, p), salt=17)

        oracles = [concat([payload(p, q) for p in range(nprocs)]).tobytes()
                   for q in range(nprocs)]

        def program(proc):
            size = proc.comm.size
            send_counts = [block(proc.rank, p) for p in range(size)]
            recv_counts = [block(p, proc.rank) for p in range(size)]
            send_displs = self.displs(send_counts)
            recv_displs = self.displs(recv_counts)
            send = proc.wrap(concat([payload(proc.rank, p)
                                     for p in range(size)]))
            recv = proc.alloc_array(max(sum(recv_counts), 1), "u1")
            yield from proc.comm.alltoallv(send.sim, send_counts, send_displs,
                                           recv.sim, recv_counts, recv_displs)
            return recv.array[:sum(recv_counts)].tobytes()

        res = run(program, stack=stack, nprocs=nprocs)
        assert res.values == oracles

    def test_single_rank_v_collectives(self, stack):
        n = 24 * KiB
        data = pattern(0, n, salt=19)

        def program(proc):
            send = proc.wrap(data)
            recv = proc.alloc_array(n, "u1")
            yield from proc.comm.scatterv(send.sim, [n], [0], recv.sim, root=0)
            ok = np.array_equal(recv.array, data)
            recv.array[:] = 0
            yield from proc.comm.gatherv(send.sim, recv.sim, [n], [0], root=0)
            ok &= np.array_equal(recv.array, data)
            recv.array[:] = 0
            yield from proc.comm.allgatherv(send.sim, recv.sim, [n], [0])
            ok &= np.array_equal(recv.array, data)
            recv.array[:] = 0
            yield from proc.comm.alltoallv(send.sim, [n], [0],
                                           recv.sim, [n], [0])
            return ok and np.array_equal(recv.array, data)

        assert run(program, stack=stack, nprocs=1).values == [True]


@pytest.mark.parametrize("machine,nprocs", [("zoot", 16), ("ig", 48)],
                         ids=["zoot16", "ig48"])
def test_knem_coll_full_machine(machine, nprocs):
    """KNEM-Coll end-to-end on the full paper machines (hierarchy engaged)."""
    count = 64 * KiB

    def program(proc):
        size = proc.comm.size
        buf = proc.alloc_array(count, "u1")
        if proc.rank == 0:
            buf.array[:] = pattern(0, count)
        yield from proc.comm.bcast(buf.sim, 0, count, root=0)
        ok = np.array_equal(buf.array, pattern(0, count))
        send = proc.alloc_array(1024, "u1")
        send.array[:] = proc.rank % 251
        recv = proc.alloc_array(1024 * size, "u1") if proc.rank == 0 else None
        yield from proc.comm.gather(send.sim, recv.sim if recv else None,
                                    1024, root=0)
        if proc.rank == 0:
            ok &= all((recv.array[r * 1024:(r + 1) * 1024] == r % 251).all()
                      for r in range(size))
        return ok

    job = Job(Machine.build(machine), nprocs=nprocs, stack=stacks.KNEM_COLL)
    assert all(job.run(program).values)


@pytest.mark.parametrize("stack,op,temps", [
    (stacks.TUNED_SM, "gather", {"gather-tmp"}),
    (stacks.TUNED_SM, "scatter", {"scatter-tmp"}),
    (stacks.SM_TREE, "gather", {"smtree-tmp", "smtree-rx"}),
], ids=["tuned-gather", "tuned-scatter", "smtree-gather"])
def test_unbacked_payload_allocates_no_backed_temp(monkeypatch, stack, op,
                                                   temps):
    """Timing-only payloads stay timing-only through collective temps (the
    backed data path is covered by the tests above)."""
    allocated = []
    alloc = MemorySystem.alloc

    def recording_alloc(self, *args, **kwargs):
        buf = alloc(self, *args, **kwargs)
        allocated.append(buf)
        return buf

    monkeypatch.setattr(MemorySystem, "alloc", recording_alloc)
    count = 4 * KiB  # binomial range of the tuned gather/scatter

    def program(proc):
        size = proc.comm.size
        if op == "gather":
            send = proc.alloc(count, backed=False)
            recv = (proc.alloc(count * size, backed=False)
                    if proc.rank == 3 else None)
        else:
            send = (proc.alloc(count * size, backed=False)
                    if proc.rank == 3 else None)
            recv = proc.alloc(count, backed=False)
        yield from getattr(proc.comm, op)(send, recv, count, root=3)

    run(program, stack=stack)
    assert temps <= {buf.label for buf in allocated}
    assert not [buf.label for buf in allocated if buf.backed]
