"""Point-to-point messaging over the full stack: protocols, ordering,
wildcards, truncation, object messages."""

import re

import numpy as np
import pytest

from repro.errors import DeadlockError, TruncationError
from repro.mpi import ANY_SOURCE, ANY_TAG, Job, Machine, stacks
from repro.units import KiB, MiB


def run_pair(program, stack=stacks.TUNED_SM, nprocs=2, machine="dancer"):
    job = Job(Machine.build(machine), nprocs=nprocs, stack=stack)
    return job.run(program)


# message sizes covering every protocol: inline, eager, SM rendezvous,
# KNEM rendezvous
PROTOCOL_SIZES = [16, 1024, 16 * KiB, 256 * KiB]


class TestProtocols:
    @pytest.mark.parametrize("nbytes", PROTOCOL_SIZES)
    @pytest.mark.parametrize("stack", [stacks.TUNED_SM, stacks.TUNED_KNEM],
                             ids=["sm", "knem"])
    def test_payload_integrity(self, nbytes, stack):
        def program(proc):
            buf = proc.alloc_array(nbytes, "u1")
            if proc.rank == 0:
                buf.array[:] = np.arange(nbytes, dtype=np.uint8) % 251
                yield from proc.comm.send(1, buf.sim, 0, nbytes, tag=7)
                return None
            status = yield from proc.comm.recv(0, buf.sim, 0, nbytes, tag=7)
            assert status.source == 0 and status.nbytes == nbytes
            return bytes(buf.array)

        res = run_pair(program, stack=stack)
        expected = bytes(np.arange(nbytes, dtype=np.uint8) % 251)
        assert res.values[1] == expected

    def test_knem_stack_registers_for_large_only(self):
        machine = Machine.build("dancer")
        job = Job(machine, nprocs=2, stack=stacks.TUNED_KNEM)

        def program(proc):
            buf = proc.alloc(256 * KiB, backed=False)
            if proc.rank == 0:
                yield from proc.comm.send(1, buf, 0, 1024)
                yield from proc.comm.send(1, buf, 0, 256 * KiB)
            else:
                yield from proc.comm.recv(0, buf, 0, 1024)
                yield from proc.comm.recv(0, buf, 0, 256 * KiB)

        job.run(program)
        assert machine.knem.stats_registrations == 1  # only the large send

    def test_sm_stack_never_touches_knem(self):
        machine = Machine.build("dancer")
        job = Job(machine, nprocs=2, stack=stacks.TUNED_SM)

        def program(proc):
            buf = proc.alloc(1 * MiB, backed=False)
            if proc.rank == 0:
                yield from proc.comm.send(1, buf, 0, 1 * MiB)
            else:
                yield from proc.comm.recv(0, buf, 0, 1 * MiB)

        job.run(program)
        assert machine.knem.stats_registrations == 0
        assert machine.knem.stats_copies == 0


class TestOrderingAndWildcards:
    def test_nonovertaking_same_tag(self):
        def program(proc):
            if proc.rank == 0:
                for i in range(5):
                    buf = proc.alloc_array(64, "u1")
                    buf.array[:] = i
                    yield from proc.comm.send(1, buf.sim, 0, 64, tag=0)
                return None
            seen = []
            for _ in range(5):
                buf = proc.alloc_array(64, "u1")
                yield from proc.comm.recv(0, buf.sim, 0, 64, tag=0)
                seen.append(int(buf.array[0]))
            return seen

        res = run_pair(program)
        assert res.values[1] == [0, 1, 2, 3, 4]

    def test_tag_selective_reordering(self):
        def program(proc):
            if proc.rank == 0:
                a = proc.alloc_array(64, "u1"); a.array[:] = 1
                b = proc.alloc_array(64, "u1"); b.array[:] = 2
                yield from proc.comm.send(1, a.sim, 0, 64, tag="first")
                yield from proc.comm.send(1, b.sim, 0, 64, tag="second")
                return None
            buf = proc.alloc_array(64, "u1")
            yield from proc.comm.recv(0, buf.sim, 0, 64, tag="second")
            second = int(buf.array[0])
            yield from proc.comm.recv(0, buf.sim, 0, 64, tag="first")
            first = int(buf.array[0])
            return (first, second)

        res = run_pair(program)
        assert res.values[1] == (1, 2)

    def test_any_source_any_tag(self):
        def program(proc):
            if proc.rank == 2:
                got = []
                for _ in range(2):
                    obj, status = yield from proc.comm.recv_obj(ANY_SOURCE,
                                                                ANY_TAG)
                    got.append((status.source, obj))
                return sorted(got)
            yield from proc.comm.send_obj(2, f"from-{proc.rank}")
            return None

        res = run_pair(program, nprocs=3)
        assert res.values[2] == [(0, "from-0"), (1, "from-1")]

    def test_truncation_error(self):
        def program(proc):
            big = proc.alloc(1024)
            small = proc.alloc(100)
            if proc.rank == 0:
                yield from proc.comm.send(1, big, 0, 1024)
            else:
                yield from proc.comm.recv(0, small, 0, 100)

        with pytest.raises(TruncationError):
            run_pair(program)


class TestNonBlocking:
    def test_isend_irecv_pairs(self):
        def program(proc):
            n = 64 * KiB
            sendbuf = proc.alloc_array(n, "u1")
            recvbuf = proc.alloc_array(n, "u1")
            sendbuf.array[:] = proc.rank + 10
            peer = 1 - proc.rank
            rr = proc.comm.irecv(peer, recvbuf.sim, 0, n)
            sr = proc.comm.isend(peer, sendbuf.sim, 0, n)
            yield sr.event
            status = yield rr.event
            assert status.source == peer
            return int(recvbuf.array[0])

        res = run_pair(program)
        assert res.values == [11, 10]

    def test_sendrecv_bidirectional(self):
        def program(proc):
            n = 32 * KiB
            s = proc.alloc_array(n, "u1")
            r = proc.alloc_array(n, "u1")
            s.array[:] = proc.rank + 1
            peer = 1 - proc.rank
            yield from proc.comm.sendrecv(peer, s.sim, 0, n, peer, r.sim, 0, n)
            return int(r.array[0])

        res = run_pair(program)
        assert res.values == [2, 1]

    def test_request_completes_once(self):
        def program(proc):
            if proc.rank == 0:
                buf = proc.alloc(128)
                req = proc.comm.isend(1, buf, 0, 128)
                yield req.event
                assert req.complete
                return None
            buf = proc.alloc(128)
            req = proc.comm.irecv(0, buf, 0, 128)
            status = yield req.event
            assert req.status is status
            return None

        run_pair(program)


class TestObjectMessages:
    def test_roundtrip_objects(self):
        def program(proc):
            if proc.rank == 0:
                yield from proc.comm.send_obj(1, {"cookie": 0xA1, "len": 9})
                obj, _ = yield from proc.comm.recv_obj(1)
                return obj
            obj, st = yield from proc.comm.recv_obj(0)
            yield from proc.comm.send_obj(0, obj["cookie"] + 1)
            return st.payload

        res = run_pair(program)
        assert res.values[0] == 0xA2
        assert res.values[1] == {"cookie": 0xA1, "len": 9}

    def test_object_and_buffer_tags_do_not_collide(self):
        def program(proc):
            if proc.rank == 0:
                buf = proc.alloc_array(64, "u1")
                buf.array[:] = 42
                yield from proc.comm.send_obj(1, "ctrl", tag=1)
                yield from proc.comm.send(1, buf.sim, 0, 64, tag=2)
                return None
            buf = proc.alloc_array(64, "u1")
            yield from proc.comm.recv(0, buf.sim, 0, 64, tag=2)
            obj, _ = yield from proc.comm.recv_obj(0, tag=1)
            return (obj, int(buf.array[0]))

        res = run_pair(program)
        assert res.values[1] == ("ctrl", 42)


class TestDeadlockReports:
    """What a deadlock report names: the event each blocked process waits
    on.  The names are built lazily or once per peer, so these pin the
    strings a reader of the report (and the analyzer) sees."""

    @staticmethod
    def deadlock(program):
        with pytest.raises(DeadlockError) as exc:
            run_pair(program)
        return exc.value

    def test_recv_recv_names_the_receive_requests(self):
        def program(proc):
            buf = proc.alloc(64, backed=False)
            yield from proc.comm.recv(1 - proc.rank, buf, 0, 64)

        err = self.deadlock(program)
        assert err.blocked == ["rank0", "rank1"]
        for name in err.blocked:
            assert re.fullmatch(r"req\d+:recv", err.waiting[name])

    def test_send_send_names_the_rendezvous_fins(self):
        def program(proc):
            buf = proc.alloc(256 * KiB, backed=False)
            yield from proc.comm.send(1 - proc.rank, buf, 0, 256 * KiB)

        err = self.deadlock(program)
        assert err.blocked == ["rank0", "rank1"]
        for name in err.blocked:
            assert re.fullmatch(r"fin:\d+", err.waiting[name])

    def test_crossing_isends_name_protocol_and_request(self):
        def program(proc):
            buf = proc.alloc(256 * KiB, backed=False)
            req = proc.comm.isend(1 - proc.rank, buf, 0, 256 * KiB)
            yield req.event

        err = self.deadlock(program)
        assert err.blocked == ["isend[0->1]", "isend[1->0]", "rank0", "rank1"]
        for name in ("isend[0->1]", "isend[1->0]"):
            assert re.fullmatch(r"fin:\d+", err.waiting[name])
        for name in ("rank0", "rank1"):
            assert re.fullmatch(r"req\d+:send", err.waiting[name])


class TestTimingSanity:
    def test_larger_messages_take_longer(self):
        def make(nbytes):
            def program(proc):
                buf = proc.alloc(nbytes, backed=False)
                t0 = proc.now
                if proc.rank == 0:
                    yield from proc.comm.send(1, buf, 0, nbytes)
                else:
                    yield from proc.comm.recv(0, buf, 0, nbytes)
                return proc.now - t0
            return program

        t_small = max(run_pair(make(64 * KiB)).values)
        t_large = max(run_pair(make(4 * MiB)).values)
        assert t_large > 10 * t_small

    def test_knem_faster_than_sm_for_large(self):
        def program(proc):
            n = 4 * MiB
            buf = proc.alloc(n, backed=False)
            t0 = proc.now
            if proc.rank == 0:
                yield from proc.comm.send(1, buf, 0, n)
            else:
                yield from proc.comm.recv(0, buf, 0, n)
            return proc.now - t0

        t_sm = max(run_pair(program, stack=stacks.TUNED_SM).values)
        t_knem = max(run_pair(program, stack=stacks.TUNED_KNEM).values)
        assert t_knem < t_sm

    def test_cross_socket_slower_than_intra(self):
        def program(proc, peer_map):
            n = 1 * MiB
            buf = proc.alloc(n, backed=False)
            me, peer = peer_map
            t0 = proc.now
            if proc.rank == me:
                yield from proc.comm.send(peer, buf, 0, n)
            elif proc.rank == peer:
                yield from proc.comm.recv(me, buf, 0, n)
            return proc.now - t0

        job = Job(Machine.build("dancer"), nprocs=8, stack=stacks.TUNED_KNEM)
        intra = max(job.run(program, (0, 1)).values)
        job2 = Job(Machine.build("dancer"), nprocs=8, stack=stacks.TUNED_KNEM)
        cross = max(job2.run(program, (0, 7)).values)
        assert cross > intra
