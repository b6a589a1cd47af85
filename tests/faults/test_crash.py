"""Rank-crash fault tolerance: ULFM-style failure, shrink, and reclaim.

A ``rank.crash`` rule fail-stops one rank at a chosen collective entry (or
absolute simulated time).  These tests pin the contract: every surviving
peer of an in-flight collective observes a typed
:class:`~repro.errors.RankFailed` instead of hanging, ``shrink()`` rebuilds
a working communicator over the survivors, and the dead rank's kernel
state — KNEM regions and shared-memory FIFO slots — is reclaimed, never
leaked.
"""

import numpy as np
import pytest

from repro.errors import MpiError, RankFailed
from repro.faults import FaultPlan
from repro.mpi import Job, Machine, stacks
from repro.units import KiB, MiB

pytestmark = pytest.mark.faults

COUNT = 64 * KiB
NPROCS = 8


def pattern(rank: int, n: int) -> np.ndarray:
    return ((np.arange(n) * (rank + 3)) % 251).astype(np.uint8)


def make_job(plan=None, stack=stacks.KNEM_COLL, machine="dancer",
             nprocs=NPROCS, trace=False):
    m = Machine.build(machine, trace=trace)
    if plan is not None:
        m.arm_faults(plan.fork())
    return m, Job(m, nprocs=nprocs, stack=stack)


def bcast_survivor_program(proc):
    """Broadcast; on peer death, shrink and retry on the survivors."""
    buf = proc.alloc_array(COUNT, "u1")
    if proc.rank == 0:
        buf.array[:] = pattern(0, COUNT)
    comm = proc.comm
    while True:
        try:
            yield from comm.bcast(buf.sim, 0, COUNT, root=0)
            return buf.array.tobytes()
        except RankFailed:
            comm = comm.shrink()


class TestCrashDelivery:
    def test_all_survivors_observe_rank_failed(self):
        victim_core = 2  # linear binding: rank 2
        plan = FaultPlan.crash(core=victim_core, index=0)
        m, job = make_job(plan)
        observed = []

        def prog(proc):
            buf = proc.alloc_array(COUNT, "u1")
            try:
                yield from proc.comm.bcast(buf.sim, 0, COUNT, root=0)
            except RankFailed as err:
                observed.append((proc.rank, err.rank, err.op))
                raise

        with pytest.raises(RankFailed) as exc_info:
            job.run(prog)
        assert exc_info.value.rank == 2
        assert exc_info.value.op == "bcast"
        # every survivor (all ranks but the victim) saw the same failure
        assert sorted(r for r, _, _ in observed) == [0, 1, 3, 4, 5, 6, 7]
        assert {(v, op) for _, v, op in observed} == {(2, "bcast")}
        assert job.world.dead == {2: "bcast"}

    def test_collective_on_comm_with_dead_member_fails_fast(self):
        plan = FaultPlan.crash(core=1, index=0)
        m, job = make_job(plan)

        def prog(proc):
            buf = proc.alloc_array(COUNT, "u1")
            try:
                yield from proc.comm.bcast(buf.sim, 0, COUNT, root=0)
            except RankFailed:
                pass
            # second collective on the unshrunk communicator: immediate
            # RankFailed at entry, no hang, no partial participation
            yield from proc.comm.barrier()

        with pytest.raises(RankFailed) as exc_info:
            job.run(prog)
        assert exc_info.value.op == "barrier"

    def test_crashed_rank_result_is_none(self):
        plan = FaultPlan.crash(core=3, index=0)
        m, job = make_job(plan)
        res = job.run(bcast_survivor_program)
        assert res.dead_ranks == (3,)
        assert res.values[3] is None
        assert res.finish_times[3] is None
        assert res.survivors == [0, 1, 2, 4, 5, 6, 7]


class TestShrinkAndRetry:
    @pytest.mark.parametrize("stack", [stacks.KNEM_COLL, stacks.TUNED_SM],
                             ids=lambda s: s.name)
    def test_shrink_retry_is_byte_identical(self, stack):
        expected = pattern(0, COUNT).tobytes()
        plan = FaultPlan.crash(core=5, index=0)
        m, job = make_job(plan, stack=stack)
        res = job.run(bcast_survivor_program)
        assert res.dead_ranks == (5,)
        for rank in res.survivors:
            assert res.values[rank] == expected, f"rank {rank} corrupted"
        # kernel state fully reclaimed: nothing leaks across the failure
        assert m.knem.live_regions == 0
        assert m.shm.slots_outstanding == 0

    def test_shrink_translates_ranks_consistently(self):
        plan = FaultPlan.crash(core=0, index=0)  # kill the root itself
        m, job = make_job(plan)

        def prog(proc):
            buf = proc.alloc_array(COUNT, "u1")
            comm = proc.comm
            try:
                yield from comm.bcast(buf.sim, 0, COUNT, root=0)
            except RankFailed:
                comm = comm.shrink()
            if proc.rank == 1:  # world rank 1 is the shrunk comm's rank 0
                buf.array[:] = pattern(1, COUNT)
            yield from comm.bcast(buf.sim, 0, COUNT, root=0)
            return (comm.rank, comm.size, buf.array.tobytes())

        res = job.run(prog)
        expected = pattern(1, COUNT).tobytes()
        ranks = {}
        for wrank in res.survivors:
            new_rank, new_size, data = res.values[wrank]
            assert new_size == NPROCS - 1
            assert data == expected
            ranks[wrank] = new_rank
        assert sorted(ranks.values()) == list(range(NPROCS - 1))
        assert ranks[1] == 0  # survivors renumber densely in world order

    def test_job_refuses_to_run_with_no_survivors(self):
        m, job = make_job()
        for rank in range(NPROCS):
            job.world.kill_rank(rank, reason="test")
        with pytest.raises(MpiError, match="no live ranks"):
            job.run(bcast_survivor_program)


class TestReapDeliveries:
    def test_crashed_receiver_stops_copying_out(self):
        """A dead root's matched deliveries die with it.

        Kill the root of a Tuned-SM gather mid-flight: every delivery the
        root's progress engine had spawned must be gone right after the
        kill, and the root's core completes at most the one FIFO copy-out
        its CPU had in flight (a rank's copies serialize on its CPU).
        """
        m, job = make_job(stack=stacks.TUNED_SM, trace=True)
        sim = m.sim
        at_kill = {}

        def kill_root():
            job.world.kill_rank(0, reason="test")
            at_kill["deliveries"] = sum(
                1 for p in sim._live_processes.values()
                if p.name == "deliver[0]" and p.is_alive)
            at_kill["time"] = sim.now

        sim.schedule(1e-4, kill_root)

        def prog(proc):
            send = proc.alloc(1 * MiB, backed=False)
            recv = (proc.alloc(NPROCS * MiB, backed=False)
                    if proc.rank == 0 else None)
            yield from proc.comm.gather(send, recv, 1 * MiB, root=0)

        with pytest.raises(RankFailed):
            job.run(prog)
        assert at_kill["deliveries"] == 0
        late_copies = [r for r in m.tracer.records
                       if r.category == "copy" and r.fields["core"] == 0
                       and r.fields["label"] == "fifo-out"
                       and r.time > at_kill["time"]]
        assert len(late_copies) <= 1


class TestTimedAndStallRules:
    def test_at_time_crash_kills_mid_run(self):
        plan = FaultPlan.crash(core=4, at_time=1e-4)
        m, job = make_job(plan)

        def prog(proc):
            buf = proc.alloc_array(COUNT, "u1")
            for _ in range(200):
                yield from proc.comm.bcast(buf.sim, 0, COUNT, root=0)
            return "finished"

        with pytest.raises(RankFailed) as exc_info:
            job.run(prog)
        assert exc_info.value.rank == 4
        assert 4 in job.world.dead
        assert m.fault_plan.injected.get("rank.crash") == 1

    def test_stall_rule_delays_entry_and_counts(self):
        delay = 5e-3
        m_ref, job_ref = make_job()
        base = job_ref.run(bcast_survivor_program)
        plan = FaultPlan.stall(delay, core=6, index=0)
        m, job = make_job(plan)
        res = job.run(bcast_survivor_program)
        assert res.dead_ranks == ()
        assert res.values == base.values  # a stall never corrupts data
        # the stalled rank cannot finish before its delay elapses, so the
        # job-wide elapsed time is bounded below by it
        assert res.elapsed >= delay > base.elapsed
        assert m.fault_plan.injected.get("rank.stall") == 1

    def test_crash_emits_trace_events(self):
        plan = FaultPlan.crash(core=2, index=0)
        m, job = make_job(plan, trace=True)
        job.run(bcast_survivor_program)
        crashes = [r for r in m.tracer.records if r.category == "rank.crash"]
        assert len(crashes) == 1
        assert crashes[0].fields["rank"] == 2
        assert crashes[0].fields["op"] == "bcast"
        reclaims = [r for r in m.tracer.records
                    if r.category == "rank.reclaim"]
        assert all(r.fields["rank"] == 2 for r in reclaims)
