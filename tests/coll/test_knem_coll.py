"""KNEM-Coll behaviour: persistent registration, direction control,
delegation, rotation, hierarchy use — the paper's mechanisms themselves."""

import pytest

from repro.kernel.knem import PROT_WRITE
from repro.mpi import Job, Machine, stacks
from repro.units import KiB, MiB


def run_on(machine_name, nprocs, stack, program, *args):
    machine = Machine.build(machine_name)
    job = Job(machine, nprocs=nprocs, stack=stack)
    result = job.run(program, *args)
    return machine, result


def bcast_prog(proc, nbytes):
    buf = proc.alloc(nbytes, backed=False)
    yield from proc.comm.bcast(buf, 0, nbytes, root=0)


def gather_prog(proc, nbytes):
    send = proc.alloc(nbytes, backed=False)
    recv = (proc.alloc(nbytes * proc.comm.size, backed=False)
            if proc.rank == 0 else None)
    yield from proc.comm.gather(send, recv, nbytes, root=0)


class TestPersistentRegistration:
    def test_bcast_registrations_independent_of_receiver_count(self):
        """The component registers each exported buffer once regardless of
        how many peers read it (Section III-A): on dancer's two NUMA
        domains that is root + one leader, for 7 receivers."""
        machine, _ = run_on("dancer", 8, stacks.KNEM_COLL, bcast_prog, 1 * MiB)
        assert machine.knem.stats_registrations == 2
        assert machine.knem.stats_copies >= 7

    @pytest.mark.parametrize("stack, registrations", [
        (stacks.KNEM_COLL, 2),
        (stacks.TUNED_KNEM, 224),
    ], ids=lambda v: getattr(v, "name", str(v)))
    def test_4mib_bcast_registrations(self, stack, registrations):
        """Persistent regions against per-message registration: one 4 MiB
        broadcast on dancer's 8 ranks registers 2 regions under KNEM-Coll
        (root + one leader) and 224 under Tuned-KNEM, one per KNEM
        point-to-point message."""
        machine, _ = run_on("dancer", 8, stack, bcast_prog, 4 * MiB)
        assert machine.knem.stats_registrations == registrations

    def test_p2p_path_registers_per_peer(self):
        machine, _ = run_on("dancer", 8, stacks.TUNED_KNEM, bcast_prog, 1 * MiB)
        assert machine.knem.stats_registrations > 1

    def test_regions_released_after_collective(self):
        machine, _ = run_on("dancer", 8, stacks.KNEM_COLL, bcast_prog, 1 * MiB)
        assert machine.knem.live_regions == 0

    def test_hierarchical_registers_root_plus_leaders(self):
        machine, _ = run_on("ig", 48, stacks.KNEM_COLL, bcast_prog, 1 * MiB)
        # root + 7 non-root domain leaders re-export their buffers
        assert machine.knem.stats_registrations == 8
        assert machine.knem.live_regions == 0

    def test_single_rank_set_registers_no_region(self):
        """On dancer's 5 ranks the second NUMA set holds rank 4 alone: it
        feeds nobody, so only the root exports its buffer."""
        machine, _ = run_on("dancer", 5, stacks.KNEM_COLL, bcast_prog, 1 * MiB)
        assert machine.knem.stats_registrations == 1


class TestDirectionControl:
    def test_gather_uses_write_region(self):
        machine = Machine.build("dancer", trace=True)
        machine.tracer.enabled = True
        job = Job(machine, nprocs=8, stack=stacks.KNEM_COLL)
        job.run(gather_prog, 256 * KiB)
        regs = list(machine.tracer.select("knem.register"))
        assert len(regs) == 1
        assert regs[0].prot == PROT_WRITE
        writes = [r for r in machine.tracer.select("knem.copy") if r.write]
        assert len(writes) == 7  # every non-root wrote its slice

    def test_gather_parallel_writers_faster_than_root_reads(self):
        def timed(stack):
            machine = Machine.build("zoot")
            job = Job(machine, nprocs=16, stack=stack)

            def prog(proc):
                t0 = proc.now
                yield from gather_prog(proc, 512 * KiB)
                return proc.now - t0

            return max(job.run(prog).values)

        with_dir = timed(stacks.KNEM_COLL)
        without_dir = timed(stacks.KNEM_COLL.with_tuning(
            gather_direction_write=False))
        assert without_dir > with_dir * 1.3

    def test_gather_without_direction_still_correct(self):
        import numpy as np
        stack = stacks.KNEM_COLL.with_tuning(gather_direction_write=False)

        def prog(proc):
            n = 64 * KiB
            send = proc.alloc_array(n, "u1")
            send.array[:] = proc.rank + 1
            recv = (proc.alloc_array(n * proc.comm.size, "u1")
                    if proc.rank == 0 else None)
            yield from proc.comm.gather(send.sim,
                                        recv.sim if recv else None, n, root=0)
            if proc.rank:
                return True
            return all((recv.array[r * n:(r + 1) * n] == r + 1).all()
                       for r in range(proc.comm.size))

        _m, res = run_on("dancer", 8, stack, prog)
        assert all(res.values)


class TestDelegation:
    def test_small_messages_bypass_knem(self):
        machine, _ = run_on("dancer", 8, stacks.KNEM_COLL, bcast_prog, 8 * KiB)
        assert machine.knem.stats_registrations == 0

    def test_threshold_boundary(self):
        machine, _ = run_on("dancer", 8, stacks.KNEM_COLL, bcast_prog, 16 * KiB)
        assert machine.knem.stats_registrations >= 1


class TestHierarchy:
    def test_smp_machine_uses_linear(self):
        machine, _ = run_on("zoot", 16, stacks.KNEM_COLL, bcast_prog, 1 * MiB)
        # linear: exactly one region (no leader re-exports)
        assert machine.knem.stats_registrations == 1

    def test_forced_linear_on_numa(self):
        stack = stacks.KNEM_COLL.with_tuning(hierarchical=False)
        machine, _ = run_on("ig", 48, stack, bcast_prog, 1 * MiB)
        assert machine.knem.stats_registrations == 1
        assert machine.knem.stats_copies == 47

    def test_hierarchy_beats_linear_on_ig(self):
        def timed(stack):
            machine = Machine.build("ig")
            job = Job(machine, nprocs=48, stack=stack)

            def prog(proc):
                t0 = proc.now
                yield from bcast_prog(proc, 2 * MiB)
                return proc.now - t0

            return max(job.run(prog).values)

        hier = timed(stacks.KNEM_COLL)
        linear = timed(stacks.KNEM_COLL.with_tuning(hierarchical=False))
        assert linear > 1.8 * hier  # paper: 2.2-2.4x with pipeline ~2.7-3x

    def test_pipeline_beats_no_pipeline_on_ig(self):
        def timed(stack):
            machine = Machine.build("ig")
            job = Job(machine, nprocs=48, stack=stack)

            def prog(proc):
                t0 = proc.now
                yield from bcast_prog(proc, 2 * MiB)
                return proc.now - t0

            return max(job.run(prog).values)

        pipe = timed(stacks.KNEM_COLL)
        nopipe = timed(stacks.KNEM_COLL.with_tuning(pipeline=False))
        assert nopipe > 1.1 * pipe

    def test_topology_aware_beats_rank_order_tree(self):
        def timed(stack):
            machine = Machine.build("ig")
            # scatter binding makes logical rank order disagree with NUMA
            job = Job(machine, nprocs=48, stack=stack, binding="scatter")

            def prog(proc):
                t0 = proc.now
                yield from bcast_prog(proc, 2 * MiB)
                return proc.now - t0

            return max(job.run(prog).values)

        aware = timed(stacks.KNEM_COLL)
        oblivious = timed(stacks.KNEM_COLL.with_tuning(topology_aware=False))
        # EXPERIMENTS.md quotes 12.0 vs 5.0 ms (2.4x) for this ablation
        assert oblivious / aware >= 2.0


class TestAlltoallSchedule:
    def test_rotation_spreads_access(self):
        """With rotation, at step s each rank reads from a distinct peer
        (the schedule is a Latin square); naive order hammers one sender."""
        size = 8
        for step in range(1, size):
            readers = [(rank, (rank + step) % size) for rank in range(size)]
            targets = [t for _r, t in readers]
            assert len(set(targets)) == size  # all distinct at every step

    def test_rotation_faster_than_naive_on_ig(self):
        def timed(stack):
            machine = Machine.build("ig")
            job = Job(machine, nprocs=48, stack=stack)

            def prog(proc):
                n = 128 * KiB
                send = proc.alloc(n * proc.comm.size, backed=False)
                recv = proc.alloc(n * proc.comm.size, backed=False)
                t0 = proc.now
                yield from proc.comm.alltoall(send, recv, n)
                return proc.now - t0

            return max(job.run(prog).values)

        rotated = timed(stacks.KNEM_COLL)
        naive = timed(stacks.KNEM_COLL.with_tuning(rotate_alltoall=False))
        assert naive >= rotated

    def test_alltoall_registrations_one_per_rank(self):
        def prog(proc):
            n = 64 * KiB
            send = proc.alloc(n * proc.comm.size, backed=False)
            recv = proc.alloc(n * proc.comm.size, backed=False)
            yield from proc.comm.alltoall(send, recv, n)

        machine, _ = run_on("dancer", 8, stacks.KNEM_COLL, prog)
        assert machine.knem.stats_registrations == 8
        assert machine.knem.live_regions == 0


class TestDmaOffload:
    def test_dma_bcast_correct_and_uses_engine(self):
        import numpy as np

        stack = stacks.KNEM_COLL.with_tuning(dma_offload=True,
                                             hierarchical=False)
        machine = Machine.build("dancer", trace=True)
        job = Job(machine, nprocs=8, stack=stack)

        def prog(proc):
            n = 256 * KiB
            buf = proc.alloc_array(n, "u1")
            if proc.rank == 0:
                buf.array[:] = 77
            yield from proc.comm.bcast(buf.sim, 0, n, root=0)
            return (buf.array == 77).all()

        res = job.run(prog)
        assert all(res.values)
        dma_copies = [r for r in machine.tracer.select("knem.copy") if r.dma]
        assert len(dma_copies) == 7

    def test_dma_applies_to_the_default_hierarchy(self):
        """Every copy of the two-level tree goes to the engine: the set
        leader's pipelined pulls as well as the leaves' reads."""
        stack = stacks.KNEM_COLL.with_tuning(dma_offload=True)
        machine = Machine.build("dancer", trace=True)
        job = Job(machine, nprocs=8, stack=stack)
        job.run(bcast_prog, 256 * KiB)
        copies = list(machine.tracer.select("knem.copy"))
        assert len(copies) > 7  # the leader pulls segment by segment
        assert all(r.dma for r in copies)

    def test_dma_serializes_versus_parallel_cores(self):
        """One DMA engine vs 7 receiver cores: offload frees the cores but
        loses copy parallelism for one-to-all patterns."""
        def timed(stack):
            job = Job(Machine.build("dancer"), nprocs=8, stack=stack)

            def prog(proc):
                buf = proc.alloc(1 * MiB, backed=False)
                t0 = proc.now
                yield from proc.comm.bcast(buf, 0, 1 * MiB, root=0)
                return proc.now - t0

            return max(job.run(prog).values)

        cores = timed(stacks.KNEM_COLL.with_tuning(hierarchical=False))
        dma = timed(stacks.KNEM_COLL.with_tuning(hierarchical=False,
                                                 dma_offload=True))
        assert dma > cores


class TestAllgatherComposition:
    def test_allgather_is_gather_plus_bcast(self):
        machine, _ = run_on("dancer", 8, stacks.KNEM_COLL,
                            lambda proc: _allgather_prog(proc, 256 * KiB))
        # gather: 1 write-region; bcast of the assembled buffer: 1 region
        # (linear would be 2 total; dancer is hierarchical: root + 1 leader)
        assert machine.knem.stats_registrations in (2, 3)


def _allgather_prog(proc, nbytes):
    send = proc.alloc(nbytes, backed=False)
    recv = proc.alloc(nbytes * proc.comm.size, backed=False)
    yield from proc.comm.allgather(send, recv, nbytes)


class TestScheduleAnalysis:
    """One decorator opts a collective test into full trace analysis: the
    plugin forces tracing, then fails the test on any race, cookie
    lifecycle, or direction finding (see repro.analysis.pytest_plugin)."""

    @pytest.mark.analyze_schedule
    def test_bcast_schedule_analyzed_clean(self):
        run_on("zoot", 8, stacks.KNEM_COLL, bcast_prog, 256 * KiB)

    @pytest.mark.analyze_schedule(checkers=["race", "cookie"])
    def test_gather_schedule_analyzed_clean(self):
        run_on("zoot", 8, stacks.KNEM_COLL, gather_prog, 256 * KiB)
