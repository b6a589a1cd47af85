"""Machine assembly, Job launching, Proc helpers, stack validation."""

import numpy as np
import pytest

from repro.errors import HardwareConfigError, MpiError
from repro.hardware.machines import dancer
from repro.mpi import Job, Machine, stacks
from repro.mpi.stacks import Stack
from repro.units import KiB


class TestMachine:
    def test_build_by_name_and_spec(self):
        by_name = Machine.build("dancer")
        by_spec = Machine.build(dancer())
        assert by_name.spec.name == by_spec.spec.name == "dancer"

    def test_subsystems_wired(self):
        m = Machine.build("zoot")
        assert m.mem.sim is m.sim
        assert m.knem.mem is m.mem
        assert m.shm.mem is m.mem
        assert m.topology.spec is m.spec
        matrix = m.distances.matrix
        assert len(matrix) == 16
        assert all(len(row) == 16 for row in matrix)

    def test_clock_advances_across_jobs(self):
        m = Machine.build("dancer")
        job = Job(m, nprocs=2, stack=stacks.TUNED_SM)

        def prog(proc):
            yield proc.compute(1e-3)

        job.run(prog)
        t1 = m.now
        job.run(prog)
        assert m.now > t1

    def test_second_job_without_close_gets_its_own_mailboxes(self):
        """The first job's progress daemons stay parked on its mailboxes
        until ``Job.close()``; a second job must not share them."""
        m = Machine.build("dancer")

        def prog(proc):
            if proc.rank == 0:
                yield from proc.comm.send_obj(1, "ping")
                return None
            obj, _status = yield from proc.comm.recv_obj(0)
            return obj

        for _ in range(2):
            job = Job(m, nprocs=2, stack=stacks.TUNED_SM)
            assert job.run(prog).values == [None, "ping"]

    def test_tracer_disabled_by_default(self):
        m = Machine.build("dancer")
        assert not m.tracer.enabled
        assert Machine.build("dancer", trace=True).tracer.enabled


class TestJob:
    def test_binding_assigns_cores(self):
        m = Machine.build("dancer")
        job = Job(m, nprocs=4, stack=stacks.TUNED_SM, binding="scatter")
        assert [p.core for p in job.procs] == [0, 4, 1, 5]

    def test_oversubscription_rejected(self):
        with pytest.raises(HardwareConfigError):
            Job(Machine.build("dancer"), nprocs=16, stack=stacks.TUNED_SM)

    def test_results_per_rank(self):
        job = Job(Machine.build("dancer"), nprocs=4, stack=stacks.TUNED_SM)

        def prog(proc, base):
            yield proc.compute(1e-6 * (proc.rank + 1))
            return base + proc.rank

        res = job.run(prog, 100)
        assert res.values == [100, 101, 102, 103]
        assert res.elapsed >= 4e-6
        assert len(res.per_rank_elapsed) == 4
        assert res.per_rank_elapsed[3] == max(res.per_rank_elapsed)

    def test_result_tolerates_crashed_ranks(self):
        from repro.mpi.runtime import JobResult

        res = JobResult(values=["a", None, "c"], start=1.0,
                        finish_times=[3.0, None, 2.5], dead_ranks=(1,))
        assert res.survivors == [0, 2]
        assert res.dead_ranks == (1,)
        # aggregates are survivor-only statistics, never a TypeError on None
        assert res.elapsed == 2.0
        assert res.per_rank_elapsed == [2.0, None, 1.5]

    def test_result_with_no_finisher_has_no_elapsed(self):
        from repro.mpi.runtime import JobResult

        res = JobResult(values=[None, None], start=0.0,
                        finish_times=[None, None], dead_ranks=(0, 1))
        assert res.survivors == []
        assert res.elapsed is None
        assert res.per_rank_elapsed == [None, None]

    def test_program_exception_propagates(self):
        job = Job(Machine.build("dancer"), nprocs=2, stack=stacks.TUNED_SM)

        def prog(proc):
            yield proc.compute(1e-9)
            if proc.rank == 1:
                raise ValueError("rank 1 exploded")

        with pytest.raises(ValueError, match="rank 1 exploded"):
            job.run(prog)


class TestProc:
    @pytest.fixture
    def proc(self):
        return Job(Machine.build("dancer"), nprocs=8,
                   stack=stacks.TUNED_SM).procs[5]

    def test_domain_follows_core(self, proc):
        assert proc.core == 5
        assert proc.domain == 1

    def test_alloc_homed_on_own_domain(self, proc):
        buf = proc.alloc(4096)
        assert buf.domain == proc.domain
        assert buf.backed

    def test_alloc_array_typed(self, proc):
        ab = proc.alloc_array(100, dtype="f8")
        assert ab.array.dtype == np.float64
        assert ab.sim.size == 800
        ab.array[:] = 1.5
        assert ab.sim.data[:8].any()

    def test_wrap_copies(self, proc):
        src = np.arange(10, dtype=np.int64)
        ab = proc.wrap(src)
        src[:] = 0
        assert (ab.array == np.arange(10)).all()

    def test_elem_ops_uses_calibration(self, proc):
        ev = proc.elem_ops(1000)
        expected = 1000 * proc.machine.spec.core.elem_op_time
        assert ev.delay == pytest.approx(expected)


class TestStackValidation:
    def test_threshold_must_exceed_eager(self):
        with pytest.raises(MpiError):
            Stack(name="bad", coll="tuned", use_knem_btl=True,
                  eager_limit=64 * KiB, knem_threshold=16 * KiB)

    def test_inline_within_eager(self):
        with pytest.raises(MpiError):
            Stack(name="bad", coll="tuned", use_knem_btl=False,
                  inline_limit=8192, eager_limit=4096)

    def test_with_tuning_replaces_only_tuning(self):
        s = stacks.KNEM_COLL.with_tuning(pipeline=False)
        assert s.name == stacks.KNEM_COLL.name
        assert s.tuning.pipeline is False
        assert stacks.KNEM_COLL.tuning.pipeline is True

    def test_paper_stacks_roster(self):
        names = [s.name for s in stacks.PAPER_STACKS]
        assert names == ["Tuned-SM", "Tuned-KNEM", "MPICH2-SM",
                         "MPICH2-KNEM", "KNEM-Coll"]
        assert not stacks.TUNED_SM.use_knem_btl
        assert stacks.MPICH2_KNEM.knem_threshold == 64 * KiB

    def test_unknown_component_rejected(self):
        from repro.errors import CollectiveError

        bad = Stack(name="x", coll="quantum", use_knem_btl=False)
        with pytest.raises(CollectiveError):
            Job(Machine.build("dancer"), nprocs=2, stack=bad)
