"""Serial/parallel sweep equivalence: same cells, same bytes.

The executor's whole contract is that ``run_sweep(parallel=N)`` is an
implementation detail: every (stack, size) cell builds a fresh machine and
the simulator iterates deterministically, so fanning cells across worker
processes must change *nothing observable* — CSVs are byte-identical,
checkpoints are interchangeable between serial and parallel runs, fault
plans inject identically, and a parallel sweep that dies mid-run resumes
(serially or in parallel) to the same bytes.
"""

import multiprocessing
import os
import zlib

import pytest

import repro.bench.harness as harness
from repro.bench.cli import main as bench_main
from repro.bench.executor import resolve_jobs
from repro.bench.harness import checkpoint_path, run_sweep
from repro.bench.imb import ImbSettings
from repro.errors import BenchmarkError, RankFailed
from repro.faults.plan import FaultPlan, FaultRule
from repro.mpi import stacks
from repro.units import KiB

SIZES = [32 * KiB, 128 * KiB]
STACKS = [stacks.TUNED_SM, stacks.KNEM_COLL]
SETTINGS = ImbSettings(max_iterations=1, warmups=0)
N_CELLS = len(SIZES) * len(STACKS)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="monkeypatch inheritance needs the fork start method")


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def sweep(parallel=1, checkpoint=None, fault_plan=None, experiment="par",
          retry_limit=None):
    kwargs = {} if retry_limit is None else {"retry_limit": retry_limit}
    return run_sweep(
        experiment=experiment, machine="dancer", operation="bcast", nprocs=4,
        stacks=STACKS, sizes=SIZES, settings=SETTINGS, reference="KNEM-Coll",
        checkpoint=checkpoint, fault_plan=fault_plan, parallel=parallel,
        **kwargs)


class TestEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_csv_is_byte_identical_to_serial(self, results_dir,
                                                      jobs):
        serial = sweep(parallel=1).to_csv(str(results_dir / "serial.csv"))
        par = sweep(parallel=jobs).to_csv(str(results_dir / "parallel.csv"))
        assert open(par, "rb").read() == open(serial, "rb").read()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_equals_serial_under_fault_plan(self, results_dir,
                                                     jobs):
        plan = FaultPlan([FaultRule(op="register", probability=0.5)], seed=7)
        serial = sweep(parallel=1, fault_plan=plan).to_csv(
            str(results_dir / "serial.csv"))
        par = sweep(parallel=jobs, fault_plan=plan).to_csv(
            str(results_dir / "parallel.csv"))
        assert open(par, "rb").read() == open(serial, "rb").read()

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_checkpoint_is_byte_identical_to_serial(
            self, results_dir, jobs):
        ser_ckpt = checkpoint_path("ser", "dancer")
        par_ckpt = checkpoint_path("par", "dancer")
        sweep(parallel=1, checkpoint=ser_ckpt, experiment="ser")
        sweep(parallel=jobs, checkpoint=par_ckpt, experiment="par")
        # Cell lines land in completion order; cell *values* must match.
        ser = sorted(open(ser_ckpt).read().splitlines()[1:])
        par = sorted(open(par_ckpt).read().splitlines()[1:])
        assert ser == par

    def test_checkpoints_interchange_between_modes(
            self, results_dir, monkeypatch):
        # A parallel-written checkpoint resumes a serial sweep with zero
        # re-runs, and vice versa.
        ckpt = checkpoint_path("par", "dancer")
        first = sweep(parallel=2, checkpoint=ckpt)
        calls = []
        monkeypatch.setattr(harness, "imb_time",
                            lambda *a, **kw: calls.append(a) or 0.0)
        again = sweep(parallel=1, checkpoint=ckpt)
        assert calls == []
        assert [s.times for s in again.series] == [s.times for s in first.series]

        ckpt2 = checkpoint_path("ser", "dancer")
        monkeypatch.undo()
        second = sweep(parallel=1, checkpoint=ckpt2, experiment="ser")
        monkeypatch.setattr(harness, "imb_time",
                            lambda *a, **kw: calls.append(a) or 0.0)
        resumed = sweep(parallel=2, checkpoint=ckpt2, experiment="ser")
        assert calls == []
        assert [s.times for s in resumed.series] == \
               [s.times for s in second.series]


class TestRankFaults:
    """Rank-level fault rules behave identically serial and parallel."""

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_rank_stall_sweep_is_byte_identical_to_serial(
            self, results_dir, jobs):
        # A stalled rank slows every cell but fails nothing: the full
        # byte-identity contract must hold on the degraded timings too.
        plan = FaultPlan(
            [FaultRule(op="rank.stall", core=2, delay=1e-4)], seed=3)
        serial = sweep(parallel=1, fault_plan=plan).to_csv(
            str(results_dir / "serial.csv"))
        par = sweep(parallel=jobs, fault_plan=plan).to_csv(
            str(results_dir / "parallel.csv"))
        assert open(par, "rb").read() == open(serial, "rb").read()

    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_rank_crash_raises_the_same_error_at_any_job_count(
            self, results_dir, jobs):
        # A crashed rank aborts the sweep; the pool must surface the same
        # typed error a serial sweep raises (RankFailed pickles intact).
        plan = FaultPlan.crash(core=2, index=0)
        with pytest.raises(RankFailed) as err:
            sweep(parallel=jobs, fault_plan=plan)
        assert err.value.rank == 2
        # index=0 kills the victim at its first collective entry: the IMB
        # loop's sync barrier, not the measured bcast.
        assert err.value.op == "barrier"

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_rank_crash_journal_resumes_to_serial_bytes(
            self, results_dir, jobs):
        # Cells journaled before the crash surfaced are valid: dropping the
        # crash rule and resuming completes to the no-fault serial bytes.
        baseline = sweep(parallel=1).to_csv(str(results_dir / "baseline.csv"))
        ckpt = checkpoint_path("par", "dancer")
        # Size-windowed: only cells at the top size crash (the barrier and
        # the small cells pass), so the journal gains valid small cells.
        plan = FaultPlan(
            [FaultRule(op="rank.crash", core=2, min_size=SIZES[-1])],
            seed=11)
        with pytest.raises(RankFailed):
            sweep(parallel=jobs, checkpoint=ckpt, fault_plan=plan)
        resumed = sweep(parallel=jobs, checkpoint=ckpt).to_csv(
            str(results_dir / "resumed.csv"))
        assert open(resumed, "rb").read() == open(baseline, "rb").read()


class TestTornTailResume:
    @pytest.mark.parametrize("jobs", [1, 2, 4])
    def test_resume_from_torn_journal_tail_is_byte_identical(
            self, results_dir, jobs):
        baseline = sweep(parallel=1).to_csv(str(results_dir / "baseline.csv"))
        ckpt = checkpoint_path("par", "dancer")
        sweep(parallel=2, checkpoint=ckpt)
        # Tear the final journal line mid-append, the on-disk signature of
        # a sweep killed between write and fsync.
        raw = open(ckpt, "rb").read()
        assert raw.endswith(b"\n")
        torn = raw[:-10]
        with open(ckpt, "wb") as fh:
            fh.write(torn)
        resumed_result = sweep(parallel=jobs, checkpoint=ckpt)
        # Exactly the torn cell re-ran; every intact line was reused.
        assert resumed_result.stats.cells_run == 1
        assert resumed_result.stats.cells_resumed == N_CELLS - 1
        resumed = resumed_result.to_csv(str(results_dir / "resumed.csv"))
        assert open(resumed, "rb").read() == open(baseline, "rb").read()


class OneCellBomb:
    """Fail exactly one chosen cell, let every other cell run for real."""

    def __init__(self, bad_key):
        self.real = harness.imb_time
        self.bad_key = bad_key

    def __call__(self, machine, stack, nprocs, op, size, settings,
                 *args, **kwargs):
        if f"{stack.name}|{size}" == self.bad_key:
            raise BenchmarkError(f"injected failure in {self.bad_key}")
        return self.real(machine, stack, nprocs, op, size, settings,
                         *args, **kwargs)


@needs_fork
class TestCrashResume:
    def test_parallel_failure_then_serial_resume_is_byte_identical(
            self, results_dir, monkeypatch):
        baseline = sweep(parallel=1).to_csv(str(results_dir / "baseline.csv"))
        ckpt = checkpoint_path("par", "dancer")
        bad = f"{STACKS[-1].name}|{SIZES[-1]}"
        monkeypatch.setattr(harness, "imb_time", OneCellBomb(bad))
        with pytest.raises(BenchmarkError, match="injected"):
            sweep(parallel=2, checkpoint=ckpt)
        monkeypatch.undo()

        journal = open(ckpt).read().splitlines()
        assert 1 <= len(journal) <= N_CELLS  # header + cells that completed

        resumed = sweep(parallel=1, checkpoint=ckpt).to_csv(
            str(results_dir / "resumed.csv"))
        assert open(resumed, "rb").read() == open(baseline, "rb").read()

    def test_parallel_failure_then_parallel_resume_is_byte_identical(
            self, results_dir, monkeypatch):
        baseline = sweep(parallel=1).to_csv(str(results_dir / "baseline.csv"))
        ckpt = checkpoint_path("par", "dancer")
        bad = f"{STACKS[0].name}|{SIZES[0]}"
        monkeypatch.setattr(harness, "imb_time", OneCellBomb(bad))
        with pytest.raises(BenchmarkError, match="injected"):
            sweep(parallel=2, checkpoint=ckpt)
        monkeypatch.undo()

        resumed = sweep(parallel=2, checkpoint=ckpt).to_csv(
            str(results_dir / "resumed.csv"))
        assert open(resumed, "rb").read() == open(baseline, "rb").read()

    def test_forked_workers_see_monkeypatched_imb_time(
            self, results_dir, monkeypatch):
        monkeypatch.setattr(harness, "imb_time",
                            lambda m, stack, n, op, size, s: float(size))
        result = sweep(parallel=2)
        for s in result.series:
            assert s.times == {size: float(size) for size in SIZES}


class DieOnce:
    """os._exit(3) — a fail-stop worker death, no exception message — the
    first time the chosen cell is measured; later attempts run normally."""

    def __init__(self, flag_path, bad_key):
        self.flag = str(flag_path)
        self.bad_key = bad_key

    def __call__(self, machine, stack, nprocs, op, size, settings,
                 *args, **kwargs):
        if f"{stack.name}|{size}" == self.bad_key \
                and not os.path.exists(self.flag):
            open(self.flag, "w").close()
            os._exit(3)
        return float(size)


@needs_fork
class TestWorkerDeath:
    def test_dead_worker_cells_requeue_and_rerun_exactly_once(
            self, results_dir, tmp_path, monkeypatch):
        bad = f"{STACKS[0].name}|{SIZES[-1]}"
        monkeypatch.setattr(
            harness, "imb_time", DieOnce(tmp_path / "died.flag", bad))
        result = sweep(parallel=2)
        # Every cell landed exactly once with the right value despite the
        # mid-chunk death...
        for s in result.series:
            assert s.times == {size: float(size) for size in SIZES}
        # ...and the pool accounted for the recovery.
        assert os.path.exists(tmp_path / "died.flag")
        assert result.stats.pool_requeued >= 1
        assert result.stats.pool_workers == 2

    def test_worker_death_sweep_matches_serial_bytes(
            self, results_dir, tmp_path, monkeypatch):
        monkeypatch.setattr(harness, "imb_time",
                            lambda m, stack, n, op, size, s: float(size))
        baseline = sweep(parallel=1).to_csv(str(results_dir / "serial.csv"))
        bad = f"{STACKS[-1].name}|{SIZES[0]}"
        monkeypatch.setattr(
            harness, "imb_time", DieOnce(tmp_path / "died.flag", bad))
        par = sweep(parallel=2).to_csv(str(results_dir / "parallel.csv"))
        assert open(par, "rb").read() == open(baseline, "rb").read()


class DieAlways:
    """A poison cell: *every* attempt to measure it kills the worker."""

    def __init__(self, bad_key):
        self.bad_key = bad_key

    def __call__(self, machine, stack, nprocs, op, size, settings,
                 *args, **kwargs):
        if f"{stack.name}|{size}" == self.bad_key:
            os._exit(3)
        return float(size)


@needs_fork
class TestQuarantine:
    """The quarantine ladder end-to-end through real worker processes."""

    def test_poison_cell_aborts_typed_and_the_sweep_completes(
            self, results_dir, monkeypatch):
        bad = f"{STACKS[0].name}|{SIZES[-1]}"
        monkeypatch.setattr(harness, "imb_time", DieAlways(bad))
        result = sweep(parallel=2, retry_limit=2)
        # The sweep converged (no hang, no unbounded respawn loop) with a
        # typed abort recorded for exactly the poison cell...
        assert sorted(result.aborted) == [bad]
        abort = result.aborted[bad]
        assert abort.deaths == 2
        assert "aborted after 2 worker death(s)" in abort.describe()
        # ...exactly one respawn per budgeted death, no more...
        assert result.stats.pool_respawns == 2
        assert result.stats.cells_aborted == 1
        assert result.stats.chunks_quarantined >= 1
        assert "ABORTED: 1 cell(s) quarantined" in result.stats.render()
        # ...and every healthy cell still landed with the right value,
        # the aborted cell absent from its series (not NaN, not zero).
        for s in result.series:
            want = {size: float(size) for size in SIZES
                    if f"{s.name}|{size}" != bad}
            assert s.times == want

    def test_quarantined_cell_recomputes_on_resume(
            self, results_dir, monkeypatch):
        monkeypatch.setattr(harness, "imb_time",
                            lambda m, stack, n, op, size, s: float(size))
        baseline = sweep(parallel=1).to_csv(str(results_dir / "baseline.csv"))
        ckpt = checkpoint_path("par", "dancer")
        bad = f"{STACKS[-1].name}|{SIZES[0]}"
        monkeypatch.setattr(harness, "imb_time", DieAlways(bad))
        poisoned = sweep(parallel=2, checkpoint=ckpt, retry_limit=2)
        assert sorted(poisoned.aborted) == [bad]
        # The abort was never journaled as a measurement, so a later run
        # with the poison gone recomputes exactly that cell and heals the
        # sweep to the fault-free bytes.
        assert bad not in open(ckpt).read()
        monkeypatch.setattr(harness, "imb_time",
                            lambda m, stack, n, op, size, s: float(size))
        resumed_result = sweep(parallel=1, checkpoint=ckpt)
        assert resumed_result.stats.cells_run == 1
        assert resumed_result.stats.cells_resumed == N_CELLS - 1
        assert resumed_result.aborted == {}
        resumed = resumed_result.to_csv(str(results_dir / "resumed.csv"))
        assert open(resumed, "rb").read() == open(baseline, "rb").read()

    def test_aborts_drive_the_cli_exit_code(self, results_dir, monkeypatch,
                                            capsys):
        from repro.bench.cli import (
            EXIT_ABORTED,
            EXIT_DEGRADED,
            EXIT_OK,
            _result_exit,
        )
        bad = f"{STACKS[0].name}|{SIZES[0]}"
        monkeypatch.setattr(harness, "imb_time", DieAlways(bad))
        result = sweep(parallel=2, retry_limit=1)
        assert _result_exit(result, strict=False) == EXIT_ABORTED
        assert "ABORTED par/dancer" in capsys.readouterr().err
        monkeypatch.setattr(harness, "imb_time",
                            lambda m, stack, n, op, size, s: float(size))
        healthy = sweep(parallel=2)
        assert _result_exit(healthy, strict=False) == EXIT_OK
        assert _result_exit(healthy, strict=True) == EXIT_OK
        # --strict flips degraded-KNEM sweeps (but never healthy ones) to
        # a distinct nonzero exit.
        healthy.stats.cells_degraded = 2
        assert _result_exit(healthy, strict=False) == EXIT_OK
        assert _result_exit(healthy, strict=True) == EXIT_DEGRADED
        assert "degraded KNEM health" in capsys.readouterr().err


class TestPoolStats:
    @needs_fork
    def test_parallel_sweep_surfaces_pool_diagnostics(self, results_dir):
        st = sweep(parallel=2).stats
        assert st.pool_workers == 2
        assert st.pool_chunks >= 1
        assert st.pool_requeued == 0
        assert "pool: 2 workers" in st.render()

    def test_serial_sweep_has_no_pool_stats(self, results_dir):
        st = sweep(parallel=1).stats
        assert st.pool_workers == 0
        assert "pool:" not in st.render()


class TestStats:
    def test_sweep_stats_counts_cells_and_events(self, results_dir):
        result = sweep(parallel=1)
        st = result.stats
        assert st.cells_run == N_CELLS
        assert st.cells_resumed == 0
        assert st.sim_events > 0
        assert st.process_resumes > 0
        assert st.peak_heap > 0
        assert st.wall_seconds > 0
        assert st.events_per_sec > 0
        assert "events/sec" in st.render()

    @needs_fork
    def test_parallel_sweep_reports_same_sim_counters(self, results_dir):
        serial = sweep(parallel=1).stats
        par = sweep(parallel=2).stats
        assert par.sim_events == serial.sim_events
        assert par.process_resumes == serial.process_resumes
        assert par.peak_heap == serial.peak_heap


class TestExecutorApi:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7
        assert resolve_jobs(0) == (os.cpu_count() or 1)
        assert resolve_jobs(None) == (os.cpu_count() or 1)
        with pytest.raises(BenchmarkError):
            resolve_jobs(-1)


def fake_imb_time(machine, stack, nprocs, op, size, settings=None,
                  iterations=None):
    """A deterministic, nonzero stand-in for the measurement."""
    token = f"{machine}|{stack.name}|{nprocs}|{op}|{size}".encode()
    return 1e-6 * (1 + zlib.crc32(token) % 997) + size * 1e-9


@needs_fork
class TestAllCommand:
    def test_all_fans_every_sweep_across_the_pool(
            self, tmp_path, monkeypatch, capsys):
        # ``all --jobs 2`` runs the same loop as ``--jobs 1``; each sweep
        # fans its own cells across two warm-pool workers.
        monkeypatch.setattr(harness, "imb_time", fake_imb_time)
        csvs, outs = {}, {}
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            monkeypatch.setenv("REPRO_RESULTS_DIR", str(out_dir))
            assert bench_main(["all", "--machine", "dancer", "--scale",
                               "smoke", "--csv", "--jobs", jobs,
                               "--verbose"]) == 0
            csvs[jobs] = {p.name: p.read_bytes()
                          for p in sorted(out_dir.glob("*.csv"))}
            outs[jobs] = [line for line in capsys.readouterr().out.splitlines()
                          if line.startswith("cells: ")]
        assert csvs["2"] == csvs["1"]
        assert len(csvs["2"]) == len(outs["2"]) > 1
        assert all("pool: 2 workers" in line for line in outs["2"])
        assert not any("pool:" in line for line in outs["1"])
