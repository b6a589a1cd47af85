"""ASP application: distributed result vs oracle, timing-mode behaviour,
and the claims of the paper's Table I."""

import numpy as np
import pytest

from repro.apps.asp import (
    INF,
    AspConfig,
    asp_paper_config,
    floyd_warshall_reference,
    run_asp,
    run_asp_timed,
)
from repro.bench.experiments import table1
from repro.errors import BenchmarkError
from repro.mpi import stacks


def random_graph(n, density=0.4, seed=0):
    rng = np.random.default_rng(seed)
    adj = rng.integers(1, 100, size=(n, n)).astype(np.int32)
    adj[rng.random((n, n)) > density] = INF
    np.fill_diagonal(adj, 0)
    return adj


class TestConfig:
    def test_block_partition_covers_all_rows(self):
        cfg = AspConfig(n=100, nprocs=7)
        rows = []
        for r in range(7):
            lo, hi = cfg.block(r)
            rows.extend(range(lo, hi))
        assert rows == list(range(100))

    def test_owner_consistent_with_block(self):
        cfg = AspConfig(n=97, nprocs=6)
        for row in range(97):
            lo, hi = cfg.block(cfg.owner(row))
            assert lo <= row < hi

    def test_paper_configs(self):
        z = asp_paper_config("zoot")
        assert (z.n, z.nprocs) == (16384, 16)
        assert z.row_bytes == 64 * 1024
        i = asp_paper_config("ig")
        assert (i.n, i.nprocs) == (32768, 48)
        assert i.row_bytes == 128 * 1024
        with pytest.raises(BenchmarkError):
            asp_paper_config("dancer")

    def test_more_ranks_than_rows_rejected(self):
        with pytest.raises(BenchmarkError):
            AspConfig(n=4, nprocs=8)


class TestReferenceOracle:
    def test_against_scipy(self):
        from scipy.sparse.csgraph import floyd_warshall as scipy_fw

        adj = random_graph(24, seed=3)
        ours = floyd_warshall_reference(adj)
        dense = adj.astype(np.float64)
        dense[dense >= INF] = np.inf
        theirs = scipy_fw(dense)
        finite = theirs < np.inf
        assert (ours[finite] == theirs[finite]).all()
        assert (ours[~finite] >= INF // 2).all()


class TestDistributedCorrectness:
    @pytest.mark.parametrize("stack", [stacks.TUNED_SM, stacks.MPICH2_SM,
                                       stacks.KNEM_COLL],
                             ids=lambda s: s.name)
    def test_matches_oracle(self, stack):
        adj = random_graph(40, seed=7)
        ref = floyd_warshall_reference(adj)
        out = run_asp("dancer", stack, adj, nprocs=8)
        assert np.array_equal(out, ref)

    def test_uneven_row_distribution(self):
        adj = random_graph(37, seed=11)  # 37 rows over 5 ranks
        ref = floyd_warshall_reference(adj)
        out = run_asp("dancer", stacks.KNEM_COLL, adj, nprocs=5)
        assert np.array_equal(out, ref)

    def test_disconnected_graph(self):
        adj = np.full((16, 16), INF, dtype=np.int32)
        np.fill_diagonal(adj, 0)
        adj[0, 1] = 5
        out = run_asp("dancer", stacks.TUNED_SM, adj, nprocs=4)
        assert out[0, 1] == 5
        assert out[1, 0] >= INF // 2
        assert out[3, 12] >= INF // 2

    def test_non_square_rejected(self):
        with pytest.raises(BenchmarkError):
            run_asp("dancer", stacks.TUNED_SM,
                    np.zeros((4, 5), dtype=np.int32), nprocs=2)


class TestTimedMode:
    def test_timing_fields_consistent(self):
        cfg = AspConfig(n=1024, nprocs=8)
        t = run_asp_timed("dancer", stacks.KNEM_COLL, cfg, sample=64)
        assert t.iterations_simulated == 16
        assert t.bcast_time > 0
        assert t.compute_time > 0
        assert t.total_time >= t.bcast_time
        assert t.total_time >= t.compute_time

    def test_sampling_extrapolates_total(self):
        """Coarser sampling must give approximately the same totals."""
        cfg = AspConfig(n=2048, nprocs=8)
        fine = run_asp_timed("dancer", stacks.KNEM_COLL, cfg, sample=32)
        coarse = run_asp_timed("dancer", stacks.KNEM_COLL, cfg, sample=128)
        assert coarse.total_time == pytest.approx(fine.total_time, rel=0.1)

    def test_compute_time_matches_calibration(self):
        cfg = AspConfig(n=1024, nprocs=8)
        t = run_asp_timed("dancer", stacks.KNEM_COLL, cfg, sample=64)
        from repro.hardware.machines import dancer
        per_iter = (1024 // 8) * 1024 * dancer().core.elem_op_time
        assert t.compute_time == pytest.approx(1024 * per_iter, rel=0.01)

    def test_knem_bcast_cheaper_than_sm_in_app(self):
        # 32 KB rows: Table-I-like sizes, above the KNEM switch-point.
        cfg = AspConfig(n=8192, nprocs=16)
        knem = run_asp_timed("zoot", stacks.KNEM_COLL, cfg, sample=256)
        sm = run_asp_timed("zoot", stacks.TUNED_SM, cfg, sample=256)
        assert knem.bcast_time < sm.bcast_time

    def test_bad_sample_rejected(self):
        with pytest.raises(BenchmarkError):
            run_asp_timed("dancer", stacks.KNEM_COLL,
                          AspConfig(n=64, nprocs=4), sample=0)


class TestTableOne:
    """Table I at the paper's problem sizes, sampled: KNEM-Coll spends the
    least time broadcasting, keeps the best total against Open MPI, and
    the calibrated compute (total minus bcast) matches the paper's."""

    @pytest.mark.parametrize("machine, sample, compute", [
        ("zoot", 512, 2485.0),
        ("ig", 1024, 6090.0),
    ])
    def test_knem_coll_broadcasts_least(self, machine, sample, compute):
        rows = table1(machine, sample=sample)
        knem = rows["KNEM Coll"]
        assert knem["bcast"] < rows["Open MPI"]["bcast"]
        assert knem["bcast"] < rows["MPICH2"]["bcast"]
        assert knem["total"] < rows["Open MPI"]["total"]
        assert knem["total"] - knem["bcast"] == pytest.approx(compute, rel=0.05)
