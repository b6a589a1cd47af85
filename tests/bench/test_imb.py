"""IMB harness semantics: iteration scaling, off-cache, op registry."""

import gc
import tracemalloc

import pytest

from repro.bench.imb import OPS, ImbSettings, imb_time, iterations_for
from repro.errors import BenchmarkError
from repro.mpi import stacks
from repro.units import KiB, MiB


class TestIterations:
    def test_small_messages_iterate_more(self):
        s = ImbSettings(max_iterations=100, target_bytes=1 * MiB)
        assert iterations_for(1 * KiB, s) == 100
        assert iterations_for(256 * KiB, s) == 4
        assert iterations_for(4 * MiB, s) == 1

    def test_explicit_override(self):
        t1 = imb_time("dancer", stacks.TUNED_SM, 4, "bcast", 64 * KiB,
                      ImbSettings(warmups=0), iterations=1)
        t2 = imb_time("dancer", stacks.TUNED_SM, 4, "bcast", 64 * KiB,
                      ImbSettings(warmups=0), iterations=3)
        # per-op time stable across iteration counts (off-cache steady state)
        assert t2 == pytest.approx(t1, rel=0.15)


class TestOps:
    @pytest.mark.parametrize("op", sorted(OPS))
    def test_each_op_runs(self, op):
        t = imb_time("dancer", stacks.KNEM_COLL, 4, op, 64 * KiB,
                     ImbSettings(max_iterations=1, warmups=0))
        assert t > 0

    def test_unknown_op_rejected(self):
        with pytest.raises(BenchmarkError):
            imb_time("dancer", stacks.TUNED_SM, 4, "allreduce", 1024)


class TestOffCache:
    def test_off_cache_slower_than_warm(self):
        cold = imb_time("dancer", stacks.KNEM_COLL, 8, "bcast", 512 * KiB,
                        ImbSettings(max_iterations=4, off_cache=True))
        warm = imb_time("dancer", stacks.KNEM_COLL, 8, "bcast", 512 * KiB,
                        ImbSettings(max_iterations=4, off_cache=False))
        assert warm < cold

    def test_time_grows_with_message_size(self):
        s = ImbSettings(max_iterations=1, warmups=0)
        t1 = imb_time("zoot", stacks.TUNED_SM, 16, "bcast", 64 * KiB, s)
        t2 = imb_time("zoot", stacks.TUNED_SM, 16, "bcast", 1 * MiB, s)
        assert t2 > 5 * t1


class TestTimingOnlyFootprint:
    def test_unbacked_cell_does_not_back_staging_memory(self):
        """Saturn AlltoAllv over Tuned-SM opens 240 per-pair FIFOs (256 KiB
        each); with unbacked IMB buffers none of them gets bytes."""
        tracemalloc.start()
        try:
            imb_time("saturn", stacks.TUNED_SM, 16, "alltoallv", 32 * KiB,
                     ImbSettings(max_iterations=1, warmups=0))
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * MiB


class TestCellTeardown:
    def test_cell_leaves_no_cyclic_garbage(self):
        """A finished cell's machine, job and daemons are freed by reference
        counting alone: nothing is left for the cyclic collector."""
        settings = ImbSettings(max_iterations=1, warmups=0)
        enabled, flags = gc.isenabled(), gc.get_debug()
        gc.collect()
        gc.disable()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            imb_time("zoot", stacks.KNEM_COLL, 16, "gather", 32 * KiB,
                     settings)
            gc.collect()
            leaked = len(gc.garbage)
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert leaked == 0
