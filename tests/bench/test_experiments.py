"""Experiment definitions: smoke runs and structural checks."""

import pytest

from repro.bench.experiments import (
    EXPERIMENTS,
    FIG4_SIZES,
    FIG_SIZES,
    MACHINE_RANKS,
    figure4,
    figure5,
    table1,
)
from repro.errors import BenchmarkError
from repro.units import KiB, MiB


class TestGrids:
    def test_paper_size_grid(self):
        assert FIG_SIZES[0] == 32 * KiB
        assert FIG_SIZES[-1] == 8 * MiB
        assert len(FIG_SIZES) == 9  # the 9 points of Figures 5-8
        assert FIG4_SIZES[0] == 512 * KiB

    def test_ranks_match_paper(self):
        assert MACHINE_RANKS == {"zoot": 16, "dancer": 8, "saturn": 16,
                                 "ig": 48}

    def test_registry_entries_callable(self):
        for name, (fn, takes_machine) in EXPERIMENTS.items():
            assert callable(fn), name


class TestSmokeRuns:
    def test_fig5_smoke_dancer(self):
        result = figure5("dancer", scale="smoke")
        assert result.nprocs == 8
        assert len(result.sizes) == 2
        norm = result.normalized()
        assert set(norm) == {"Tuned-SM", "Tuned-KNEM", "MPICH2-SM",
                             "MPICH2-KNEM", "KNEM-Coll"}

    def test_fig4_smoke(self):
        result = figure4(scale="smoke", pipeline_sizes=[16 * KiB])
        names = [s.name for s in result.series]
        assert names == ["linear", "no-pipeline", "pipe-16K"]
        assert result.reference == "no-pipeline"
        norm = result.normalized()
        for size in result.sizes:
            assert norm["linear"][size] > 1.5

    def test_table1_smoke(self):
        rows = table1("zoot", scale="smoke")
        assert set(rows) == {"Open MPI", "MPICH2", "KNEM Coll"}
        for cols in rows.values():
            assert cols["total"] > cols["bcast"] > 0

    def test_table1_rejects_other_machines(self):
        with pytest.raises(BenchmarkError):
            table1("dancer", scale="smoke")

    def test_bad_scale_rejected(self):
        with pytest.raises(BenchmarkError):
            figure5("dancer", scale="gigantic")
