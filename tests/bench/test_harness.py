"""Sweep runner, normalization, rendering, CSV output, CLI plumbing."""

import csv
import os
import pstats

import pytest

from repro.bench.harness import ExperimentResult, Series, profile_dir, run_sweep
from repro.bench.imb import ImbSettings
from repro.bench.report import render_table1
from repro.errors import BenchmarkError
from repro.mpi import stacks
from repro.units import KiB


@pytest.fixture
def tiny_sweep(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return run_sweep(
        experiment="unit",
        machine="dancer",
        operation="bcast",
        nprocs=4,
        stacks=[stacks.TUNED_SM, stacks.KNEM_COLL],
        sizes=[32 * KiB, 128 * KiB],
        settings=ImbSettings(max_iterations=1, warmups=0),
        reference="KNEM-Coll",
    )


class TestSweep:
    def test_series_cover_grid(self, tiny_sweep):
        assert [s.name for s in tiny_sweep.series] == ["Tuned-SM", "KNEM-Coll"]
        assert tiny_sweep.sizes == [32 * KiB, 128 * KiB]
        for s in tiny_sweep.series:
            assert all(t > 0 for t in s.times.values())

    def test_reference_normalizes_to_one(self, tiny_sweep):
        norm = tiny_sweep.normalized()
        for size, v in norm["KNEM-Coll"].items():
            assert v == pytest.approx(1.0)

    def test_render_contains_rows(self, tiny_sweep):
        text = tiny_sweep.render()
        assert "32K" in text and "128K" in text
        assert "Tuned-SM" in text
        assert "normalized to KNEM-Coll" in text

    def test_render_absolute(self, tiny_sweep):
        text = tiny_sweep.render(normalized=False)
        assert "per-op time" in text

    def test_csv_round_trip(self, tiny_sweep):
        path = tiny_sweep.to_csv()
        assert os.path.exists(path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert {r["series"] for r in rows} == {"Tuned-SM", "KNEM-Coll"}
        for r in rows:
            assert float(r["seconds"]) > 0

    def test_get_unknown_series_rejected(self, tiny_sweep):
        with pytest.raises(BenchmarkError):
            tiny_sweep.get("nope")

    def test_empty_sweep_rejected(self):
        with pytest.raises(BenchmarkError):
            run_sweep("x", "dancer", "bcast", 2, [], [1024])


class TestProfile:
    def test_profile_dir_writes_one_loadable_dump_per_cell(
            self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        prof = tmp_path / "prof"
        prof.mkdir()
        with profile_dir(str(prof)):
            run_sweep(experiment="unit", machine="dancer", operation="bcast",
                      nprocs=4, stacks=[stacks.KNEM_COLL],
                      sizes=[32 * KiB, 128 * KiB],
                      settings=ImbSettings(max_iterations=1, warmups=0))
        # <machine>_<operation>_<stack>_<size>.pstats, one per cell
        names = sorted(p.name for p in prof.iterdir())
        assert names == ["dancer_bcast_KNEM-Coll_131072.pstats",
                         "dancer_bcast_KNEM-Coll_32768.pstats"]
        for name in names:
            assert pstats.Stats(str(prof / name)).total_calls > 0


class TestReports:
    def test_table1_render_includes_improvement(self):
        rows = {
            "Open MPI": {"bcast": 10.0, "total": 100.0},
            "MPICH2": {"bcast": 5.0, "total": 95.0},
            "KNEM Coll": {"bcast": 1.0, "total": 91.0},
        }
        text = render_table1("zoot", rows, paper={"Open MPI": (405.7, 2891.2)})
        assert "Improvement" in text
        assert "80.0%" in text  # (5 - 1) / 5
        assert "405.7" in text


class TestCli:
    def test_cli_smoke(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        from repro.bench.cli import main

        rc = main(["abl-direction", "--machine", "zoot", "--scale", "smoke"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "abl-direction" in out

    def test_cli_rejects_unknown(self):
        from repro.bench.cli import main

        with pytest.raises(SystemExit):
            main(["not-an-experiment"])


class TestNormalization:
    def test_missing_reference_size_is_skipped(self):
        s = Series("a", {1024: 2.0, 2048: 4.0})
        ref = Series("ref", {1024: 1.0})  # no 2048 measurement
        assert s.normalized_to(ref) == {1024: 2.0}

    def test_zero_reference_time_raises(self):
        # A reference cell of exactly 0.0 is a measurement bug, not a size
        # to silently drop (the old `if rt:` truthiness test conflated the
        # two).
        s = Series("a", {1024: 2.0})
        ref = Series("ref", {1024: 0.0})
        with pytest.raises(BenchmarkError, match="measured 0 s"):
            s.normalized_to(ref)

    def test_zero_numerator_over_nonzero_reference_is_fine(self):
        s = Series("a", {1024: 0.0})
        ref = Series("ref", {1024: 2.0})
        assert s.normalized_to(ref) == {1024: 0.0}
