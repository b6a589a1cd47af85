"""Crash-safe sweep checkpoints: kill a sweep mid-run, resume, same bytes.

``run_sweep(checkpoint=...)`` journals each completed (stack, size) cell to
an append-only JSONL file next to the CSV (format 3: one header line plus
one checksummed line per cell, compacted on load).  These tests pin the
whole contract: an interrupted sweep resumed from its checkpoint re-runs
only the missing cells and produces a byte-identical CSV, a checkpoint
from a *different* sweep is refused, corrupt *interior* records are
skipped-and-reported (their cells recompute — never silently wrong
numbers), a torn final line (crash mid-append) just re-runs that cell, and
a journal in any format but 3 is refused with a typed error.
"""

import json
import os

import pytest

import repro.bench.harness as harness
from repro.bench.cli import EXIT_REFUSED
from repro.bench.cli import main as bench_main
from repro.bench.harness import checkpoint_path, run_sweep, verify_journal
from repro.bench.imb import ImbSettings
from repro.errors import BenchmarkError
from repro.mpi import stacks
from repro.units import KiB

SIZES = [32 * KiB, 128 * KiB]
STACKS = [stacks.TUNED_SM, stacks.KNEM_COLL]
SETTINGS = ImbSettings(max_iterations=1, warmups=0)
N_CELLS = len(SIZES) * len(STACKS)


def read_journal(path):
    """Parse the JSONL journal into (header, cells) like the loader does."""
    lines = open(path).read().splitlines()
    head = json.loads(lines[0])
    assert head["format"] == 3
    cells = {}
    for line in lines[1:]:
        rec = json.loads(line)
        assert "ck" in rec  # every record carries a checksum
        cells[rec["cell"]] = rec["t"]
    return head["header"], cells


def rewrite_in_retired_format(path, fmt):
    """Rewrite a format-3 journal in the layout of format 1 (one JSON
    document, no ``format`` field) or format 2 (JSONL, no checksums)."""
    header, cells = read_journal(path)
    with open(path, "w") as fh:
        if fmt == 1:
            json.dump({"header": header, "cells": cells}, fh, sort_keys=True)
            return
        fh.write(json.dumps({"format": 2, "header": header},
                            sort_keys=True) + "\n")
        for key, t in cells.items():
            fh.write(json.dumps({"cell": key, "t": t}) + "\n")


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


def sweep(checkpoint=None, experiment="ckpt", **overrides):
    kw = dict(experiment=experiment, machine="dancer", operation="bcast",
              nprocs=4, stacks=STACKS, sizes=SIZES, settings=SETTINGS,
              reference="KNEM-Coll", checkpoint=checkpoint)
    kw.update(overrides)
    return run_sweep(**kw)


class Interrupter:
    """Let ``n_before_kill`` cells through, then die like a real SIGINT."""

    def __init__(self, n_before_kill):
        self.real = harness.imb_time
        self.n_before_kill = n_before_kill
        self.calls = 0

    def __call__(self, *args, **kwargs):
        if self.calls >= self.n_before_kill:
            raise KeyboardInterrupt
        self.calls += 1
        return self.real(*args, **kwargs)


class TestResume:
    def test_interrupted_then_resumed_csv_is_byte_identical(
            self, results_dir, monkeypatch):
        baseline = sweep().to_csv(str(results_dir / "baseline.csv"))
        ckpt = checkpoint_path("ckpt", "dancer")

        monkeypatch.setattr(harness, "imb_time", Interrupter(2))
        with pytest.raises(KeyboardInterrupt):
            sweep(checkpoint=ckpt)
        monkeypatch.undo()

        _header, cells = read_journal(ckpt)
        assert len(cells) == 2  # exactly the completed cells
        assert not os.path.exists(ckpt + ".tmp")  # rename, no debris

        resumed = sweep(checkpoint=ckpt).to_csv(str(results_dir / "resumed.csv"))
        assert open(resumed, "rb").read() == open(baseline, "rb").read()

    def test_resume_skips_journaled_cells(self, results_dir, monkeypatch):
        ckpt = checkpoint_path("ckpt", "dancer")
        monkeypatch.setattr(harness, "imb_time", Interrupter(3))
        with pytest.raises(KeyboardInterrupt):
            sweep(checkpoint=ckpt)
        monkeypatch.undo()

        counter = Interrupter(N_CELLS)  # never fires; just counts
        monkeypatch.setattr(harness, "imb_time", counter)
        sweep(checkpoint=ckpt)
        assert counter.calls == N_CELLS - 3  # only the missing cell ran

    def test_completed_sweep_resumes_without_any_rerun(
            self, results_dir, monkeypatch):
        ckpt = checkpoint_path("ckpt", "dancer")
        first = sweep(checkpoint=ckpt)
        counter = Interrupter(N_CELLS)
        monkeypatch.setattr(harness, "imb_time", counter)
        again = sweep(checkpoint=ckpt)
        assert counter.calls == 0
        assert [s.times for s in again.series] == [s.times for s in first.series]
        assert again.stats.cells_resumed == N_CELLS
        assert again.stats.cells_run == 0

    def test_torn_final_line_reruns_only_that_cell(
            self, results_dir, monkeypatch):
        # A crash mid-append leaves a torn last line; the loader drops it
        # (that cell re-runs) and keeps every complete line before it.
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        raw = open(ckpt).read().splitlines(keepends=True)
        with open(ckpt, "w") as fh:
            fh.writelines(raw[:-1])
            fh.write(raw[-1][: len(raw[-1]) // 2])  # torn tail
        counter = Interrupter(N_CELLS)
        monkeypatch.setattr(harness, "imb_time", counter)
        sweep(checkpoint=ckpt)
        assert counter.calls == 1

    def test_bad_interior_line_skips_and_recomputes(
            self, results_dir, monkeypatch):
        # Format 3: a corrupt interior record is skipped-and-reported and
        # exactly that cell recomputes — corruption never poisons the rest.
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        raw = open(ckpt).read().splitlines(keepends=True)
        raw[1] = "{ not json\n"  # corruption *before* the final line
        with open(ckpt, "w") as fh:
            fh.writelines(raw)
        counter = Interrupter(N_CELLS)
        monkeypatch.setattr(harness, "imb_time", counter)
        res = sweep(checkpoint=ckpt)
        assert counter.calls == 1
        assert res.stats.journal_skipped == 1
        assert [e.category for e in res.stats.events] == ["journal.skip"]


class TestValidation:
    def test_checkpoint_of_other_sweep_is_refused(self, results_dir):
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        with pytest.raises(BenchmarkError, match="different sweep"):
            sweep(checkpoint=ckpt, operation="allgather")
        with pytest.raises(BenchmarkError, match="different sweep"):
            sweep(checkpoint=ckpt, nprocs=8)
        with pytest.raises(BenchmarkError, match="different sweep"):
            sweep(checkpoint=ckpt,
                  settings=ImbSettings(max_iterations=2, warmups=0))

    def test_corrupt_checkpoint_is_a_typed_error(self, results_dir):
        ckpt = checkpoint_path("ckpt", "dancer")
        with open(ckpt, "w") as fh:
            fh.write("{ not json")
        with pytest.raises(BenchmarkError, match="corrupt"):
            sweep(checkpoint=ckpt)

    def test_unknown_journal_format_is_a_typed_error(self, results_dir):
        ckpt = checkpoint_path("ckpt", "dancer")
        with open(ckpt, "w") as fh:
            fh.write('{"format": 99, "header": {}}\n')
        with pytest.raises(BenchmarkError, match="format 99"):
            sweep(checkpoint=ckpt)

    @pytest.mark.parametrize("fmt, found", [
        pytest.param(1, "no format", id="format1"),
        pytest.param(2, "format 2", id="format2"),
    ])
    def test_retired_journal_format_is_refused(self, results_dir, capsys,
                                               monkeypatch, fmt, found):
        # Only format 3 is read.  --resume and --verify-journal both refuse
        # an older journal with a typed error naming the format found; no
        # cell runs and the file is left as it was.
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        rewrite_in_retired_format(ckpt, fmt)
        before = open(ckpt).read()
        counter = Interrupter(N_CELLS)
        monkeypatch.setattr(harness, "imb_time", counter)
        with pytest.raises(BenchmarkError, match=found):
            sweep(checkpoint=ckpt)
        capsys.readouterr()
        assert bench_main(["--verify-journal", ckpt]) == EXIT_REFUSED
        assert found in capsys.readouterr().err
        assert counter.calls == 0
        assert open(ckpt).read() == before

    def test_missing_checkpoint_starts_fresh(self, results_dir):
        ckpt = checkpoint_path("ckpt", "dancer")
        res = sweep(checkpoint=ckpt)
        assert os.path.exists(ckpt)
        _header, cells = read_journal(ckpt)
        assert len(cells) == N_CELLS
        for s in res.series:
            for size, t in s.times.items():
                assert cells[f"{s.name}|{size}"] == t

    def test_checkpoint_floats_round_trip_exactly(self, results_dir):
        # json round-trip must preserve the float bit pattern, else the
        # resumed CSV would differ in the low digits
        ckpt = checkpoint_path("ckpt", "dancer")
        res = sweep(checkpoint=ckpt)
        _header, cells = read_journal(ckpt)
        for s in res.series:
            for size, t in s.times.items():
                assert cells[f"{s.name}|{size}"] == t


class TestInteriorCorruption:
    """Satellite: resume after mid-file corruption (not just the torn tail).

    Flip bytes inside interior journal records and assert skip-and-report
    recovery recomputes exactly the damaged cells and the final CSV is
    byte-identical to an undamaged run.
    """

    def _flip(self, path, lineno, col=20):
        raw = open(path).read().splitlines(keepends=True)
        line = raw[lineno]
        ch = line[col]
        new = "x" if ch != "x" else "y"
        raw[lineno] = line[:col] + new + line[col + 1:]
        with open(path, "w") as fh:
            fh.writelines(raw)

    def test_flipped_bytes_recompute_exactly_damaged_cells(
            self, results_dir, monkeypatch):
        baseline = sweep().to_csv(str(results_dir / "baseline.csv"))
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        # Damage two interior records (lines 2 and 3 of header+4 records).
        self._flip(ckpt, 1)
        self._flip(ckpt, 2)
        counter = Interrupter(N_CELLS)
        monkeypatch.setattr(harness, "imb_time", counter)
        res = sweep(checkpoint=ckpt)
        assert counter.calls == 2  # exactly the two damaged cells re-ran
        assert res.stats.journal_skipped == 2
        assert res.stats.cells_resumed == N_CELLS - 2
        resumed = res.to_csv(str(results_dir / "resumed.csv"))
        assert open(resumed, "rb").read() == open(baseline, "rb").read()

    def test_checksum_catches_a_parseable_lie(self, results_dir,
                                              monkeypatch):
        # Flip one digit of a recorded time: the line still parses as
        # JSON, but the checksum no longer matches — without it the
        # resumed sweep would silently publish a wrong number.
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        raw = open(ckpt).read().splitlines(keepends=True)
        rec = json.loads(raw[1])
        rec["t"] = rec["t"] * 2  # plausible but wrong
        raw[1] = json.dumps({"cell": rec["cell"], "t": rec["t"],
                             "ck": rec["ck"]}) + "\n"
        with open(ckpt, "w") as fh:
            fh.writelines(raw)
        counter = Interrupter(N_CELLS)
        monkeypatch.setattr(harness, "imb_time", counter)
        res = sweep(checkpoint=ckpt)
        assert counter.calls == 1
        assert res.stats.journal_skipped == 1

    def test_verify_journal_reports_damage(self, results_dir):
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        assert verify_journal(ckpt).ok
        self._flip(ckpt, 1)
        report = verify_journal(ckpt)
        assert not report.ok
        assert len(report.skipped) == 1
        assert report.skipped[0].lineno == 2
        assert len(report.cells) == N_CELLS - 1
        assert "recompute" in report.render()


class TestCli:
    def test_table1_rejects_resume(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            bench_main(["table1", "--resume"])
        assert exc_info.value.code == 2
        assert "--resume applies to sweep experiments" in capsys.readouterr().err

    def test_verify_journal_clean_exits_zero(self, results_dir, capsys):
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        assert bench_main(["--verify-journal", str(ckpt)]) == 0
        assert "every record intact" in capsys.readouterr().out

    def test_verify_journal_damaged_exits_five(self, results_dir, capsys):
        ckpt = checkpoint_path("ckpt", "dancer")
        sweep(checkpoint=ckpt)
        raw = open(ckpt).read().splitlines(keepends=True)
        raw[1] = "{ not json\n"
        with open(ckpt, "w") as fh:
            fh.writelines(raw)
        assert bench_main(["--verify-journal", str(ckpt)]) == 5
        assert "corrupt line 2" in capsys.readouterr().out

    def test_verify_journal_rejects_experiment_arg(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            bench_main(["fig4", "--verify-journal", "x.json"])
        assert exc_info.value.code == 2

    @pytest.mark.parametrize("case", ["verify-format2", "resume-other-sweep"])
    def test_typed_refusal_is_one_error_line(self, results_dir, capsys,
                                             monkeypatch, case):
        # A refused journal exits 6 with one ``error:`` line on stderr,
        # not a traceback, and runs no cell.
        ckpt = checkpoint_path("fig5", "dancer")
        if case == "verify-format2":
            with open(ckpt, "w") as fh:
                fh.write('{"format": 2, "header": {}}\n')
            argv, found = ["--verify-journal", ckpt], "format 2"
        else:
            sweep(checkpoint=ckpt)  # a 4-rank sweep, not fig5's 8 ranks
            argv = ["fig5", "--machine", "dancer", "--scale", "smoke",
                    "--resume"]
            found = "different sweep"
        monkeypatch.setattr(harness, "imb_time", Interrupter(0))
        capsys.readouterr()
        assert bench_main(argv) == EXIT_REFUSED
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert found in captured.err

    def test_missing_experiment_is_an_error(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            bench_main([])
        assert exc_info.value.code == 2
