"""The ``python -m repro.analysis`` entry point."""

import pytest

from repro.analysis import ALGOS, AlgoSpec, DirectionSpec
from repro.analysis.cli import _parse_size, main
from repro.units import KiB, MiB


class TestParseSize:
    @pytest.mark.parametrize("text,want", [
        ("65536", 65536),
        ("64K", 64 * KiB),
        ("64KiB", 64 * KiB),
        ("64kb", 64 * KiB),
        ("1M", 1 * MiB),
        ("2MiB", 2 * MiB),
    ])
    def test_accepted(self, text, want):
        assert _parse_size(text) == want

    def test_rejected(self):
        with pytest.raises(Exception):
            _parse_size("lots")


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "knem_bcast" in out
        assert "race" in out and "deadlock" in out

    def test_clean_algo_exits_zero(self, capsys):
        code = main(["--algo", "knem_bcast", "--machine", "zoot",
                     "--nprocs", "4", "--size", "32K"])
        out = capsys.readouterr().out
        assert code == 0
        assert "clean: no findings" in out

    def test_checker_subset(self, capsys):
        code = main(["--algo", "knem_gather", "--nprocs", "4",
                     "--size", "32K", "--checkers", "race,cookie"])
        assert code == 0

    def test_findings_exit_two(self, capsys, monkeypatch):
        """A schedule whose declared direction contradicts its copies must
        drive the exit status to 2."""
        real = ALGOS["knem_gather"]
        buggy = AlgoSpec(name=real.name, stack=real.stack,
                         program=real.program,
                         direction=DirectionSpec("read", concurrent=True),
                         nbytes=real.nbytes, description=real.description)
        monkeypatch.setitem(ALGOS, "knem_gather", buggy)
        code = main(["--algo", "knem_gather", "--machine", "zoot",
                     "--nprocs", "4"])
        out = capsys.readouterr().out
        assert code == 2
        assert "direction-mismatch" in out

    def test_unknown_algo_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--algo", "nope"])
        assert exc.value.code == 2  # argparse usage error


class TestVerifyCli:
    def test_verify_one_schedule_clean(self, capsys):
        code = main(["--verify", "knem.bcast", "--machine", "zoot",
                     "--nprocs", "4"])
        out = capsys.readouterr().out
        assert code == 0
        assert "knem.bcast@zootx4" in out
        assert "interleavings" in out

    def test_verify_json_carries_receipts(self, capsys):
        import json as _json
        code = main(["--verify", "knem.gather", "--machine", "zoot",
                     "--nprocs", "4", "--format", "json"])
        payload = _json.loads(capsys.readouterr().out)
        assert code == 0
        results = payload["results"]
        assert results and all(r["clean"] for r in results)
        assert results[0]["receipts"]["executions"] >= 1
        assert "interleavings_log10" in results[0]["receipts"]

    def test_verify_unknown_schedule_fails(self, capsys):
        assert main(["--verify", "knem.nope", "--nprocs", "2"]) == 2

    def test_verify_machine_all_sweeps_and_skips(self, capsys):
        code = main(["--verify", "smtree.gather", "--machine", "all"])
        out = capsys.readouterr().out
        assert code == 0
        assert "SKIP" in out  # dancer x16 oversubscribed

    def test_machine_all_rejected_for_trace_mode(self):
        with pytest.raises(SystemExit):
            main(["--algo", "knem_bcast", "--machine", "all"])

    def test_lint_mode_clean_on_shipped_sources(self, capsys):
        assert main(["--lint"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out
