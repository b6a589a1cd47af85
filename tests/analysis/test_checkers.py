"""Each checker flags its seeded bug; shipped schedules come back clean."""

import pytest

from repro.analysis import DirectionSpec, build_model, run_analysis, run_checkers
from repro.analysis.findings import ERROR, WARNING
from repro.analysis.runner import _gather_program
from repro.mpi.stacks import KNEM_COLL
from repro.units import KiB
from tests.analysis import fixtures as fx


def analyze(program, *args, nprocs=2, machine="zoot", stack=KNEM_COLL,
            direction=None, checkers=None):
    job, deadlock, _error = fx.run_traced(machine, nprocs, stack,
                                          program, *args)
    model = build_model(job, deadlock=deadlock, direction_spec=direction)
    return run_checkers(model, checkers)


def categories(findings):
    return {f.category for f in findings}


class TestSeededBugs:
    def test_use_after_free_cookie_flagged(self):
        findings = analyze(fx.use_after_free_program, checkers=["cookie"])
        assert "use-after-invalidate" in categories(findings)
        assert any(f.severity == ERROR for f in findings)

    def test_wrong_direction_flagged(self):
        findings = analyze(fx.wrong_direction_program, checkers=["direction"])
        assert "protection-violation" in categories(findings)

    def test_overlapping_concurrent_writes_flagged(self):
        findings = analyze(fx.racy_writes_program, nprocs=3,
                           checkers=["race"])
        assert "write-write-race" in categories(findings)
        race = next(f for f in findings if f.category == "write-write-race")
        assert race.severity == ERROR
        assert race.rank in (1, 2)

    def test_send_send_deadlock_diagnosed(self):
        findings = analyze(fx.send_send_deadlock_program,
                           checkers=["deadlock"])
        cats = categories(findings)
        assert "wait-cycle" in cats
        cycle = next(f for f in findings if f.category == "wait-cycle")
        assert sorted(cycle.details["cycle"]) == [0, 1]
        assert "rank 0" in cycle.message and "rank 1" in cycle.message
        # each stuck rank also gets its own explanation line
        assert sum(1 for f in findings if f.category == "cycle-member") == 2

    def test_out_of_band_cookie_flagged(self):
        side = {}
        findings = analyze(fx.oob_cookie_program, side, checkers=["cookie"])
        cats = categories(findings)
        assert "cookie-not-visible" in cats
        assert "leaked-region" in cats  # neither rank ever destroys it

    def test_overlapping_registration_warned(self):
        findings = analyze(fx.overlapping_registration_program, True,
                           nprocs=1, checkers=["cookie"])
        overlaps = [f for f in findings
                    if f.category == "overlapping-registration"]
        assert overlaps and all(f.severity == WARNING for f in overlaps)

    def test_overlapping_read_only_registrations_not_flagged(self):
        findings = analyze(fx.overlapping_registration_program, False,
                           nprocs=1, checkers=["cookie"])
        assert findings == [], [f.render() for f in findings]

    def test_root_reads_ablation_breaks_direction_contract(self):
        """Turning off gather's sender-writing strategy makes the root do
        every copy itself — both the direction mismatch and the
        serialization anti-pattern must surface."""
        findings = analyze(_gather_program, 64 * KiB, nprocs=8,
                           stack=fx.ABLATION_ROOT_READS,
                           direction=DirectionSpec("write", concurrent=True),
                           checkers=["direction"])
        cats = categories(findings)
        assert "direction-mismatch" in cats
        assert "root-serialization" in cats


KNEM_ALGOS = ["knem_bcast", "knem_scatter", "knem_gather",
              "knem_allgather", "knem_alltoallv"]


class TestShippedSchedulesClean:
    @pytest.mark.parametrize("machine", ["zoot", "ig"])
    @pytest.mark.parametrize("algo", KNEM_ALGOS)
    def test_knem_coll_clean(self, machine, algo):
        report = run_analysis(algo, machine=machine)
        assert not report.error, report.error
        assert report.clean, report.render()

    @pytest.mark.parametrize("algo", ["tuned_bcast", "mpich2_gather"])
    def test_p2p_stacks_clean(self, algo):
        report = run_analysis(algo, machine="zoot")
        assert not report.error, report.error
        assert report.clean, report.render()

    def test_report_deterministic(self):
        first = run_analysis("knem_bcast", machine="zoot")
        second = run_analysis("knem_bcast", machine="zoot")
        assert first.render() == second.render()


@pytest.mark.analyze_schedule
def test_marker_traces_and_checks_a_job(job_factory):
    """One decorator opts a plain coll test into schedule analysis."""
    from repro.analysis.runner import _bcast_program

    job = job_factory("zoot", 4, KNEM_COLL)
    assert job.machine.tracer.enabled  # the plugin forced tracing on
    job.run(_bcast_program, 64 * KiB)
    # teardown runs the checkers; a finding would fail this test
