"""Degraded-run schedules replayed through the analyzers.

A run that survives injected KNEM faults by degrading must leave a trace
the checkers consider clean: every registered region closed (forced
reclaims count), no races introduced by the resend paths, no deadlock.
The abort regression at the bottom pins the alltoallv cookie-leak fix.
"""

import pytest

from repro.analysis import build_model, run_checkers
from repro.faults import FaultPlan, FaultRule
from repro.mpi.runtime import Job, Machine
from repro.mpi.stacks import KNEM_COLL, KNEM_COLL_STRICT, TUNED_KNEM
from tests.analysis import fixtures as fx


def run_armed(machine_name, nprocs, stack, plan, program):
    machine = Machine.build(machine_name)
    machine.arm_faults(plan.fork())
    job = Job(machine, nprocs=nprocs, stack=stack)
    res = job.run(program)
    return machine, res


@pytest.mark.analyze_schedule
def test_total_outage_schedule_is_clean():
    machine, _ = run_armed("zoot", 8, KNEM_COLL,
                           FaultPlan.all_fail(sticky=True),
                           fx.degraded_bcast_program)
    assert machine.knem.health.total_failures > 0
    assert machine.knem.live_regions == 0


@pytest.mark.analyze_schedule
def test_transient_fault_schedule_is_clean():
    plan = FaultPlan([FaultRule(op="copy", index=0),
                      FaultRule(op="copy", index=1),
                      FaultRule(op="destroy", index=0)])
    machine, _ = run_armed("dancer", 8, KNEM_COLL, plan,
                           fx.degraded_exchange_program)
    assert machine.knem.stats_injected_faults > 0
    assert machine.knem.live_regions == 0


@pytest.mark.analyze_schedule
def test_disqualified_job_schedule_is_clean():
    machine, _ = run_armed("dancer", 8, KNEM_COLL_STRICT,
                           FaultPlan.all_fail(("copy",), sticky=True),
                           fx.degraded_exchange_program)
    assert machine.knem.health.disqualified
    assert machine.knem.live_regions == 0


@pytest.mark.analyze_schedule
@pytest.mark.parametrize("program", [fx.degraded_exchange_program,
                                     fx.degraded_bcast_program],
                         ids=lambda program: program.__name__)
def test_pml_retransmit_schedule_is_clean(program):
    machine, _ = run_armed("dancer", 8, TUNED_KNEM,
                           FaultPlan.all_fail(("copy",), sticky=True),
                           program)
    assert machine.knem.live_regions == 0


def test_degrade_events_reach_the_model():
    job, deadlock, error = fx.run_traced(
        "dancer", 8, KNEM_COLL_STRICT, fx.degraded_bcast_program,
        fault_plan=FaultPlan.all_fail(sticky=True))
    assert not error and deadlock is None
    model = build_model(job, deadlock=deadlock)
    assert model.health_events
    kinds = {e.kind for e in model.health_events}
    assert "degrade" in kinds
    assert any(e.disqualified for e in model.health_events)
    assert all(e.op for e in model.health_events if e.kind == "degrade")


def test_requalify_events_reach_the_model():
    plan = FaultPlan([FaultRule(op="register", index=0),
                      FaultRule(op="register", index=1)])
    job, deadlock, error = fx.run_traced(
        "dancer", 8, KNEM_COLL, fx.degraded_bcast_program, fault_plan=plan)
    assert not error and deadlock is None
    model = build_model(job, deadlock=deadlock)
    assert any(e.kind == "requalify" for e in model.health_events)


def test_mismatch_abort_reclaims_every_region():
    """Regression: aborting alltoallv used to leak its registered regions."""
    job, deadlock, error = fx.run_traced(
        "dancer", 8, KNEM_COLL, fx.alltoallv_mismatch_program)
    assert deadlock is None
    assert "CollectiveError" in error and "count mismatch" in error
    assert job.machine.knem.live_regions == 0
    assert job.machine.knem.stats_reclaims > 0
    model = build_model(job, deadlock=deadlock)
    findings = run_checkers(model, ["cookie"])
    assert "leaked-region" not in {f.category for f in findings}
