"""Invariant oracles checked after every chaos campaign.

Each oracle is a pure predicate over campaign artifacts (results, the
journal on disk, a sanitized re-run) returning an
:class:`~repro.chaos.report.OracleVerdict`.  The campaign passes only if
every oracle holds; a phase that *aborted with a typed error* can still
pass — converting chaos into typed, attributable outcomes is exactly the
robustness property under test.
"""

from __future__ import annotations

from typing import Optional

from repro.analysis.static.shadowmem import SingleCopySanitizer
from repro.bench.harness import ExperimentResult, verify_journal
from repro.bench.imb import OPS, ImbSettings
from repro.chaos.injections import Dimensions
from repro.chaos.report import OracleVerdict
from repro.errors import BenchmarkError, MpiError, ReproError, SimulationError
from repro.faults.plan import FaultPlan
from repro.mpi.runtime import Job, Machine
from repro.mpi.stacks import Stack

__all__ = ["TYPED_ERRORS", "check_identity", "check_chaos_cells",
           "check_typed_abort", "check_journal", "check_sanitizer",
           "check_pool_bounds", "check_service_restart"]

#: error types a chaos phase may legitimately end with — anything else
#: (KeyError, a hang, a segfault) is a substrate bug, not an abort.
TYPED_ERRORS = (MpiError, SimulationError, BenchmarkError, ReproError)


def _times(result: ExperimentResult) -> dict[str, dict[int, float]]:
    return {s.name: dict(s.times) for s in result.series}


def check_identity(reference: ExperimentResult,
                   resumed: Optional[ExperimentResult]) -> OracleVerdict:
    """The healed (resumed, chaos-free) sweep is *exactly* the reference.

    Exact float equality, not approximate: every cell is a deterministic
    simulation, the journal round-trips floats bit-for-bit, and the CSVs
    derive from these dicts — so equality here is CSV byte-identity.
    """
    if resumed is None:
        return OracleVerdict("identity", False, "resume phase never ran")
    want, got = _times(reference), _times(resumed)
    if want == got:
        return OracleVerdict(
            "identity", True, f"{sum(len(v) for v in want.values())} cells "
            f"byte-identical after resume")
    diffs = []
    for name in want:
        for size, t in want[name].items():
            if got.get(name, {}).get(size) != t:
                diffs.append(f"{name}|{size}")
    return OracleVerdict("identity", False,
                         f"cells diverged or missing: {sorted(diffs)[:8]}")


def check_chaos_cells(reference: ExperimentResult,
                      chaos: Optional[ExperimentResult],
                      dims: Dimensions,
                      parallel: bool) -> OracleVerdict:
    """Every cell the chaos run *did* complete matches the reference, and
    quarantined cells are exactly the expected poison set."""
    if chaos is None:
        # The run aborted typed before producing a result; the typed-abort
        # oracle owns that case.
        return OracleVerdict("chaos-cells", True,
                             "run aborted typed; nothing to compare")
    ref = _times(reference)
    for s in chaos.series:
        for size, t in s.times.items():
            if ref.get(s.name, {}).get(size) != t:
                return OracleVerdict(
                    "chaos-cells", False,
                    f"cell {s.name}|{size} diverged under chaos")
    expected = ({dims.poison_key}
                if parallel and dims.poison_key is not None else set())
    got = set(chaos.aborted)
    if got != expected:
        return OracleVerdict(
            "chaos-cells", False,
            f"aborted cells {sorted(got)} != expected {sorted(expected)}")
    detail = (f"{sum(len(s.times) for s in chaos.series)} completed cells "
              f"match; aborted == {sorted(expected)}")
    return OracleVerdict("chaos-cells", True, detail)


def check_typed_abort(error: Optional[BaseException],
                      dims: Dimensions) -> OracleVerdict:
    """A chaos run may only fail with a *typed* error, and only when the
    crash dimension armed a fail-stop rank."""
    if error is None:
        if dims.crash:
            return OracleVerdict("typed-abort", False,
                                 "crash armed but the sweep completed")
        return OracleVerdict("typed-abort", True, "no abort, none expected")
    if not isinstance(error, TYPED_ERRORS):
        return OracleVerdict(
            "typed-abort", False,
            f"untyped failure {type(error).__name__}: {error}")
    if not dims.crash:
        return OracleVerdict(
            "typed-abort", False,
            f"typed {type(error).__name__} without a crash dimension: "
            f"{error}")
    return OracleVerdict("typed-abort", True,
                         f"typed {type(error).__name__} as expected")


def check_journal(checkpoint: Optional[str],
                  after_resume: bool) -> OracleVerdict:
    """The journal on disk is recoverable; fully intact after a resume."""
    if checkpoint is None:
        return OracleVerdict("journal", True, "campaign ran journal-less")
    try:
        report = verify_journal(checkpoint)
    except BenchmarkError as err:
        return OracleVerdict("journal", False, f"unrecoverable: {err}")
    if after_resume and not report.ok:
        return OracleVerdict(
            "journal", False,
            f"damage survived resume: {len(report.skipped)} skipped, "
            f"torn_tail={report.torn_tail}")
    return OracleVerdict(
        "journal", True,
        f"recoverable ({len(report.cells)} cells intact)")


def check_sanitizer(machine_name: str, operation: str, nprocs: int,
                    stack: Stack, msg_size: int,
                    plan: Optional[FaultPlan]) -> OracleVerdict:
    """KNEM-San over one collective under the campaign's fault plan: zero
    findings, zero live regions — even on typed abort paths."""
    machine = Machine.build(machine_name)
    sanitizer = machine.arm_sanitizer(SingleCopySanitizer())
    if plan is not None:
        machine.arm_faults(plan.fork())
    settings = ImbSettings()

    def program(proc):
        call, _buffers = OPS[operation](proc, msg_size, settings)
        yield from call()

    aborted = ""
    try:
        Job(machine, nprocs=nprocs, stack=stack).run(program)
    except TYPED_ERRORS as err:
        aborted = f" (typed abort: {type(err).__name__})"
    findings = sanitizer.findings
    leaks = machine.knem.live_regions
    if findings or leaks:
        cats = sorted({f.category for f in findings})
        return OracleVerdict(
            "knem-san", False,
            f"{len(findings)} finding(s) {cats}, {leaks} live region(s)")
    return OracleVerdict("knem-san", True,
                         f"zero findings, zero live regions{aborted}")


def check_pool_bounds(result: Optional[ExperimentResult], dims: Dimensions,
                      n_cells: int, retry_limit: int) -> OracleVerdict:
    """The pool never wedged: respawns stay within the quarantine budget.

    An unbounded requeue loop shows up here as respawns far beyond what
    the retry budget can explain (the pre-quarantine executor would spin
    forever on a poison cell and never even reach this check).
    """
    if result is None or result.stats is None:
        return OracleVerdict("pool", True, "no pool ran (typed abort)")
    stats = result.stats
    bound = retry_limit * n_cells + len(dims.death_keys) + 2
    if stats.pool_respawns > bound:
        return OracleVerdict(
            "pool", False,
            f"{stats.pool_respawns} respawns exceeds budget {bound}")
    if dims.poison_key is not None and stats.pool_workers and (
            not result.aborted):
        return OracleVerdict(
            "pool", False, "poison cell armed but nothing quarantined")
    return OracleVerdict(
        "pool", True,
        f"{stats.pool_respawns} respawn(s) within budget {bound}")


def check_service_restart(reference: ExperimentResult,
                          served: Optional[ExperimentResult],
                          reserved: Optional[ExperimentResult],
                          counters: Optional[dict]) -> OracleVerdict:
    """A server restart loses no results: the re-served grid is answered
    entirely from the durable cache, byte-identical to the reference, and
    the restarted server's pool computed nothing.

    The served sweeps' ``service.*`` substrate events must also show the
    restart and a cache hit for every cell.
    """
    if served is None or reserved is None:
        return OracleVerdict("service-cache", False,
                             "service phase never completed")
    want = _times(reference)
    for label, result in (("served", served), ("re-served", reserved)):
        got = _times(result)
        if want != got:
            return OracleVerdict(
                "service-cache", False,
                f"{label} sweep diverged from the reference")
    n_cells = sum(len(s.times) for s in reference.series)
    stats = reserved.stats
    if stats is None or stats.service_cache_hits != n_cells:
        hits = stats.service_cache_hits if stats else "?"
        return OracleVerdict(
            "service-cache", False,
            f"restarted server answered {hits}/{n_cells} cells from cache")
    if counters is not None and counters.get("cells_computed", 0) != 0:
        return OracleVerdict(
            "service-cache", False,
            f"restarted server recomputed "
            f"{counters['cells_computed']} cell(s) despite a warm cache")
    events = (list(served.stats.events) if served.stats else []) \
        + list(stats.events)
    kinds = [ev.category for ev in events]
    hits = kinds.count("service.cache_hit")
    restarts = kinds.count("service.restart")
    if not restarts or hits < n_cells:
        return OracleVerdict(
            "service-cache", False,
            f"sweep events hold {hits} cache hits and {restarts} restart "
            f"event(s)")
    return OracleVerdict(
        "service-cache", True,
        f"{n_cells} cells re-served from cache across a restart, "
        f"byte-identical")
