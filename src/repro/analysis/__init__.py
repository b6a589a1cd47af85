"""Happens-before analysis of the KNEM collective schedules.

One model, built two ways, checked by one checker set.  The
:class:`~repro.analysis.model.TraceModel` holds vector-clocked steps,
byte-range accesses, KNEM region lifecycles, driver-rejected ioctls and
wait-for facts.  It is built either from the
:class:`~repro.simtime.trace.Tracer` record stream of a traced run
(:func:`build_model`) or by symbolic extraction of a schedule
(:mod:`repro.analysis.static`), and the registered checkers run over
either:

- ``race`` — byte-range races between HB-unordered steps;
- ``cookie`` — region lifecycle: use after invalidate, double destroy,
  out-of-bounds ioctls, out-of-band cookie visibility, overlapping
  writable registrations, leaks;
- ``direction`` — direction control against each algorithm's declared
  :class:`~repro.coll.algorithms.DirectionSpec`;
- ``board`` — collective-board reads not ordered after their post;
- ``deadlock`` — the named wait-for cycle of a wedged run or schedule.

The checkers live in :mod:`repro.analysis.checkers` and
:mod:`repro.analysis.deadlock`.  :mod:`repro.analysis.static` adds the DPOR
interleaving explorer, the KNEM-San runtime sanitizer, and the
repro-specific AST lint pass (``--lint``).

Entry points: ``python -m repro.analysis`` (CLI), :func:`run_analysis` /
:func:`repro.analysis.static.verify_schedule` (programmatic), and the
``analyze_schedule`` pytest marker (:mod:`repro.analysis.pytest_plugin`).
"""

from repro.analysis.findings import (
    ERROR,
    WARNING,
    Baseline,
    Finding,
    Report,
    checker_names,
    finding_id,
    run_checkers,
)
from repro.analysis.model import TraceModel, build_model
from repro.analysis.runner import ALGOS, AlgoSpec, algo_names, run_analysis
from repro.analysis.vectorclock import VectorClock
from repro.coll.algorithms import DirectionSpec

__all__ = [
    "ERROR",
    "WARNING",
    "Baseline",
    "Finding",
    "Report",
    "checker_names",
    "finding_id",
    "run_checkers",
    "TraceModel",
    "build_model",
    "VectorClock",
    "DirectionSpec",
    "ALGOS",
    "AlgoSpec",
    "algo_names",
    "run_analysis",
]
