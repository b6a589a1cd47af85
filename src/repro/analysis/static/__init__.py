"""Static schedule verification and the KNEM-San runtime sanitizer.

Layers beside the trace analyzer that need no traced run:

- :mod:`repro.analysis.static.schedules` — a symbolic extractor that runs
  the *real* ``coll/`` schedule builders against stub hardware (no
  :class:`~repro.simtime.core.Simulator` involved), builds the same
  happens-before model a traced run yields, and runs the same checker set
  over it;
- :mod:`repro.analysis.static.interleave` — a sleep-set/DPOR explorer that
  replays the extracted per-rank schedules under every inequivalent
  interleaving, proving wait-cycle deadlock freedom and witnessing racy
  orders;
- :mod:`repro.analysis.static.shadowmem` — the runtime "KNEM-San"
  sanitizer armed via :meth:`repro.mpi.runtime.Machine.arm_sanitizer`;
- :mod:`repro.analysis.static.lint` — the repro-specific AST lint pass
  (wall-clock time, unseeded randomness, unguarded trace emits, cookie
  release on abort paths, region/copy direction mismatches).
"""

from repro.analysis.model import Access, accesses_conflict, intervals_overlap
from repro.analysis.static.interleave import (
    ExploreResult,
    Op,
    explore_model,
    explore_ops,
    interleaving_log10,
)
from repro.analysis.static.lint import (lint_paths, lint_source,
                                        lint_tracked_bytecode)
from repro.analysis.static.schedules import (
    ScheduleModel,
    VerifyResult,
    component_stack,
    extract_model,
    verify_model,
    verify_registry,
    verify_schedule,
)
from repro.analysis.static.shadowmem import (
    FifoSanitizer,
    KnemSanitizer,
    SingleCopySanitizer,
)

__all__ = [
    "ExploreResult",
    "Op",
    "explore_model",
    "explore_ops",
    "interleaving_log10",
    "lint_paths",
    "lint_source",
    "lint_tracked_bytecode",
    "ScheduleModel",
    "VerifyResult",
    "component_stack",
    "extract_model",
    "verify_model",
    "verify_registry",
    "verify_schedule",
    "Access",
    "FifoSanitizer",
    "KnemSanitizer",
    "SingleCopySanitizer",
    "accesses_conflict",
    "intervals_overlap",
]
