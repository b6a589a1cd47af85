"""The paper's experiments: one entry per figure/table plus ablations.

Each experiment returns an :class:`~repro.bench.harness.ExperimentResult`
(figures, ablations) or a dict (Table I) and accepts a ``scale`` knob:

- ``scale="full"``   — paper-size grids (slow; use the CLI overnight);
- ``scale="bench"``  — reduced iteration counts, every other grid point
  (the committed ``results/*.csv``);
- ``scale="smoke"``  — minimal grid for CI smoke tests.

The paper's claims about these results are checked, row by row, against
the committed CSVs by ``tests/integration/test_paper_claims.py``.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bench.harness import ExperimentResult, checkpoint_path, run_sweep
from repro.bench.imb import ImbSettings
from repro.errors import BenchmarkError
from repro.mpi import stacks as stk
from repro.units import KiB, MiB

__all__ = [
    "SCALES",
    "TABLE1_PAPER",
    "figure4",
    "figure4_stacks",
    "figure5",
    "figure6",
    "scatter_text",
    "figure7",
    "figure8",
    "table1",
    "ablation_direction",
    "ablation_rotation",
    "EXPERIMENTS",
]

SCALES = ("full", "bench", "smoke")

#: IMB message grid of Figures 5-8 (32K..8M) and Figure 4 (512K..8M).
FIG_SIZES = [32 * KiB, 64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB,
             1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB]
FIG4_SIZES = [512 * KiB, 1 * MiB, 2 * MiB, 4 * MiB, 8 * MiB]

#: ranks used per machine (one per core, Section VI-A)
MACHINE_RANKS = {"zoot": 16, "dancer": 8, "saturn": 16, "ig": 48}

#: Table I as published: library -> (Bcast seconds, Total seconds).
TABLE1_PAPER = {
    "zoot": {"Open MPI": (405.7, 2891.2), "MPICH2": (152.3, 2640.4),
             "KNEM Coll": (26.8, 2508.4)},
    "ig": {"Open MPI": (550.2, 6650.9), "MPICH2": (293.9, 6413.8),
           "KNEM Coll": (198.0, 6288.1)},
}


def _settings(scale: str) -> ImbSettings:
    if scale == "full":
        return ImbSettings(max_iterations=8)
    if scale == "bench":
        # off_cache makes every iteration cold, so skipping the warm-up
        # does not change per-op times — it halves simulation cost.
        return ImbSettings(max_iterations=1, warmups=0)
    if scale == "smoke":
        return ImbSettings(max_iterations=1, warmups=0)
    raise BenchmarkError(f"unknown scale {scale!r}; use one of {SCALES}")


def _sizes(scale: str, sizes: list[int]) -> list[int]:
    if scale == "smoke":
        return [sizes[0], sizes[-1]]
    if scale == "bench":
        # Every other point of the paper grid.  The 9-point IMB grids also
        # drop the 8 MiB endpoint: simulating the copy-in/copy-out stacks at
        # 8 MiB on the 48-core machine costs minutes of wall time per point
        # and the 2 MiB point already shows the large-message regime (the
        # full grid is scale="full").
        trimmed = sizes[::2] if len(sizes) > 5 else sizes
        return trimmed[:-1] if len(sizes) > 5 else trimmed
    return sizes


def _paper_grid(experiment: str, operation: str, machine: str, scale: str,
                stacks: Optional[Iterable] = None,
                resume: bool = False, jobs: int = 1,
                service: Optional[str] = None) -> ExperimentResult:
    ranks = MACHINE_RANKS[machine]
    return run_sweep(
        experiment=experiment,
        machine=machine,
        operation=operation,
        nprocs=ranks,
        stacks=list(stacks or stk.PAPER_STACKS),
        sizes=_sizes(scale, FIG_SIZES),
        settings=_settings(scale),
        reference="KNEM-Coll",
        checkpoint=checkpoint_path(experiment, machine) if resume else None,
        parallel=jobs,
        service=service,
    )


# ---------------------------------------------------------------- figure 4
def figure4_stacks(scale: str = "bench",
                   pipeline_sizes: Optional[list[int]] = None
                   ) -> list[stk.Stack]:
    """The series of Figure 4: ``linear``, ``no-pipeline``, and one
    KNEM-Coll stack per pipeline segment size."""
    if pipeline_sizes is None:
        pipeline_sizes = [4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 512 * KiB,
                          2 * MiB]
        if scale == "full":
            pipeline_sizes = [4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB,
                              128 * KiB, 256 * KiB, 512 * KiB, 1 * MiB, 2 * MiB]
        elif scale == "smoke":
            pipeline_sizes = [16 * KiB, 512 * KiB]
    base = stk.KNEM_COLL
    stacks = [
        base.with_tuning(name="linear", hierarchical=False),
        base.with_tuning(name="no-pipeline", pipeline=False),
    ]
    for seg in pipeline_sizes:
        stacks.append(base.with_tuning(name=f"pipe-{seg // KiB}K",
                                       pipeline_seg_intermediate=seg,
                                       pipeline_seg_large=seg,
                                       pipeline_large_at=1 << 62))
    return stacks


def figure4(scale: str = "bench",
            pipeline_sizes: Optional[list[int]] = None,
            resume: bool = False, jobs: int = 1,
            service: Optional[str] = None) -> ExperimentResult:
    """Pipeline-size sweep of the hierarchical pipelined Broadcast on IG.

    Series: ``linear``, ``no-pipeline``, and one per pipeline segment size;
    normalization reference is ``no-pipeline`` (as in the paper's Figure 4).
    """
    settings = _settings(scale)
    sizes = _sizes(scale, FIG4_SIZES)
    stacks = figure4_stacks(scale, pipeline_sizes)
    return run_sweep(
        experiment="fig4", machine="ig", operation="bcast", nprocs=48,
        stacks=stacks, sizes=sizes, settings=settings,
        reference="no-pipeline",
        checkpoint=checkpoint_path("fig4", "ig") if resume else None,
        parallel=jobs,
        service=service,
    )


# ------------------------------------------------------------- figures 5-8
def figure5(machine: str = "ig", scale: str = "bench",
            resume: bool = False, jobs: int = 1,
            service: Optional[str] = None) -> ExperimentResult:
    """Broadcast, 5 stacks, normalized to KNEM-Coll (Figure 5)."""
    return _paper_grid("fig5", "bcast", machine, scale, resume=resume,
                       jobs=jobs, service=service)


def figure6(machine: str = "ig", scale: str = "bench",
            resume: bool = False, jobs: int = 1,
            service: Optional[str] = None) -> ExperimentResult:
    """Gather (Figure 6)."""
    return _paper_grid("fig6", "gather", machine, scale, resume=resume,
                       jobs=jobs, service=service)


def scatter_text(machine: str = "ig", scale: str = "bench",
                 resume: bool = False, jobs: int = 1,
                 service: Optional[str] = None) -> ExperimentResult:
    """Scatter (text-only results in Section VI-C)."""
    return _paper_grid("scatter", "scatter", machine, scale,
                       resume=resume, jobs=jobs, service=service)


def figure7(machine: str = "ig", scale: str = "bench",
            resume: bool = False, jobs: int = 1,
            service: Optional[str] = None) -> ExperimentResult:
    """AlltoAllv (Figure 7)."""
    return _paper_grid("fig7", "alltoallv", machine, scale, resume=resume,
                       jobs=jobs, service=service)


def figure8(machine: str = "ig", scale: str = "bench",
            resume: bool = False, jobs: int = 1,
            service: Optional[str] = None) -> ExperimentResult:
    """AllGather (Figure 8)."""
    return _paper_grid("fig8", "allgather", machine, scale, resume=resume,
                       jobs=jobs, service=service)


# ---------------------------------------------------------------- table I
def table1(machine: str = "zoot", scale: str = "bench",
           sample: Optional[int] = None) -> dict:
    """ASP application timing breakdown (Table I).

    Returns ``{stack name: {"bcast": s, "total": s}}`` for the three
    libraries of the table.  ``sample`` controls iteration sampling (see
    :func:`repro.apps.asp.run_asp_timed`); ``None`` picks the scale default.
    """
    from repro.apps.asp import asp_paper_config, run_asp_timed

    cfg = asp_paper_config(machine)
    if sample is None:
        sample = {"full": 1, "bench": 64 if machine == "ig" else 16,
                  "smoke": 512}[scale]
    rows = {}
    for label, stack in (("Open MPI", stk.TUNED_SM),
                         ("MPICH2", stk.MPICH2_SM),
                         ("KNEM Coll", stk.KNEM_COLL)):
        timing = run_asp_timed(machine, stack, cfg, sample=sample)
        rows[label] = {"bcast": timing.bcast_time, "total": timing.total_time}
    return rows


# ---------------------------------------------------------------- ablations
def ablation_direction(machine: str = "zoot", scale: str = "bench",
                       resume: bool = False, jobs: int = 1,
                       service: Optional[str] = None) -> ExperimentResult:
    """Gather with vs without sender-writing direction control."""
    return _paper_grid(
        "abl-direction", "gather", machine, scale, resume=resume,
        jobs=jobs, service=service,
        stacks=[stk.KNEM_COLL.with_tuning(name="KNEM-root-reads",
                                          gather_direction_write=False),
                stk.KNEM_COLL],
    )


def ablation_rotation(machine: str = "ig", scale: str = "bench",
                      resume: bool = False, jobs: int = 1,
                      service: Optional[str] = None) -> ExperimentResult:
    """Alltoall: rotated (Figure 3) vs naive fetch order."""
    return _paper_grid(
        "abl-rotation", "alltoall", machine, scale, resume=resume,
        jobs=jobs, service=service,
        stacks=[stk.KNEM_COLL.with_tuning(name="KNEM-naive-order",
                                          rotate_alltoall=False),
                stk.KNEM_COLL],
    )


#: CLI registry: name -> (callable, supports-machine-arg)
EXPERIMENTS = {
    "fig4": (figure4, False),
    "fig5": (figure5, True),
    "fig6": (figure6, True),
    "scatter": (scatter_text, True),
    "fig7": (figure7, True),
    "fig8": (figure8, True),
    "abl-direction": (ablation_direction, True),
    "abl-rotation": (ablation_rotation, True),
}
