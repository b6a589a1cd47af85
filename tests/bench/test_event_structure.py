"""Pinned event structure of five sweep cells.

Each cell's ``%.9f`` time and its exact simulator counters: events
dispatched, generator resumptions and the queue's high-water mark.  An
optimization of the event core or of the per-message path must dispatch
the same events in the same order, so all four numbers stay put; a change
that moves any of them changed the simulation, not just its speed.  The
cells span the five operations, the five stacks and the four machines.
"""

import pytest

from repro.bench.experiments import MACHINE_RANKS
from repro.bench.imb import CellStats, ImbSettings, consume_cell_stats, imb_time
from repro.mpi import stacks
from repro.units import KiB

BENCH = ImbSettings(max_iterations=1, warmups=0)
STACKS = {stack.name: stack for stack in stacks.PAPER_STACKS}

#: (machine, operation, stack, size) -> (seconds, events, resumes, peak)
PINNED = {
    ("ig", "bcast", "KNEM-Coll", 32 * KiB):
        ("0.000090779", 5933, 3672, 144),
    ("ig", "gather", "Tuned-KNEM", 128 * KiB):
        ("0.002602787", 4874, 3012, 144),
    ("saturn", "alltoallv", "Tuned-SM", 32 * KiB):
        ("0.001138419", 7636, 4640, 491),
    ("zoot", "scatter", "MPICH2-SM", 128 * KiB):
        ("0.002095183", 3114, 1493, 48),
    ("dancer", "allgather", "MPICH2-KNEM", 32 * KiB):
        ("0.000187941", 933, 592, 24),
}


def _cell_id(cell) -> str:
    machine, operation, stack, size = cell
    return f"{machine}-{operation}-{stack}-{size // KiB}K"


@pytest.mark.parametrize("cell", sorted(PINNED), ids=_cell_id)
def test_cell_time_and_counters_are_pinned(cell):
    machine, operation, stack, size = cell
    seconds, events, resumes, peak = PINNED[cell]
    consume_cell_stats()
    t = imb_time(machine, STACKS[stack], MACHINE_RANKS[machine], operation,
                 size, BENCH)
    stats = consume_cell_stats()
    assert (f"{t:.9f}", stats) == (
        seconds, CellStats(sim_events=events, process_resumes=resumes,
                           peak_heap=peak))
