"""Vector clocks over simulated MPI processes.

The analyzer replays the trace record stream (which is totally ordered by
the deterministic simulator) and maintains one clock per world rank.  Two
recorded operations are *concurrent* when neither's snapshot
happens-before the other — the standard Mattern/Fidge construction, here
over ranks instead of OS threads.
"""

from __future__ import annotations

__all__ = ["VectorClock"]


class VectorClock:
    """A fixed-width vector clock (one component per world rank)."""

    __slots__ = ("c",)

    def __init__(self, n: int, init: "list[int] | None" = None):
        self.c = list(init) if init is not None else [0] * n

    def copy(self) -> "VectorClock":
        return VectorClock(len(self.c), self.c)

    def tick(self, rank: int) -> None:
        """Advance ``rank``'s own component (one per attributed record)."""
        self.c[rank] += 1

    def join(self, other: "VectorClock") -> None:
        """Component-wise max — the receive side of an HB edge."""
        mine, theirs = self.c, other.c
        for i in range(len(mine)):
            if theirs[i] > mine[i]:
                mine[i] = theirs[i]

    def leq(self, other: "VectorClock") -> bool:
        """True when this clock happens-before-or-equals ``other``: the one
        happens-before test every checker uses."""
        return all(a <= b for a, b in zip(self.c, other.c))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VC{self.c!r}"
