"""Communication-topology helpers shared by the collective components.

All helpers work in *vrank* space: ranks are rotated so the operation root
is vrank 0 (``vrank = (rank - root) % size``), the standard trick that lets
one tree shape serve any root.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "vrank_of",
    "rank_of",
    "binomial_parent",
    "binomial_children",
    "binomial_subtree_size",
    "binary_parent_children",
    "chain_neighbors",
    "segments",
    "DirectionSpec",
    "ScheduleSpec",
    "export_schedule",
    "exported_schedules",
    "schedule_names",
    "get_schedule",
]


@dataclass(frozen=True)
class DirectionSpec:
    """An algorithm's declared direction-control contract (Section III).

    ``direction`` is ``"read"`` (all cross-rank copies receiver-reading),
    ``"write"`` (all sender-writing), or ``"mixed"`` (composed schedules
    like AllGather = Gather + Bcast; per-copy direction is not checked).
    ``concurrent`` declares that cross-rank copies are expected to be
    spread over several issuing cores — the analyzer's root-serialization
    check only fires for contracts that declare it.
    """

    direction: str = "mixed"
    concurrent: bool = False

    def __post_init__(self) -> None:
        if self.direction not in ("read", "write", "mixed"):
            raise ValueError(f"bad direction {self.direction!r}")


@dataclass(frozen=True)
class ScheduleSpec:
    """One exported collective schedule, registered for static verification.

    Every collective component module calls :func:`export_schedule` at import
    time for each operation it implements, so ``repro.analysis`` can
    enumerate and check the full algorithm surface without knowing the
    components by name.  ``direction`` / ``concurrent`` declare the
    :class:`DirectionSpec` contract the schedule is expected to honour
    ("mixed" imposes no direction constraint); both the static verifier and
    the trace analyzer read it from here.
    """

    component: str
    op: str
    direction: str = "mixed"
    concurrent: bool = False
    description: str = ""
    #: tuning-field overrides that select algorithm variants worth verifying
    #: separately (e.g. forcing the multi-level board tree on 2-board specs).
    variants: tuple[tuple[str, tuple[tuple[str, object], ...]], ...] = field(
        default_factory=tuple)

    @property
    def name(self) -> str:
        return f"{self.component}.{self.op}"

    @property
    def contract(self) -> DirectionSpec:
        return DirectionSpec(self.direction, self.concurrent)


#: name -> spec, in registration (module import) order.
_SCHEDULES: "dict[str, ScheduleSpec]" = {}


def export_schedule(component: str, op: str, *, direction: str = "mixed",
                    concurrent: bool = False, description: str = "",
                    variants: "dict[str, dict[str, object]] | None" = None,
                    ) -> ScheduleSpec:
    """Register one (component, operation) schedule for static verification."""
    frozen = tuple(sorted((name, tuple(sorted(changes.items())))
                          for name, changes in (variants or {}).items()))
    spec = ScheduleSpec(component=component, op=op, direction=direction,
                        concurrent=concurrent, description=description,
                        variants=frozen)
    _SCHEDULES[spec.name] = spec
    return spec


def exported_schedules(component: str | None = None) -> list[ScheduleSpec]:
    """All registered schedules (optionally for one component)."""
    specs = list(_SCHEDULES.values())
    if component is not None:
        specs = [s for s in specs if s.component == component]
    return specs


def schedule_names() -> list[str]:
    return list(_SCHEDULES)


def get_schedule(name: str) -> ScheduleSpec:
    try:
        return _SCHEDULES[name]
    except KeyError:
        raise KeyError(f"no exported schedule named {name!r}; "
                       f"known: {', '.join(_SCHEDULES) or '(none)'}") from None


def vrank_of(rank: int, root: int, size: int) -> int:
    """Rotate ``rank`` so the collective root becomes vrank 0."""
    return (rank - root) % size


def rank_of(vrank: int, root: int, size: int) -> int:
    """Inverse of :func:`vrank_of`."""
    return (vrank + root) % size


def binomial_parent(vrank: int) -> int | None:
    """Parent of a vrank in the binomial broadcast tree (None for the root).

    The parent clears the lowest set bit: vrank 0b0110 -> 0b0100.
    """
    if vrank == 0:
        return None
    return vrank & (vrank - 1)


def binomial_children(vrank: int, size: int) -> list[int]:
    """Children of a vrank, in the order a broadcast sends to them.

    vrank ``v`` owns children ``v + 2^k`` for each ``k`` with ``2^k`` above
    ``v``'s lowest set bit, while the child index stays below ``size``.
    Children are emitted largest-subtree-first, matching the usual binomial
    broadcast schedule (the big subtree gets the data earliest).
    """
    if size <= 1:
        return []
    low = vrank & -vrank if vrank else 1 << (size - 1).bit_length()
    children: list[int] = []
    bit = 1
    while bit < low and vrank + bit < size:
        children.append(vrank + bit)
        bit <<= 1
    return children[::-1]


def binomial_subtree_size(vrank: int, size: int) -> int:
    """Number of vranks in the subtree rooted at ``vrank`` (incl. itself).

    In the binomial tree, the subtree of ``v`` spans the contiguous vrank
    interval ``[v, v + span)`` with ``span = min(lowbit(v), size - v)``.
    """
    if vrank == 0:
        return size
    low = vrank & -vrank
    return min(low, size - vrank)


def binary_parent_children(vrank: int, size: int) -> tuple[int | None, list[int]]:
    """In-order complete binary tree over vranks (pipelined tree broadcast)."""
    parent = None if vrank == 0 else (vrank - 1) // 2
    children = [c for c in (2 * vrank + 1, 2 * vrank + 2) if c < size]
    return parent, children


def chain_neighbors(vrank: int, size: int) -> tuple[int | None, int | None]:
    """Predecessor/successor in the chain (pipeline) topology."""
    prev = None if vrank == 0 else vrank - 1
    nxt = None if vrank == size - 1 else vrank + 1
    return prev, nxt


def segments(nbytes: int, segsize: int) -> list[tuple[int, int]]:
    """Split ``nbytes`` into ``(offset, length)`` segments of ``segsize``."""
    if nbytes == 0:
        return [(0, 0)]
    if segsize <= 0:
        return [(0, nbytes)]
    out = []
    off = 0
    while off < nbytes:
        ln = min(segsize, nbytes - off)
        out.append((off, ln))
        off += ln
    return out
