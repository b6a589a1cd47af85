"""Deadlock diagnosis: name the wait-for cycle, not just the stuck ranks.

When a run dies with :class:`~repro.errors.DeadlockError` (or a schedule's
symbolic extraction wedges), the model names *which* ranks are blocked;
this checker reconstructs *why* from the model's wait-for facts: every send
the sender is still inside (a rendezvous waiting for its FIN) and every
receive post that never matched.  Those outstanding operations become
wait-for edges between ranks, and a cycle among the blocked ranks is the
classic send/send (or mismatched-tag) deadlock, reported by name.
"""

from __future__ import annotations

import re
from typing import Iterator, Optional

from repro.analysis.findings import ERROR, WARNING, Finding, register_checker
from repro.analysis.model import TraceModel
from repro.errors import DeadlockError

__all__ = ["check_deadlock"]

_RANK_NAME = re.compile(r"^rank(\d+)$")


def _blocked_ranks(deadlock: DeadlockError) -> set[int]:
    ranks = set()
    for name in deadlock.blocked:
        match = _RANK_NAME.match(name)
        if match:
            ranks.add(int(match.group(1)))
    return ranks


def _find_cycle(edges: dict[int, list[tuple[int, str]]]) -> Optional[list[int]]:
    """First wait-for cycle (DFS over definite edges), as a rank list."""
    state: dict[int, int] = {}  # 0 visiting, 1 done
    path: list[int] = []

    def dfs(rank: int) -> Optional[list[int]]:
        state[rank] = 0
        path.append(rank)
        for peer, _why in edges.get(rank, ()):
            if peer not in state:
                cycle = dfs(peer)
                if cycle is not None:
                    return cycle
            elif state[peer] == 0:
                return path[path.index(peer):]
        path.pop()
        state[rank] = 1
        return None

    for rank in sorted(edges):
        if rank not in state:
            cycle = dfs(rank)
            if cycle is not None:
                return cycle
    return None


@register_checker("deadlock")
def check_deadlock(model: TraceModel) -> Iterator[Finding]:
    deadlock = model.deadlock
    if deadlock is None:
        return
    blocked = _blocked_ranks(deadlock)

    # Wait-for edges among the blocked ranks.  Edges pointing at a rank
    # that died (fail-stop crash) are annotated: the wait is explained by
    # the death, not by a cyclic schedule — a crashed-rank hang is
    # degraded, not deadlocked.
    dead = set(model.dead_ranks)

    def _died(rank: int) -> str:
        return " — peer rank died (fail-stop)" if rank in dead else ""

    edges: dict[int, list[tuple[int, str]]] = {}
    for hb, (src, dst) in sorted(model.outstanding_sends.items()):
        if src in blocked and src not in dead:
            edges.setdefault(src, []).append(
                (dst, f"send to rank {dst} never completed "
                      f"(hb token {hb}){_died(dst)}"))
    any_source: list[int] = []
    for req, (rank, src) in sorted(model.pending_recvs.items()):
        if rank not in blocked or rank in dead:
            continue
        if src is None:
            any_source.append(rank)
        else:
            edges.setdefault(rank, []).append(
                (src, f"receive from rank {src} never matched "
                      f"(request {req}){_died(src)}"))

    cycle = _find_cycle(edges)
    if cycle is not None:
        hops = []
        for i, rank in enumerate(cycle):
            peer = cycle[(i + 1) % len(cycle)]
            why = next(w for p, w in edges[rank] if p == peer)
            hops.append(f"rank {rank} -> rank {peer} ({why})")
        names = " -> ".join(f"rank {r}" for r in cycle + [cycle[0]])
        yield Finding(
            checker="deadlock", category="wait-cycle", severity=ERROR,
            rank=cycle[0],
            message=f"wait-for cycle {names}: " + "; ".join(hops),
            details={"cycle": cycle},
        )

    # Per-rank explanation of what each blocked rank was stuck on, whether
    # or not a definite cycle exists (ANY_SOURCE receives have no single
    # target edge, mismatched tags may leave a dangling chain).
    waiting = deadlock.waiting
    for name in deadlock.blocked:
        match = _RANK_NAME.match(name)
        rank = int(match.group(1)) if match else None
        reasons = [why for _peer, why in edges.get(rank, [])] \
            if rank is not None else []
        if rank in any_source:
            reasons.append("receive from ANY_SOURCE never matched")
        if not reasons:
            event = waiting.get(name)
            reasons.append(f"blocked on {event}" if event
                           else "blocked on an untraced event")
        yield Finding(
            checker="deadlock",
            category="blocked-rank" if cycle is None else "cycle-member",
            severity=ERROR if cycle is None else WARNING,
            rank=rank,
            message=f"{name}: " + "; ".join(reasons),
            details={"process": name},
        )
