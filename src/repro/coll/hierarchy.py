"""The relay trees of the KNEM-Coll broadcast (Section IV, Figure 1).

Every rank pulls the message from its parent's region and re-exports its
own buffer to its children, so a tree is just a choice of parent and
children over communicator ranks.  Three depths are built:

1. **Flat** — the root feeds every other rank (the linear broadcast).
2. **Two-level** (Figure 1) — ranks are split into *sets* by NUMA locality
   (all ranks whose cores share a memory domain form one set).  The root
   feeds one **leader** per other set, then the rest of its own set; each
   leader feeds the rest of its set.  A single inter-domain transfer feeds
   each set, minimizing inter-socket traffic, and intra-set transfers hit
   the shared cache.  The ablation tree (``topology_aware=False``) groups
   ranks by *logical rank order* into same-sized chunks — the paper's
   critique of fixed logical trees — so the benefit of topology awareness
   can be measured in isolation.
3. **Board** — root -> board leaders -> domain leaders -> leaves, the
   "significantly more complex than two-level" hierarchy the paper motivates
   for machines like IG: the two-level tree sends one inter-board transfer
   *per far-board domain*, while a board level relays the message across
   the interlink once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.topology.distance import leader_order

if TYPE_CHECKING:  # pragma: no cover
    from repro.mpi.communicator import CollCtx

__all__ = ["RelayTree", "build_tree", "hierarchy_worthwhile"]


@dataclass(frozen=True)
class RelayTree:
    """A broadcast tree: every rank pulls from its parent's region."""

    root: int
    parent: tuple  # parent[rank] (None for root), indexed by rank
    children: tuple  # tuple of tuples, indexed by rank

    def role(self, rank: int) -> str:
        if rank == self.root:
            return "root"
        return "relay" if self.children[rank] else "leaf"


def build_tree(ctx: "CollCtx", root: int, levels: int = 2,
               topology_aware: bool = True) -> RelayTree:
    """Build (and cache) the ``levels``-deep tree for this communicator and
    root: 1 = flat, 2 = NUMA sets (Figure 1), 3 = boards over NUMA sets."""
    key = ("relay", ctx.comm.cid, root, levels, topology_aware)
    tree = ctx.cache.get(key)
    if tree is not None:
        return tree
    size = ctx.size
    kids: dict[int, list[int]]
    if levels == 1:
        kids = {root: [r for r in range(size) if r != root]}
    elif levels == 2:
        sets = (_numa_sets(ctx, root) if topology_aware
                else _rank_chunks(ctx, root))
        kids = {root: [s[0] for s in sets if s[0] != root]}
        for s in sets:
            kids.setdefault(s[0], []).extend(s[1:])
    else:
        kids = {}
        for rank, par in enumerate(_board_parents(ctx, root)):
            if par is not None:
                kids.setdefault(par, []).append(rank)
    parent: list = [None] * size
    children: list[tuple[int, ...]] = [()] * size
    for rank, ranks in kids.items():
        children[rank] = tuple(ranks)
        for kid in ranks:
            parent[kid] = rank
    tree = RelayTree(root=root, parent=tuple(parent), children=tuple(children))
    ctx.cache[key] = tree
    return tree


def _numa_sets(ctx: "CollCtx", root: int) -> list[list[int]]:
    """One set per memory domain, leader first, in :func:`leader_order`;
    the root leads its own set."""
    spec = ctx.machine.spec
    by_domain: dict[int, list[int]] = {}
    for rank in range(ctx.size):
        by_domain.setdefault(spec.core_domain(ctx.comm.core_of(rank)),
                             []).append(rank)
    root_dom = spec.core_domain(ctx.comm.core_of(root))
    sets = []
    for dom in leader_order(spec, ctx.comm.core_of(root), sorted(by_domain)):
        members = by_domain[dom]
        lead = root if dom == root_dom else members[0]
        sets.append([lead] + [r for r in members if r != lead])
    return sets


def _rank_chunks(ctx: "CollCtx", root: int) -> list[list[int]]:
    """Rank-order chunks of the same cardinality as the NUMA grouping would
    produce — the "logical ranks layout" tree of [9]."""
    size = ctx.size
    spec = ctx.machine.spec
    n_sets = max(
        len({spec.core_domain(ctx.comm.core_of(r)) for r in range(size)}), 1)
    base, extra = divmod(size, n_sets)
    sets = []
    start = 0
    for i in range(n_sets):
        chunk = list(range(start, start + base + (1 if i < extra else 0)))
        start += len(chunk)
        if root in chunk:
            chunk.remove(root)
            chunk.insert(0, root)
        sets.append(chunk)
    return sets


def _board_parents(ctx: "CollCtx", root: int) -> list:
    """Parent of every rank in the board tree (None for the root)."""
    size = ctx.size
    spec = ctx.machine.spec
    by_board: dict[int, list[int]] = {}
    by_domain: dict[int, list[int]] = {}
    for rank in range(size):
        core = ctx.comm.core_of(rank)
        by_board.setdefault(spec.core_board(core), []).append(rank)
        by_domain.setdefault(spec.core_domain(core), []).append(rank)
    root_core = ctx.comm.core_of(root)
    root_board = spec.core_board(root_core)
    root_domain = spec.core_domain(root_core)

    def board_leader(board: int) -> int:
        return root if board == root_board else min(by_board[board])

    def domain_leader(domain: int) -> int:
        members = by_domain[domain]
        if domain == root_domain:
            return root
        # a board leader doubles as leader of its own domain
        for b in sorted(by_board):
            bl = board_leader(b)
            if bl in members:
                return bl
        return min(members)

    parent: list = [None] * size
    for domain in sorted(by_domain):
        dl = domain_leader(domain)
        for rank in by_domain[domain]:
            if rank != dl:
                parent[rank] = dl
        if dl == root:
            continue
        dl_board = spec.core_board(ctx.comm.core_of(dl))
        bl = board_leader(dl_board)
        parent[dl] = root if (bl == dl or bl == root) else bl
    for board in sorted(by_board):
        bl = board_leader(board)
        if bl != root and parent[bl] in (None, bl):
            parent[bl] = root
    return parent


def hierarchy_worthwhile(ctx: "CollCtx") -> bool:
    """Auto decision: hierarchy pays off when ranks span > 1 memory domain."""
    spec = ctx.machine.spec
    domains = {spec.core_domain(ctx.comm.core_of(r)) for r in range(ctx.size)}
    return len(domains) > 1
