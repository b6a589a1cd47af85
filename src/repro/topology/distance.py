"""Core-to-core distances and locality grouping.

Distance between two cores is a small integer reflecting how far apart their
shared resources are (the further the ancestor, the slower the traffic):

====  =============================================
 0    same core
 1    same innermost shared cache (e.g. Zoot L2 pair)
 2    same socket / last-level cache
 3    same memory domain (multi-socket domain)
 4    same board (different domains)
 5    different boards
====  =============================================

The KNEM collective component uses these distances (and
:func:`group_by_domain`) to build the two-level hierarchy of Figure 1 and to
pick leaders close to the data.
"""

from __future__ import annotations

from repro.hardware.spec import MachineSpec
from repro.topology.objects import Topology

__all__ = ["DistanceMatrix", "group_by_domain", "leader_order"]


#: Shared per-spec matrices (see :meth:`DistanceMatrix.for_spec`).
_DISTANCE_CACHE: dict[MachineSpec, "DistanceMatrix"] = {}


class DistanceMatrix:
    """Pairwise distance lookup with a precomputed matrix.

    ``matrix`` is a tuple of per-core row tuples, immutable so that the
    memoized instance can be shared safely.
    """

    @classmethod
    def for_spec(cls, spec: MachineSpec) -> "DistanceMatrix":
        """Memoized shared instance for ``spec``.

        The O(n_cores²) common-ancestor walk dominates Machine construction
        on IG (48 cores); the result depends only on the frozen spec, so
        repeated sweep cells share one (immutable) matrix.
        """
        dm = _DISTANCE_CACHE.get(spec)
        if dm is None:
            dm = _DISTANCE_CACHE[spec] = cls(Topology.for_spec(spec))
        return dm

    def __init__(self, topology: Topology):
        self.topology = topology
        spec = topology.spec
        n = spec.n_cores
        rows = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                rows[a][b] = rows[b][a] = self._distance(spec, topology, a, b)
        self.matrix: tuple[tuple[int, ...], ...] = tuple(map(tuple, rows))

    @staticmethod
    def _distance(spec: MachineSpec, topo: Topology, a: int, b: int) -> int:
        if a == b:
            return 0
        anc = topo.common_ancestor(a, b)
        if anc.type == "cache":
            # Innermost shared cache = 1; outer (LLC) = 2.  With one cache
            # level both collapse to 2 unless the level is the innermost.
            inner_most = anc.attrs["level"] == min(c.level for c in spec.caches)
            return 1 if inner_most and len(spec.caches) > 1 else 2
        if anc.type == "socket":
            return 2
        if spec.core_domain(a) == spec.core_domain(b):
            return 3
        if anc.type == "board":
            return 4
        return 5

    def __call__(self, a: int, b: int) -> int:
        return self.matrix[a][b]

    def nearest(self, core: int, candidates: list[int]) -> int:
        """The candidate closest to ``core`` (ties broken by index)."""
        if not candidates:
            raise ValueError("nearest() with no candidates")
        row = self.matrix[core]
        return min(candidates, key=lambda c: (row[c], c))


def group_by_domain(spec: MachineSpec, cores: list[int]) -> dict[int, list[int]]:
    """Split cores into the paper's NUMA "sets" (Figure 1), keyed by domain."""
    groups: dict[int, list[int]] = {}
    for c in cores:
        groups.setdefault(spec.core_domain(c), []).append(c)
    return {d: sorted(g) for d, g in sorted(groups.items())}


def leader_order(spec: MachineSpec, root_core: int, domains: list[int]) -> list[int]:
    """Order domains for the first tree level: root's domain first, then by
    link-hop proximity to it (boards interleave naturally on IG)."""
    root_domain = spec.core_domain(root_core)

    def hops(d: int) -> int:
        if d == root_domain:
            return 0
        # hop count via the link graph is 1 within a board mesh, more across
        # boards; approximate with board membership to stay spec-only.
        boards = {spec.socket_board[s]
                  for s, dom in enumerate(spec.socket_domain) if dom == d}
        root_boards = {
            spec.socket_board[s]
            for s, dom in enumerate(spec.socket_domain)
            if dom == root_domain
        }
        return 1 if boards & root_boards else 2

    return sorted(domains, key=lambda d: (hops(d), d))
