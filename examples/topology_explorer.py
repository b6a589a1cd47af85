#!/usr/bin/env python3
"""Explore the simulated machines the way hwloc's lstopo would.

Prints the topology tree of each paper platform, the core-to-core distance
matrix, and the NUMA grouping the KNEM collective component builds its
two-level broadcast tree from (Figure 1).

Run:  python examples/topology_explorer.py [machine]
"""

import sys

from repro.hardware.machines import MACHINES, get_machine
from repro.topology.distance import DistanceMatrix, group_by_domain
from repro.topology.objects import Topology
from repro.units import fmt_bandwidth


def explore(name: str) -> None:
    spec = get_machine(name)
    topo = Topology(spec)
    print("=" * 70)
    print(spec)
    print(f"  {spec.description}")
    print(f"  memory: {fmt_bandwidth(spec.domain_mem_bandwidth[0])} per domain, "
          f"LLC {spec.llc.size >> 20} MB per {spec.llc.scope}")
    if spec.links:
        slowest = min(l.bandwidth for l in spec.links)
        print(f"  links: {len(spec.links)}, slowest {fmt_bandwidth(slowest)}")
    print()
    print(topo.render())

    dist = DistanceMatrix(topo)
    print("\ncore distance matrix (0=self ... 5=cross-board):")
    for row in dist.matrix:
        print(" ".join(map(str, row)))

    groups = group_by_domain(spec, list(range(spec.n_cores)))
    print("\nNUMA sets (the per-domain groups of Figure 1):")
    for domain, cores in groups.items():
        print(f"  domain {domain}: cores {cores}")
    print()


def main():
    names = sys.argv[1:] if len(sys.argv) > 1 else sorted(MACHINES)
    for name in names:
        explore(name)


if __name__ == "__main__":
    main()
