"""Inter-domain routes: pinned on IG, and tie-for-tie equal to networkx.

IG's eight domains have 12 ordered pairs joined by two equal-cost paths
(0<->7, 3<->4 and {1,2}<->{5,6}).  Which of the two a copy takes decides
which links it loads, so the routes are pinned literally; the
differential test checks that the in-tree search resolves every tie the
way ``networkx.shortest_path(..., weight="weight")`` does.
"""

import dataclasses
import random

import pytest

from repro.errors import RoutingError
from repro.hardware.machines import ig, numa_machine
from repro.hardware.memory import _route_tables
from repro.hardware.spec import LinkSpec

IG_ROUTES = {
    (0, 1): [(0, 1)], (0, 2): [(0, 2)], (0, 3): [(0, 3)], (0, 4): [(0, 4)],
    (0, 5): [(0, 4), (4, 5)], (0, 6): [(0, 4), (4, 6)], (0, 7): [(0, 4), (4, 7)],
    (1, 0): [(0, 1)], (1, 2): [(1, 2)], (1, 3): [(1, 3)], (1, 4): [(0, 1), (0, 4)],
    (1, 5): [(0, 1), (0, 4), (4, 5)], (1, 6): [(0, 1), (0, 4), (4, 6)],
    (1, 7): [(1, 3), (3, 7)],
    (2, 0): [(0, 2)], (2, 1): [(1, 2)], (2, 3): [(2, 3)], (2, 4): [(0, 2), (0, 4)],
    (2, 5): [(0, 2), (0, 4), (4, 5)], (2, 6): [(0, 2), (0, 4), (4, 6)],
    (2, 7): [(2, 3), (3, 7)],
    (3, 0): [(0, 3)], (3, 1): [(1, 3)], (3, 2): [(2, 3)], (3, 4): [(3, 7), (4, 7)],
    (3, 5): [(3, 7), (5, 7)], (3, 6): [(3, 7), (6, 7)], (3, 7): [(3, 7)],
    (4, 0): [(0, 4)], (4, 1): [(0, 4), (0, 1)], (4, 2): [(0, 4), (0, 2)],
    (4, 3): [(0, 4), (0, 3)], (4, 5): [(4, 5)], (4, 6): [(4, 6)], (4, 7): [(4, 7)],
    (5, 0): [(4, 5), (0, 4)], (5, 1): [(4, 5), (0, 4), (0, 1)],
    (5, 2): [(4, 5), (0, 4), (0, 2)], (5, 3): [(5, 7), (3, 7)], (5, 4): [(4, 5)],
    (5, 6): [(5, 6)], (5, 7): [(5, 7)],
    (6, 0): [(4, 6), (0, 4)], (6, 1): [(4, 6), (0, 4), (0, 1)],
    (6, 2): [(4, 6), (0, 4), (0, 2)], (6, 3): [(6, 7), (3, 7)], (6, 4): [(4, 6)],
    (6, 5): [(5, 6)], (6, 7): [(6, 7)],
    (7, 0): [(3, 7), (0, 3)], (7, 1): [(3, 7), (1, 3)], (7, 2): [(3, 7), (2, 3)],
    (7, 3): [(3, 7)], (7, 4): [(4, 7)], (7, 5): [(5, 7)], (7, 6): [(6, 7)],
}


def test_ig_routes_pinned():
    routes, _latency = _route_tables(ig())
    assert {pair: route for pair, route in routes.items()
            if pair[0] != pair[1]} == IG_ROUTES
    assert all(routes[(d, d)] == [] for d in range(8))


def _random_spec(rng: random.Random):
    """A 2-10 domain link graph: random subset, order and orientation of
    the links, bandwidths drawn from a small set so that ties are common."""
    n = rng.randint(2, 10)
    pairs = [(a, b) for a in range(n) for b in range(a + 1, n)]
    rng.shuffle(pairs)
    links = []
    for a, b in pairs[:rng.randint(1, len(pairs))]:
        if rng.random() < 0.5:
            a, b = b, a
        links.append(LinkSpec(a, b, bandwidth=rng.choice((4e9, 4e9, 8e9, 12e9))))
    return dataclasses.replace(numa_machine(n_domains=n), links=tuple(links))


def test_routes_match_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    graphs, disconnected = 300, 0
    for seed in range(graphs):
        spec = _random_spec(random.Random(seed))
        graph = nx.Graph()
        graph.add_nodes_from(range(spec.n_domains))
        for link in spec.links:
            graph.add_edge(link.a, link.b, weight=1.0 + 1e-12 / link.bandwidth)
        if not nx.is_connected(graph):
            disconnected += 1
            with pytest.raises(RoutingError):
                _route_tables(spec)
            continue
        routes, _latency = _route_tables(spec)
        for (a, b), route in routes.items():
            path = nx.shortest_path(graph, a, b, weight="weight")
            want = [(min(u, v), max(u, v)) for u, v in zip(path, path[1:])]
            assert route == want, (seed, a, b)
    # Both outcomes are exercised; most graphs are compared path by path.
    assert 0 < disconnected <= graphs - 200
