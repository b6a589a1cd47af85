"""Distance matrix, locality grouping, binding policies."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import HardwareConfigError
from repro.hardware.machines import dancer, ig, zoot
from repro.topology.binding import bind_ranks
from repro.topology.distance import DistanceMatrix, group_by_domain, leader_order
from repro.topology.objects import Topology


@pytest.fixture(scope="module")
def ig_dist():
    return DistanceMatrix(Topology(ig()))


@pytest.fixture(scope="module")
def zoot_dist():
    return DistanceMatrix(Topology(zoot()))


class TestDistance:
    def test_self_distance_zero(self, ig_dist):
        assert ig_dist(7, 7) == 0

    def test_symmetry(self, ig_dist):
        m = ig_dist.matrix
        n = len(m)
        assert all(m[a][b] == m[b][a] for a in range(n) for b in range(n))

    def test_zoot_levels(self, zoot_dist):
        assert zoot_dist(0, 1) == 2    # shared L2 pair (single cache level)
        assert zoot_dist(0, 2) == 2    # same socket
        assert zoot_dist(0, 4) == 3    # same (single) memory domain

    def test_ig_levels(self, ig_dist):
        assert ig_dist(0, 1) == 2      # same socket / L3
        assert ig_dist(0, 6) == 4      # same board, different domain
        assert ig_dist(0, 47) == 5     # different boards

    def test_dancer_cross_socket(self):
        d = DistanceMatrix(Topology(dancer()))
        assert d(0, 3) == 2
        assert d(0, 4) == 4

    def test_nearest_prefers_closest(self, ig_dist):
        # candidates: same socket (1), same board (6), cross board (47)
        assert ig_dist.nearest(0, [47, 6, 1]) == 1

    def test_nearest_tie_break_by_index(self, ig_dist):
        assert ig_dist.nearest(0, [2, 1]) == 1

    def test_nearest_empty_rejected(self, ig_dist):
        with pytest.raises(ValueError):
            ig_dist.nearest(0, [])

    def test_monotone_with_topology_levels(self, ig_dist):
        spec = ig()
        for a in range(0, 48, 7):
            for b in range(0, 48, 5):
                d = ig_dist(a, b)
                if a == b:
                    continue
                same_socket = spec.core_socket(a) == spec.core_socket(b)
                same_board = spec.core_board(a) == spec.core_board(b)
                if same_socket:
                    assert d <= 2
                elif same_board:
                    assert d == 4
                else:
                    assert d == 5


class TestGrouping:
    def test_group_by_domain_ig(self):
        spec = ig()
        groups = group_by_domain(spec, list(range(48)))
        assert sorted(groups) == list(range(8))
        assert groups[0] == [0, 1, 2, 3, 4, 5]
        assert groups[7] == [42, 43, 44, 45, 46, 47]

    def test_group_subset(self):
        spec = dancer()
        groups = group_by_domain(spec, [0, 5, 6])
        assert groups == {0: [0], 1: [5, 6]}

    def test_leader_order_root_domain_first(self):
        spec = ig()
        order = leader_order(spec, root_core=14, domains=list(range(8)))
        assert order[0] == 2  # core 14 -> socket 2 -> domain 2
        # same-board domains precede cross-board ones
        boards = [0 if d < 4 else 1 for d in order]
        assert boards == sorted(boards, key=lambda b: b != 0)


class TestBinding:
    def test_linear_identity(self):
        assert bind_ranks(ig(), 48) == list(range(48))

    def test_linear_partial(self):
        assert bind_ranks(dancer(), 4) == [0, 1, 2, 3]

    def test_scatter_round_robins_sockets(self):
        cores = bind_ranks(dancer(), 4, policy="scatter")
        assert cores == [0, 4, 1, 5]

    def test_oversubscription_rejected(self):
        with pytest.raises(HardwareConfigError):
            bind_ranks(dancer(), 9)

    def test_zero_ranks_rejected(self):
        with pytest.raises(HardwareConfigError):
            bind_ranks(dancer(), 0)

    def test_unknown_policy_rejected(self):
        with pytest.raises(HardwareConfigError):
            bind_ranks(dancer(), 4, policy="magic")


@given(n=st.integers(min_value=1, max_value=48))
@settings(max_examples=30)
def test_bindings_are_injective(n):
    spec = ig()
    for policy in ("linear", "scatter"):
        cores = bind_ranks(spec, n, policy=policy)
        assert len(cores) == n
        assert len(set(cores)) == n
        assert all(0 <= c < spec.n_cores for c in cores)
