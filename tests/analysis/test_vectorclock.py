"""Vector-clock algebra: the happens-before primitive under everything."""

from repro.analysis import VectorClock


class TestVectorClock:
    def test_tick_advances_own_component(self):
        vc = VectorClock(3)
        vc.tick(1)
        vc.tick(1)
        assert vc.c == [0, 2, 0]

    def test_copy_is_independent(self):
        vc = VectorClock(2)
        snap = vc.copy()
        vc.tick(0)
        assert snap.c == [0, 0]
        assert vc.c == [1, 0]

    def test_join_is_componentwise_max(self):
        a = VectorClock(3, [5, 0, 2])
        b = VectorClock(3, [1, 4, 2])
        a.join(b)
        assert a.c == [5, 4, 2]
        assert b.c == [1, 4, 2]  # join mutates only the receiver

    def test_leq(self):
        assert VectorClock(2, [1, 2]).leq(VectorClock(2, [1, 3]))
        assert not VectorClock(2, [2, 2]).leq(VectorClock(2, [1, 3]))

    def test_ordered_message_edge(self):
        # rank 0 ticks, sends; rank 1 joins the snapshot then ticks.
        sender = VectorClock(2)
        sender.tick(0)
        snap = sender.copy()
        receiver = VectorClock(2)
        receiver.tick(1)
        receiver.join(snap)
        receiver.tick(1)
        after_recv = receiver.copy()
        assert snap.leq(after_recv)
        assert not after_recv.leq(snap)  # the edge has one direction

    def test_concurrent_snapshots_are_unordered(self):
        a = VectorClock(2)
        a.tick(0)
        b = VectorClock(2)
        b.tick(1)
        assert not a.leq(b) and not b.leq(a)

    def test_same_rank_always_ordered(self):
        early = VectorClock(2, [1, 0])
        late = VectorClock(2, [7, 3])
        assert early.leq(late)
