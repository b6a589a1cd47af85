"""Decision functions of the baseline components and hierarchy building."""

import pytest

from repro.coll.hierarchy import build_tree, hierarchy_worthwhile
from repro.mpi import Job, Machine, stacks
from repro.mpi.communicator import CollCtx
from repro.units import KiB, MiB


def make_ctx(machine="ig", nprocs=48, stack=stacks.KNEM_COLL, binding="linear"):
    job = Job(Machine.build(machine), nprocs=nprocs, stack=stack,
              binding=binding)
    proc = job.procs[0]
    return CollCtx(proc.comm, seq=1)


def numa_sets(tree):
    """The sets of a two-level tree: the root with the children that feed
    nobody, and every relay with its children."""
    root = tree.root
    relays = [r for r in tree.children[root] if tree.children[r]]
    own = [r for r in tree.children[root] if not tree.children[r]]
    return [[root] + own] + [[r, *tree.children[r]] for r in relays]


class TestHierarchyTree:
    def test_ig_tree_has_eight_groups(self):
        tree = build_tree(make_ctx(), root=0)
        sets = numa_sets(tree)
        assert len(sets) == 8
        assert all(len(s) == 6 for s in sets)
        assert tree.root == 0
        assert sets[0] == [0, 1, 2, 3, 4, 5]  # the root leads its own set

    def test_groups_follow_numa_domains(self):
        tree = build_tree(make_ctx(), root=0)
        spec = Machine.build("ig").spec
        for members in numa_sets(tree):
            domains = {spec.core_domain(r) for r in members}  # linear binding
            assert len(domains) == 1

    def test_nonzero_root_leads_its_group(self):
        tree = build_tree(make_ctx(), root=13)
        assert tree.parent[13] is None
        assert tree.role(13) == "root"
        assert tree.parent[14] == 13  # 13 and 14 share domain 2

    def test_roles_partition(self):
        tree = build_tree(make_ctx(), root=0)
        roles = [tree.role(r) for r in range(48)]
        assert roles.count("root") == 1
        assert roles.count("relay") == 7
        assert roles.count("leaf") == 40

    def test_leaves_of(self):
        """The root feeds the 7 other leaders first, then its own leaves."""
        tree = build_tree(make_ctx(), root=0)
        kids = tree.children[0]
        assert [tree.role(r) for r in kids] == ["relay"] * 7 + ["leaf"] * 5
        assert kids[7:] == (1, 2, 3, 4, 5)
        assert tree.children[6] == (7, 8, 9, 10, 11)

    def test_flat_tree(self):
        tree = build_tree(make_ctx(), root=3, levels=1)
        assert tree.children[3] == tuple(r for r in range(48) if r != 3)
        assert tree.parent[3] is None
        assert all(tree.role(r) == "leaf" for r in range(48) if r != 3)

    def test_rank_order_tree_ignores_topology(self):
        ctx = make_ctx(binding="scatter")
        aware = build_tree(ctx, root=0, topology_aware=True)
        naive = build_tree(ctx, root=0, topology_aware=False)
        assert naive.children != aware.children
        # naive sets are contiguous rank chunks
        flat = [r for s in numa_sets(naive) for r in sorted(s)]
        assert flat == sorted(flat) == list(range(48))

    def test_tree_cached_per_root(self):
        ctx = make_ctx()
        t1 = build_tree(ctx, root=0)
        t2 = build_tree(ctx, root=0)
        t3 = build_tree(ctx, root=7)
        assert t1 is t2
        assert t3 is not t1

    def test_worthwhile_only_on_numa(self):
        assert hierarchy_worthwhile(make_ctx("ig", 48))
        assert not hierarchy_worthwhile(make_ctx("zoot", 16))
        # ranks confined to one domain: not worthwhile even on NUMA
        assert not hierarchy_worthwhile(make_ctx("dancer", 4))
        assert hierarchy_worthwhile(make_ctx("dancer", 8))


class TestTunedDecisions:
    """The decision function selects different algorithms by size; observable
    through the message pattern (sent-message counts per rank)."""

    def _messages(self, machine, nprocs, stack, nbytes):
        m = Machine.build(machine)
        job = Job(m, nprocs=nprocs, stack=stack)

        def prog(proc):
            buf = proc.alloc(nbytes, backed=False)
            yield from proc.comm.bcast(buf, 0, nbytes, root=0)
            return proc.pml.sent_messages

        res = job.run(prog)
        return res.values

    def test_binomial_small_bcast(self):
        sent = self._messages("dancer", 8, stacks.TUNED_SM, 8 * KiB)
        # binomial: rank 0 sends log2(8)=3; leaves send none
        assert sent[0] == 3
        assert sent[7] == 0

    def test_chain_large_bcast(self):
        sent = self._messages("dancer", 8, stacks.TUNED_SM, 2 * MiB)
        # chain with 128K segments: 16 messages per non-tail rank
        assert sent[0] == 16
        assert sent[3] == 16
        assert sent[7] == 0

    def test_mpich_vdg_large_bcast(self):
        sent = self._messages("dancer", 8, stacks.MPICH2_SM, 2 * MiB)
        # scatter (binomial) + ring allgather: every rank sends ring steps
        assert all(s >= 7 for s in sent)

    def test_knem_delegates_small(self):
        m = Machine.build("dancer")
        job = Job(m, nprocs=8, stack=stacks.KNEM_COLL)

        def prog(proc):
            buf = proc.alloc(8 * KiB, backed=False)
            yield from proc.comm.bcast(buf, 0, 8 * KiB, root=0)
            return proc.pml.sent_messages

        res = job.run(prog)
        assert res.values[0] == 3  # tuned binomial shape
        assert m.knem.stats_registrations == 0


class TestTunedAllgatherSelection:
    def _run(self, nprocs, count, stack=stacks.TUNED_SM):
        m = Machine.build("saturn")
        job = Job(m, nprocs=nprocs, stack=stack)

        def prog(proc):
            send = proc.alloc(count, backed=False)
            recv = proc.alloc(count * proc.comm.size, backed=False)
            yield from proc.comm.allgather(send, recv, count)
            return proc.pml.sent_messages

        return job.run(prog).values

    def test_recursive_doubling_pow2_small(self):
        sent = self._run(8, 16 * KiB)
        assert all(s == 3 for s in sent)  # log2(8) exchanges

    def test_ring_large(self):
        sent = self._run(8, 512 * KiB)
        assert all(s == 7 for s in sent)  # size-1 ring steps

    def test_ring_non_pow2(self):
        sent = self._run(6, 16 * KiB)
        assert all(s == 5 for s in sent)
