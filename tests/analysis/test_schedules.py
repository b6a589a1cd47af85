"""The symbolic schedule model checker (``repro.analysis.static``)."""

from __future__ import annotations

import pytest

from repro.analysis import ERROR
from repro.analysis.static import (
    extract_model,
    verify_model,
    verify_registry,
    verify_schedule,
)
from repro.coll.algorithms import (
    DirectionSpec,
    exported_schedules,
    get_schedule,
)
from repro.kernel.knem import PROT_READ, PROT_WRITE
from repro.simtime import Simulator
from repro.units import KiB


def _categories(findings):
    return {(f.checker, f.category) for f in findings}


@pytest.fixture(autouse=True)
def _no_simulator_run(monkeypatch):
    """The checker must never execute the discrete-event simulator."""

    def boom(self, *args, **kwargs):  # pragma: no cover - failure path
        raise AssertionError("symbolic verification invoked Simulator.run")

    monkeypatch.setattr(Simulator, "run", boom)


class TestRegistry:
    def test_every_component_exports_schedules(self):
        by_component = {}
        for spec in exported_schedules():
            by_component.setdefault(spec.component, []).append(spec.op)
        for component in ("basic", "tuned", "mpich2", "smtree", "knem"):
            assert by_component.get(component), component

    def test_get_schedule_unknown_name(self):
        with pytest.raises(KeyError):
            get_schedule("knem.transmogrify")

    def test_knem_schedules_declare_direction(self):
        assert get_schedule("knem.bcast").direction == "read"
        assert get_schedule("knem.gather").direction == "write"


class TestCleanSchedules:
    @pytest.mark.parametrize("nprocs", [2, 4, 8])
    def test_knem_bcast_clean(self, nprocs):
        result = verify_schedule("knem.bcast", machine="zoot", nprocs=nprocs)
        assert result.clean, [f.render() for f in result.findings]
        assert result.receipts["executions"] >= 1
        assert result.receipts["transitions"] >= result.receipts["steps"] - 1
        assert not result.receipts["bounded"]

    def test_full_registry_clean_on_zoot(self):
        results = verify_registry(machines=("zoot",), sizes=(2, 4, 8))
        dirty = [r for r in results if not r.skipped and not r.clean]
        assert not dirty, [
            (r.name, [f.render() for f in r.findings]) for r in dirty]
        assert len([r for r in results if not r.skipped]) >= 70

    def test_receipts_report_interleaving_bound(self):
        result = verify_schedule("knem.allgather", machine="zoot", nprocs=4)
        assert result.receipts["interleavings_log10"] > 1
        assert result.receipts["regions"] == 2

    def test_oversubscription_is_skipped_with_receipt(self):
        result = verify_schedule("basic.barrier", machine="dancer",
                                 nprocs=16)
        assert result.skipped
        assert "oversubscribe" in result.skipped
        assert result.clean

    def test_variant_runs_apply_tuning_overrides(self):
        base = verify_schedule("knem.gather", machine="zoot", nprocs=4)
        flipped = verify_schedule("knem.gather", machine="zoot", nprocs=4,
                                  variant="root-reads")
        assert base.clean and flipped.clean
        assert base.receipts != flipped.receipts

    def test_multilevel_bcast_on_ig(self):
        result = verify_schedule("knem.bcast", machine="ig", nprocs=16,
                                 variant="multilevel")
        assert result.clean, [f.render() for f in result.findings]


class _OverlapGather:
    """Seeded-bad schedule: every child writes the root window at offset 0."""

    def __init__(self, world):
        self.world = world

    def gather(self, ctx, sendbuf, recvbuf, nbytes, root):
        knem = ctx.machine.knem
        core = ctx.proc.core
        if ctx.rank == root:
            cookie = yield from knem.create_region(
                core, recvbuf, 0, recvbuf.size, PROT_WRITE)
            yield from ctx.send_obj((root + 1) % ctx.size, cookie, phase=1)
            for r in range(ctx.size):
                if r != root:
                    yield from ctx.recv_obj(r, phase=2)
            yield from knem.destroy_region(core, cookie)
        else:
            src = root if ctx.rank == 1 else ctx.rank - 1
            cookie, _st = yield from ctx.recv_obj(src, phase=1)
            if ctx.rank + 1 < ctx.size:
                yield from ctx.send_obj(ctx.rank + 1, cookie, phase=1)
            yield from knem.copy(core, cookie, 0, sendbuf, 0, nbytes,
                                 write=True)
            yield from ctx.send_obj(root, None, phase=2)


class _EarlyDestroyBcast:
    """Seeded-bad schedule: root destroys the cookie without child acks."""

    def __init__(self, world):
        self.world = world

    def bcast(self, ctx, buf, offset, nbytes, root):
        knem = ctx.machine.knem
        core = ctx.proc.core
        if ctx.rank == root:
            cookie = yield from knem.create_region(core, buf, offset,
                                                   nbytes, PROT_READ)
            for r in range(ctx.size):
                if r != root:
                    yield from ctx.send_obj(r, cookie, phase=1)
            yield from ctx.recv_obj(1, phase=2)  # ack from rank 1 only
            yield from knem.destroy_region(core, cookie)
        else:
            cookie, _st = yield from ctx.recv_obj(root, phase=1)
            yield from knem.copy(core, cookie, 0, buf, offset, nbytes,
                                 write=False)
            if ctx.rank == 1:
                yield from ctx.send_obj(root, None, phase=2)


class _CrossRecvBarrier:
    """Seeded-bad schedule: both ranks receive before sending."""

    def __init__(self, world):
        self.world = world

    def barrier(self, ctx):
        peer = 1 - ctx.rank
        buf = ctx.proc.alloc(32 * KiB, label="xchg")
        yield from ctx.recv(peer, buf, 0, 32 * KiB, phase=1)
        yield from ctx.send(peer, buf, 0, 32 * KiB, phase=1)


class TestSeededBadSchedules:
    def test_overlapping_cookie_window_caught(self):
        model = extract_model("basic", "gather", "zoot", 4, nbytes=8 * KiB,
                              coll_factory=_OverlapGather)
        findings, receipts = verify_model(model)
        cats = _categories(findings)
        assert ("race", "write-write-race") in cats
        # the DPOR explorer independently witnesses both orders
        assert ("interleave", "race-witness") in cats
        assert receipts["executions"] > 1  # branching actually happened

    def test_premature_destroy_leaves_window(self):
        model = extract_model("basic", "bcast", "zoot", 3, nbytes=8 * KiB,
                              coll_factory=_EarlyDestroyBcast)
        findings, _receipts = verify_model(model)
        cats = {c for _chk, c in _categories(findings)}
        assert cats & {"use-after-invalidate", "use-after-invalidate-window"}

    def test_cross_recv_deadlock_caught_twice(self):
        model = extract_model("basic", "barrier", "zoot", 2,
                              coll_factory=_CrossRecvBarrier)
        findings, receipts = verify_model(model)
        errors = _categories(f for f in findings if f.severity == ERROR)
        assert ("deadlock", "wait-cycle") in errors  # canonical run wedged
        assert ("interleave", "deadlock") in errors  # ...and DPOR proves it
        assert receipts["deadlocks"] >= 1

    def test_cookie_leak_reported(self):
        class LeakyBcast:
            def __init__(self, world):
                self.world = world

            def bcast(self, ctx, buf, offset, nbytes, root):
                if ctx.rank == root:
                    yield from ctx.machine.knem.create_region(
                        ctx.proc.core, buf, offset, nbytes, PROT_READ)
                yield from ctx.dissemination_barrier()

        model = extract_model("basic", "bcast", "zoot", 2, nbytes=8 * KiB,
                              coll_factory=LeakyBcast)
        findings, _ = verify_model(model)
        assert ("cookie", "leaked-region") in _categories(findings)

    def test_board_read_without_barrier(self):
        class RacyBoard:
            def __init__(self, world):
                self.world = world

            def barrier(self, ctx):
                if ctx.rank == 0:
                    yield from ctx.board_post(41)
                    yield from ctx.dissemination_barrier(phase_base=900)
                else:
                    ctx.board_get(0)  # before any synchronization
                    yield from ctx.dissemination_barrier(phase_base=900)

        model = extract_model("basic", "barrier", "zoot", 2,
                              coll_factory=RacyBoard)
        findings, _ = verify_model(model)
        cats = _categories(findings)
        assert ("board", "board-unsynchronized") in cats \
            or ("symcomm", "extraction-error") in cats

    def test_direction_contract_enforced(self):
        class WritableBcast:
            def __init__(self, world):
                self.world = world

            def bcast(self, ctx, buf, offset, nbytes, root):
                knem = ctx.machine.knem
                core = ctx.proc.core
                if ctx.rank == root:
                    cookie = yield from knem.create_region(
                        core, buf, offset, nbytes,
                        PROT_READ | PROT_WRITE)  # over-permissive
                    for r in range(ctx.size):
                        if r != root:
                            yield from ctx.send_obj(r, cookie, phase=1)
                    for r in range(ctx.size):
                        if r != root:
                            yield from ctx.recv_obj(r, phase=2)
                    yield from knem.destroy_region(core, cookie)
                else:
                    cookie, _st = yield from ctx.recv_obj(root, phase=1)
                    yield from knem.copy(core, cookie, 0, buf, offset,
                                         nbytes, write=False)
                    yield from ctx.send_obj(root, None, phase=2)

        model = extract_model("basic", "bcast", "zoot", 3, nbytes=8 * KiB,
                              coll_factory=WritableBcast)
        findings, _ = verify_model(model, direction=DirectionSpec("read"))
        assert ("direction", "over-permissive-region") in _categories(findings)
