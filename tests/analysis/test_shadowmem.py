"""The KNEM-San runtime sanitizer (shadow memory over the live drivers)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.static import KnemSanitizer, SingleCopySanitizer
from repro.errors import KnemInvalidCookie
from repro.hardware.machines import dancer
from repro.hardware.memory import MemorySystem
from repro.kernel.knem import PROT_READ, PROT_WRITE, KnemDriver
from repro.mpi import Job, stacks
from repro.mpi.runtime import Machine
from repro.simtime import Simulator
from repro.units import KiB


@pytest.fixture
def world():
    sim = Simulator()
    mem = MemorySystem(sim, dancer())
    knem = KnemDriver(sim, mem)
    return sim, mem, knem


def _armed(knem) -> KnemSanitizer:
    sanitizer = KnemSanitizer()
    knem.sanitizer = sanitizer
    return sanitizer


def _run(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def _categories(findings):
    return {f.category for f in findings}


class TestKnemSanitizer:
    def test_clean_single_copy_bcast_pattern(self, world):
        sim, mem, knem = world
        sanitizer = _armed(knem)
        src = mem.alloc(64 * 1024, 0)
        dst1 = mem.alloc(64 * 1024, 0)
        dst2 = mem.alloc(64 * 1024, 1)

        def body():
            cookie = yield from knem.create_region(0, src, 0, src.size,
                                                   PROT_READ)
            yield from knem.copy(1, cookie, 0, dst1, 0, src.size,
                                 write=False)
            yield from knem.copy(2, cookie, 0, dst2, 0, src.size,
                                 write=False)
            yield from knem.destroy_region(0, cookie)

        _run(sim, body())
        assert sanitizer.findings == []

    def test_overlapping_writer_windows_flagged(self, world):
        sim, mem, knem = world
        sanitizer = _armed(knem)
        gather = mem.alloc(64 * 1024, 0)
        src1 = mem.alloc(32 * 1024, 0)
        src2 = mem.alloc(32 * 1024, 1)

        def writer(core, local):
            # both cores write [0, 32K) of the same region, concurrently
            yield from knem.copy(core, self_cookie[0], 0, local, 0,
                                 local.size, write=True)

        self_cookie = [None]

        def body():
            cookie = yield from knem.create_region(0, gather, 0, gather.size,
                                                   PROT_WRITE)
            self_cookie[0] = cookie
            p1 = sim.process(writer(1, src1))
            p2 = sim.process(writer(2, src2))
            yield p1
            yield p2
            yield from knem.destroy_region(0, cookie)

        _run(sim, body())
        assert "concurrent-overlap" in _categories(sanitizer.findings)
        overlap = [f for f in sanitizer.findings
                   if f.category == "concurrent-overlap"]
        assert overlap[0].checker == "knemsan"
        # the finding names both offending schedule steps
        assert "step" in overlap[0].message

    def test_disjoint_concurrent_windows_clean(self, world):
        sim, mem, knem = world
        sanitizer = _armed(knem)
        gather = mem.alloc(64 * 1024, 0)
        src1 = mem.alloc(32 * 1024, 0)
        src2 = mem.alloc(32 * 1024, 1)
        cookie_box = [None]

        def writer(core, local, region_off):
            yield from knem.copy(core, cookie_box[0], region_off, local, 0,
                                 local.size, write=True)

        def body():
            cookie = yield from knem.create_region(0, gather, 0, gather.size,
                                                   PROT_WRITE)
            cookie_box[0] = cookie
            p1 = sim.process(writer(1, src1, 0))
            p2 = sim.process(writer(2, src2, 32 * 1024))
            yield p1
            yield p2
            yield from knem.destroy_region(0, cookie)

        _run(sim, body())
        assert sanitizer.findings == []

    def test_destroy_with_copy_in_flight(self, world):
        sim, mem, knem = world
        sanitizer = _armed(knem)
        src = mem.alloc(64 * 1024, 0)
        dst = mem.alloc(64 * 1024, 1)
        cookie_box = [None]

        def copier():
            yield from knem.copy(1, cookie_box[0], 0, dst, 0, dst.size,
                                 write=False)

        def body():
            cookie = yield from knem.create_region(0, src, 0, src.size,
                                                   PROT_READ)
            cookie_box[0] = cookie
            sim.process(copier())
            # destroy immediately: the copy transfer is still in flight
            yield sim.timeout(1e-7)
            knem.reclaim(0, cookie)

        _run(sim, body())
        assert "destroy-during-copy" in _categories(sanitizer.findings)

    def test_driver_rejections_become_findings(self, world):
        sim, mem, knem = world
        sanitizer = _armed(knem)
        src = mem.alloc(4096, 0)
        dst = mem.alloc(4096, 1)

        def body():
            cookie = yield from knem.create_region(0, src, 0, src.size,
                                                   PROT_READ)
            yield from knem.destroy_region(0, cookie)
            try:
                yield from knem.copy(1, cookie, 0, dst, 0, 64, write=False)
            except KnemInvalidCookie:
                pass

        _run(sim, body())
        assert "use-after-invalidate" in _categories(sanitizer.findings)


class TestKnemCollBcast:
    def test_clean_and_correct_on_paper_machines(self, paper_machine):
        count = 96 * KiB  # above KNEM-Coll's delegation threshold
        pattern = (np.arange(count) % 251).astype(np.uint8)

        def program(proc):
            buf = proc.alloc_array(count, "u1")
            if proc.rank == 0:
                buf.array[:] = pattern
            yield from proc.comm.bcast(buf.sim, 0, count, root=0)
            return bool(np.array_equal(buf.array, pattern))

        machine = Machine.build(paper_machine)
        machine.arm_sanitizer(SingleCopySanitizer())
        result = Job(machine, nprocs=8, stack=stacks.KNEM_COLL).run(program)
        assert machine.knem.stats_copies > 0
        assert machine.sanitizer.clean, [
            f.render() for f in machine.sanitizer.findings]
        assert result.values == [True] * 8


class TestFifoSanitizer:
    def _fifo(self):
        machine = Machine.build("dancer")
        sanitizer = SingleCopySanitizer()
        machine.arm_sanitizer(sanitizer)
        fifo = machine.shm.fifo(0, 1)
        return machine, sanitizer, fifo

    def test_fifo_gets_sanitizer_when_armed(self):
        machine, sanitizer, fifo = self._fifo()
        assert fifo.sanitizer is sanitizer.fifo

    def test_double_publish_flagged(self):
        _machine, sanitizer, fifo = self._fifo()
        fifo.sanitizer.note_acquire(fifo, 0)
        fifo.publish(0, 128)
        fifo.publish(0, 128)
        assert "double-publish" in _categories(sanitizer.findings)

    def test_fragment_overflow_flagged(self):
        _machine, sanitizer, fifo = self._fifo()
        fifo.sanitizer.note_acquire(fifo, 0)
        fifo.publish(0, fifo.fragment_size + 1)
        assert "fragment-overflow" in _categories(sanitizer.findings)

    def test_release_unpublished_flagged(self):
        _machine, sanitizer, fifo = self._fifo()
        fifo.release_slot(0)
        assert "release-unpublished" in _categories(sanitizer.findings)

    def test_normal_protocol_clean(self):
        _machine, sanitizer, fifo = self._fifo()
        san = fifo.sanitizer
        san.note_acquire(fifo, 0)
        fifo.publish(0, 64)
        fifo.release_slot(0)
        san.note_acquire(fifo, 0)
        assert sanitizer.clean


class TestZeroCostDisabled:
    def test_machines_start_with_no_sanitizer(self):
        machine = Machine.build("zoot")
        assert machine.sanitizer is None
        assert machine.knem.sanitizer is None
        assert machine.shm.sanitizer is None
        fifo = machine.shm.fifo(0, 1)
        assert fifo.sanitizer is None

    def test_disarm_resets_hooks(self):
        machine = Machine.build("zoot")
        fifo = machine.shm.fifo(0, 1)
        machine.arm_sanitizer(SingleCopySanitizer())
        assert fifo.sanitizer is not None
        machine.arm_sanitizer(None)
        assert machine.knem.sanitizer is None
        assert fifo.sanitizer is None
