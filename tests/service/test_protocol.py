"""Wire codec, cache-key derivation, and the result store."""

from __future__ import annotations

import dataclasses
import io

import pytest

from repro.bench.harness import verify_journal
from repro.bench.imb import CellStats, ImbSettings
from repro.errors import BenchmarkError
from repro.faults.plan import FaultPlan, FaultRule
from repro.mpi import stacks
from repro.service import protocol
from repro.service.store import ResultStore
from repro.units import KiB, MiB


PLAN = FaultPlan([FaultRule(op="copy", probability=0.5, sticky=True)],
                 seed=99)
SETTINGS = ImbSettings(max_iterations=3, warmups=1, fault_plan=PLAN)


class TestRoundTrips:
    def test_stack_round_trips_with_tuning(self):
        for stack in (stacks.TUNED_SM, stacks.KNEM_COLL):
            again = protocol.decode_stack(protocol.encode_stack(stack))
            assert again == stack

    def test_stack_encoding_equals_asdict(self):
        variant = stacks.KNEM_COLL.with_tuning(name="v", hierarchical=True)
        for stack in (*stacks.ALL_STACKS, stacks.KNEM_COLL_STRICT, variant):
            assert protocol.encode_stack(stack) == dataclasses.asdict(stack)

    def test_cells_carry_each_stack_once(self):
        cells = [(stacks.TUNED_SM, 4096), (stacks.KNEM_COLL, 4096),
                 (stacks.TUNED_SM, 8192)]
        encoded = protocol.encode_cells(cells)
        assert encoded["cells"] == [[0, 4096], [1, 4096], [0, 8192]]
        assert len(encoded["stacks"]) == 2
        decoded, pairs = protocol.decode_cells(encoded)
        assert [(decoded[i], size) for i, size in pairs] == cells

    @pytest.mark.parametrize("cell", [[-1, 4096], [1, 4096], [0.0, 4096],
                                      [True, 4096], ["0", 4096], [0, "4K"],
                                      [0], {"stack": 0, "size": 4096}])
    def test_bad_cells_raise_typed(self, cell):
        frame = {"stacks": [protocol.encode_stack(stacks.TUNED_SM)],
                 "cells": [cell]}
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_cells(frame)

    def test_settings_round_trip_includes_fault_plan(self):
        again = protocol.decode_settings(protocol.encode_settings(SETTINGS))
        assert again.max_iterations == SETTINGS.max_iterations
        assert again.warmups == SETTINGS.warmups
        assert again.fault_plan is not None
        assert again.fault_plan.seed == PLAN.seed
        assert again.fault_plan.rules == PLAN.rules

    def test_settings_round_trip_without_fault_plan(self):
        plain = ImbSettings(max_iterations=1, warmups=0)
        again = protocol.decode_settings(protocol.encode_settings(plain))
        assert again.fault_plan is None

    def test_stats_round_trip_and_none(self):
        stats = CellStats(sim_events=10, process_resumes=2, peak_heap=512,
                          knem_degrades=1)
        assert protocol.decode_stats(protocol.encode_stats(stats)) == stats
        assert protocol.encode_stats(None) is None
        assert protocol.decode_stats(None) is None

    def test_malformed_payloads_raise_typed(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_stack({"name": "half-a-stack"})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_stack({**protocol.encode_stack(stacks.TUNED_SM),
                                   "inline_limit": -1})
        bad_plan = protocol.encode_settings(SETTINGS)
        bad_plan["fault_plan"]["rules"][0]["op"] = "no-such-op"
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_settings(bad_plan)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_settings({"warmups": 0})
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_stats({"not_a_field": 1})


class TestCacheKey:
    CTX = ("dancer", "bcast", 4, SETTINGS)

    def key(self, stack=stacks.TUNED_SM, size=4096, ctx=None):
        machine, op, nprocs, settings = ctx or self.CTX
        return protocol.cache_key(machine, op, nprocs, settings, stack, size)

    def test_deterministic(self):
        assert self.key() == self.key()
        assert len(self.key()) == 32  # blake2b-128 hex

    def test_every_input_is_part_of_the_identity(self):
        base = self.key()
        assert self.key(size=8192) != base
        assert self.key(stack=stacks.KNEM_COLL) != base
        assert self.key(ctx=("zoot", "bcast", 4, SETTINGS)) != base
        assert self.key(ctx=("dancer", "gather", 4, SETTINGS)) != base
        assert self.key(ctx=("dancer", "bcast", 8, SETTINGS)) != base
        other = ImbSettings(max_iterations=3, warmups=1,
                            fault_plan=FaultPlan(PLAN.rules, seed=100))
        assert self.key(ctx=("dancer", "bcast", 4, other)) != base

    def test_fingerprint_is_canonical(self):
        a = protocol.context_fingerprint(*self.CTX)
        b = protocol.context_fingerprint(*self.CTX)
        assert a == b


BENCH = ImbSettings(max_iterations=1, warmups=0)
STALLS = ImbSettings(max_iterations=3, warmups=1, fault_plan=FaultPlan(
    [FaultRule(op="copy", probability=0.5, sticky=True),
     FaultRule(op="rank.stall", core=3, delay=2e-06, at_time=1e-05)],
    seed=99))
SEG4K = stacks.KNEM_COLL.with_tuning(
    name="KNEM-Coll-seg4K", pipeline_seg_intermediate=4 * KiB,
    hierarchical=False)


@pytest.mark.parametrize("cell, digest", [
    (("dancer", "bcast", 8, BENCH, stacks.TUNED_SM, 32 * KiB),
     "47ff4bb504718fbfa286988f238cae19"),
    (("ig", "gather", 48, BENCH, stacks.KNEM_COLL, 2 * MiB),
     "50bc4b77465fe261b2d6f22e2ca26a5a"),
    (("zoot", "bcast", 16, BENCH, SEG4K, 128 * KiB),
     "a0608d035bc4604ce3369d9823f17bad"),
    (("saturn", "alltoallv", 16, STALLS, stacks.MPICH2_KNEM, 512 * KiB),
     "70e582687a7c0b209cf3086c352ed4da"),
    (("zoot", "scatter", 16, STALLS, stacks.KNEM_COLL_STRICT, 64 * KiB),
     "9aef3a09701389f08a5015ca337fd4df"),
    (("dancer", "allgather", 8, ImbSettings(), stacks.TUNED_KNEM, 4096),
     "8a6cdd0af453d21f49986cb656b516fe"),
])
def test_cache_key_digests_are_pinned(cell, digest):
    """Digests of existing cache journals: a changed byte turns them cold."""
    assert protocol.cache_key(*cell) == digest


class TestAddressAndFrames:
    def test_tcp_addresses(self):
        assert protocol.parse_address("127.0.0.1:7000") == \
            ("tcp", "127.0.0.1", 7000)
        assert protocol.parse_address(":0") == ("tcp", "127.0.0.1", 0)

    def test_unix_addresses(self):
        assert protocol.parse_address("/tmp/x/sweep.sock") == \
            ("unix", "/tmp/x/sweep.sock")
        assert protocol.parse_address("sweep.sock") == ("unix", "sweep.sock")

    def test_bad_address_raises_typed(self):
        with pytest.raises(BenchmarkError):
            protocol.parse_address("nonsense")

    def test_frame_round_trip(self):
        frame = {"op": "ping", "id": 3}
        line = protocol.format_frame(frame)
        assert line.endswith(b"\n")
        assert protocol.parse_frame(line) == frame

    def test_bad_frames_raise_typed(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_frame(b"not json\n")
        with pytest.raises(protocol.ProtocolError):
            protocol.parse_frame(b'{"no": "op"}\n')

    def test_read_frames_skips_blank_lines(self):
        raw = (protocol.format_frame({"op": "a"}) + b"\n" +
               protocol.format_frame({"op": "b"}))
        ops = [f["op"] for f in protocol.read_frames(io.BytesIO(raw))]
        assert ops == ["a", "b"]


class TestResultStore:
    def test_memory_only(self):
        with ResultStore() as store:
            assert store.get("k") is None
            store.put("k", 1.5)
            assert store.get("k") == 1.5
            assert store.counters()["hits"] == 1
            assert store.counters()["misses"] == 1
            assert store.counters()["durable"] is True  # nothing to lose

    def test_durable_across_reopen(self, tmp_path):
        path = str(tmp_path / "cache.checkpoint.json")
        with ResultStore(path) as store:
            store.put("aa", 0.25)
            store.put("bb", 0.5)
        with ResultStore(path) as store:
            assert len(store) == 2
            assert store.get("aa") == 0.25
            assert store.counters()["durable"] is True

    def test_corrupt_record_is_a_cache_miss_not_an_error(self, tmp_path):
        path = str(tmp_path / "cache.checkpoint.json")
        with ResultStore(path) as store:
            store.put("aa", 0.25)
            store.put("bb", 0.5)
            store.put("cc", 0.75)
        raw = open(path).read().splitlines()
        raw[2] = raw[2].replace('"t"', '"x"')  # interior record, corrupted
        open(path, "w").write("\n".join(raw) + "\n")
        with ResultStore(path) as store:
            assert store.recovered_dropped == 1
            assert len(store) == 2
        # ... and the compaction rewrite healed the journal on disk.
        assert verify_journal(path).ok

    def test_second_store_on_one_path_is_refused(self, tmp_path):
        path = str(tmp_path / "cache.checkpoint.json")
        with ResultStore(path):
            with pytest.raises(BenchmarkError, match="locked"):
                ResultStore(path)

    def test_foreign_journal_is_refused(self, tmp_path):
        path = str(tmp_path / "sweep.checkpoint.json")
        with open(path, "w") as fh:
            fh.write('{"format": 3, "header": {"experiment": "fig5"}}\n')
        with pytest.raises(BenchmarkError, match="not a service cache"):
            ResultStore(path)
