"""Service-level equivalence: served sweeps ARE local sweeps, byte for byte.

The acceptance suite for the sweep service: serial, warm-pool-parallel,
and served runs of one grid must produce byte-identical CSVs; a repeat
sweep against a warm server must be answered entirely from the
content-addressed cache without touching the compute path; two
concurrent clients with overlapping grids must cost exactly one
simulation per unique cell; and a durable cache must survive a server
restart.
"""

from __future__ import annotations

import multiprocessing
import threading

import pytest

from repro.bench.harness import run_sweep
from repro.bench.imb import ImbSettings
from repro.errors import BenchmarkError
from repro.mpi import stacks
from repro.service.client import ServiceClient
from repro.service.server import start_in_thread
from repro.units import KiB

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="warm-pool paths need the fork start method")

SETTINGS = ImbSettings(max_iterations=1, warmups=0)
GRID = dict(
    machine="dancer", operation="bcast", nprocs=4,
    stacks=[stacks.TUNED_SM, stacks.KNEM_COLL],
    sizes=[32 * KiB, 128 * KiB], settings=SETTINGS)
N_CELLS = 4


def sweep(experiment="svc", **overrides):
    return run_sweep(experiment=experiment, **{**GRID, **overrides})


def times(result):
    return {s.name: dict(s.times) for s in result.series}


@pytest.fixture(scope="module")
def serial():
    return sweep()


class TestEquivalence:
    def test_served_equals_serial_byte_identical_csv(self, serial, tmp_path):
        with start_in_thread(jobs=1) as handle:
            served = sweep(service=handle.address)
        assert times(served) == times(serial)
        a = serial.to_csv(str(tmp_path / "serial.csv"))
        b = served.to_csv(str(tmp_path / "served.csv"))
        assert open(a, "rb").read() == open(b, "rb").read()
        assert served.stats.service_cells == N_CELLS
        assert served.stats.service_cache_hits == 0  # cold server

    @needs_fork
    def test_serial_parallel_served_all_identical(self, serial, tmp_path):
        parallel = sweep(parallel=2)
        with start_in_thread(jobs=2) as handle:
            served = sweep(service=handle.address)
        assert times(parallel) == times(serial)
        assert times(served) == times(serial)
        paths = [r.to_csv(str(tmp_path / f"{n}.csv"))
                 for n, r in (("serial", serial), ("parallel", parallel),
                              ("served", served))]
        blobs = {open(p, "rb").read() for p in paths}
        assert len(blobs) == 1

    def test_repeat_sweep_is_all_cache_hits_without_computing(self, serial):
        with start_in_thread(jobs=1) as handle:
            first = sweep(service=handle.address)
            computed = handle.counters()["cells_computed"]
            batches = handle.counters()["pool_batches"]
            again = sweep(service=handle.address)
            after = handle.counters()
        assert times(first) == times(serial)
        assert times(again) == times(serial)
        assert computed == N_CELLS
        # The repeat touched neither the runner nor the pool: same compute
        # and batch counters, and every cell arrived flagged as cached.
        assert after["cells_computed"] == computed
        assert after["pool_batches"] == batches
        assert after["cache_hits"] == N_CELLS
        assert again.stats.service_cache_hits == N_CELLS

    def test_concurrent_clients_overlap_costs_one_simulation_per_cell(
            self, serial):
        # Client A sweeps {32K, 64K}, client B {64K, 128K}: the 64K column
        # overlaps.  Whichever client gets there second must be answered
        # from the cache or by attaching to the in-flight computation —
        # never by a second simulation of the same cell.
        grids = ([32 * KiB, 64 * KiB], [64 * KiB, 128 * KiB])
        unique = 3 * len(GRID["stacks"])
        total = 4 * len(GRID["stacks"])
        results: dict[int, object] = {}

        with start_in_thread(jobs=1) as handle:
            def client(idx, sizes):
                results[idx] = sweep(service=handle.address, sizes=sizes)

            threads = [threading.Thread(target=client, args=(i, g))
                       for i, g in enumerate(grids)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            counters = handle.counters()

        assert len(results) == 2
        for idx, sizes in enumerate(grids):
            local = sweep(sizes=sizes)
            assert times(results[idx]) == times(local)
        assert counters["cells_computed"] == unique
        assert counters["cells_served"] == total
        assert (counters["cache_hits"] + counters["dedup_hits"]
                == total - unique)

    def test_restart_persists_the_durable_cache(self, serial, tmp_path):
        cache = str(tmp_path / "cache.checkpoint.json")
        with start_in_thread(jobs=1, cache_path=cache) as handle:
            warm = sweep(service=handle.address)
        # Server gone; a fresh one on the same journal starts warm.
        with start_in_thread(jobs=1, cache_path=cache) as handle:
            revived = sweep(service=handle.address)
            counters = handle.counters()
        assert times(warm) == times(serial)
        assert times(revived) == times(serial)
        assert counters["cells_computed"] == 0
        assert revived.stats.service_cache_hits == N_CELLS
        assert counters["store"]["entries"] == N_CELLS


class TestCliConnect:
    def test_connected_cli_writes_the_in_process_csv(self, tmp_path,
                                                     monkeypatch):
        # The CLI's --connect path, run twice against one server: both
        # runs write the in-process run's CSV bytes, and the second is
        # answered from the cache without computing a cell.
        from repro.bench.cli import main

        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        csv_path = tmp_path / "fig5_dancer.csv"
        argv = ["fig5", "--machine", "dancer", "--scale", "smoke", "--csv"]
        assert main(argv) == 0
        local = csv_path.read_bytes()
        n_cells = 10  # 5 stacks x 2 smoke sizes
        computed = []
        with start_in_thread(jobs=1) as handle:
            for _ in range(2):
                csv_path.unlink()
                assert main(argv + ["--connect", handle.address]) == 0
                assert csv_path.read_bytes() == local
                computed.append(handle.counters()["cells_computed"])
            counters = handle.counters()
        assert computed == [n_cells, n_cells]
        assert counters["cells_served"] == 2 * n_cells
        assert counters["cache_hits"] == n_cells


class TestTransport:
    def test_ping_reports_counters(self):
        with start_in_thread(jobs=1) as handle:
            with ServiceClient(handle.address) as client:
                counters = client.ping()
        assert counters["requests"] == 0
        assert "store" in counters

    def test_unix_socket_transport(self, serial, tmp_path):
        sock = str(tmp_path / "sweep.sock")
        with start_in_thread(sock, jobs=1) as handle:
            assert handle.address == sock
            served = sweep(service=sock)
        assert times(served) == times(serial)

    def test_server_side_cell_error_raises_typed_client_side(self):
        with start_in_thread(jobs=1) as handle:
            with pytest.raises(BenchmarkError, match="unknown machine"):
                sweep(service=handle.address, machine="nehalem")

    def test_service_events_feed_the_trace_model(self, serial):
        with start_in_thread(jobs=1) as handle:
            sweep(service=handle.address)           # populate the cache
            again = sweep(service=handle.address)   # all cache hits
        kinds = [ev.category for ev in again.stats.events]
        assert kinds.count("service.request") == 1
        assert kinds.count("service.cache_hit") == N_CELLS
        hit = next(ev for ev in again.stats.events
                   if ev.category == "service.cache_hit")
        assert hit.fields["cell"] in {f"{s.name}|{size}"
                                      for s in GRID["stacks"]
                                      for size in GRID["sizes"]}

    def test_connecting_to_a_dead_server_raises_typed(self, serial):
        with start_in_thread(jobs=1) as handle:
            address = handle.address
        with pytest.raises((BenchmarkError, OSError)):
            sweep(service=address)
