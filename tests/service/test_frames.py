"""The sweep request shape and the server's writes, frame by frame.

A request carries each distinct stack once; the server answers every
frame it can without computing (cache hits, and ``end`` when nothing is
left to compute) in one socket write and streams computed cells after
it.  Malformed requests get a typed ``error`` frame on a connection that
keeps serving.
"""

from __future__ import annotations

import socket
import threading

from repro.bench.imb import ImbSettings
from repro.mpi import stacks
from repro.service import protocol
from repro.service.client import ServiceClient
from repro.service.server import start_in_thread
from repro.service.store import ResultStore
from repro.units import KiB

SETTINGS = ImbSettings(max_iterations=1, warmups=0)
CTX = ("dancer", "bcast", 4, SETTINGS)


def sweep_frame(req_id: int, cells) -> dict:
    machine, operation, nprocs, settings = CTX
    return {"op": "sweep", "id": req_id, "machine": machine,
            "operation": operation, "nprocs": nprocs,
            "settings": protocol.encode_settings(settings),
            **protocol.encode_cells(cells)}


def fill_cache(path: str, cells) -> dict:
    """Journal a time for each cell, as an earlier server would have."""
    times = {}
    with ResultStore(path) as store:
        for i, (stack, size) in enumerate(cells):
            times[f"{stack.name}|{size}"] = 1.0 + i
            store.put(protocol.cache_key(*CTX, stack, size), 1.0 + i)
    return times


class Connection:
    """One raw client connection, frame in, frames out."""

    def __init__(self, address: str):
        host, port = address.rsplit(":", 1)
        self.sock = socket.create_connection((host, int(port)), timeout=120)
        self.fh = self.sock.makefile("rwb")

    def send(self, frame: dict) -> None:
        self.fh.write(protocol.format_frame(frame))
        self.fh.flush()

    def receive(self) -> dict:
        return protocol.parse_frame(self.fh.readline())

    def until_end(self) -> list[dict]:
        frames = [self.receive()]
        while frames[-1]["op"] not in ("end", "error"):
            frames.append(self.receive())
        return frames

    def close(self) -> None:
        self.fh.close()
        self.sock.close()


def test_all_hit_request_costs_one_write(tmp_path):
    cells = [(stack, size)
             for stack in (stacks.TUNED_SM, stacks.KNEM_COLL)
             for size in (4 * KiB, 8 * KiB, 16 * KiB, 32 * KiB, 64 * KiB)]
    cache = str(tmp_path / "cache.checkpoint.json")
    want = fill_cache(cache, cells)
    with start_in_thread(jobs=1, cache_path=cache) as handle:
        before = handle.counters()["writes"]
        got = list(ServiceClient(handle.address).sweep(*CTX, cells))
        counters = handle.counters()
    assert {r.key: r.t for r in got} == want
    assert all(r.cached for r in got)
    assert counters["writes"] - before == 1
    assert counters["cells_computed"] == 0


def test_mixed_request_writes_hits_once_then_each_computed_cell(tmp_path):
    hit = [(stacks.TUNED_SM, 32 * KiB), (stacks.KNEM_COLL, 32 * KiB)]
    miss = [(stacks.TUNED_SM, 128 * KiB), (stacks.KNEM_COLL, 128 * KiB)]
    cache = str(tmp_path / "cache.checkpoint.json")
    fill_cache(cache, hit)
    with start_in_thread(jobs=1, cache_path=cache) as handle:
        conn = Connection(handle.address)
        try:
            before = handle.counters()["writes"]
            conn.send(sweep_frame(7, [miss[0], *hit, miss[1]]))
            frames = conn.until_end()
            writes = handle.counters()["writes"] - before
        finally:
            conn.close()
    assert [f["op"] for f in frames] == ["cell"] * 4 + ["end"]
    assert [f["cached"] for f in frames[:4]] == [True, True, False, False]
    assert {f["key"] for f in frames[2:4]} == {
        f"{stack.name}|{size}" for stack, size in miss}
    assert frames[-1] == {"op": "end", "id": 7, "cells": 4, "cache_hits": 2}
    # one write for both hits, one per computed cell, one for end
    assert writes == 1 + len(miss) + 1


def test_malformed_requests_get_typed_errors_and_the_connection_serves():
    old_shape = {**sweep_frame(1, []), "cells": [
        {"stack": protocol.encode_stack(stacks.TUNED_SM), "size": 4096}]}
    del old_shape["stacks"]
    bad = [old_shape] + [
        {**sweep_frame(2 + i, [(stacks.TUNED_SM, 4096)]),
         "cells": [[index, 4096]]}
        for i, index in enumerate((-1, 1, 0.0, True))]
    bad.append({"op": "sweep", "id": 6})
    with start_in_thread(jobs=1) as handle:
        conn = Connection(handle.address)
        try:
            replies = []
            for frame in bad:
                conn.send(frame)
                replies.append(conn.receive())
            conn.send({"op": "ping"})
            pong = conn.receive()
        finally:
            conn.close()
    for frame, reply in zip(bad, replies):
        assert reply["op"] == "error" and reply["id"] == frame["id"]
    assert "'stacks' list" in replies[0]["message"]
    assert "names stack -1" in replies[1]["message"]
    assert pong["op"] == "pong"
    assert pong["counters"]["cells_served"] == 0
    assert pong["counters"]["cells_computed"] == 0


def test_client_sends_one_stack_at_several_sizes_once(tmp_path):
    """The request a ServiceClient writes, read off the socket."""
    path = str(tmp_path / "capture.sock")
    listener = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    listener.bind(path)
    listener.listen(1)
    captured: dict = {}

    def answer_once() -> None:
        conn, _ = listener.accept()
        with conn, conn.makefile("rwb") as fh:
            captured.update(protocol.parse_frame(fh.readline()))
            fh.write(protocol.format_frame({
                "op": "end", "id": captured["id"], "cells": 0,
                "cache_hits": 0}))
            fh.flush()

    server = threading.Thread(target=answer_once, daemon=True)
    server.start()
    try:
        sizes = [4 * KiB, 32 * KiB, 256 * KiB, 2048 * KiB]
        list(ServiceClient(path).sweep(
            *CTX, [(stacks.KNEM_COLL, size) for size in sizes]))
        server.join(timeout=30)
    finally:
        listener.close()
    assert not server.is_alive()
    assert captured["stacks"] == [protocol.encode_stack(stacks.KNEM_COLL)]
    assert captured["cells"] == [[0, size] for size in sizes]
