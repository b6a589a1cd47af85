"""Asyncio transport of the sweep service.

One :class:`SweepServer` multiplexes any number of concurrent clients
over TCP (``host:port``) or a unix-domain socket.  The transport layer
does no simulation work itself: for each requested cell it either
answers from the :class:`~repro.service.store.ResultStore` (a cache
hit), attaches to an already-in-flight computation of the same cache
key (two clients asking for one cell cost one simulation), or submits a
:class:`~repro.service.runner.ComputeJob` to the pool runner thread.
Every frame it can answer without computing — the cache hits, and
``end`` when nothing is left to compute — goes out in one socket write;
computed results then stream back in completion order — exactly the
contract :func:`~repro.bench.executor.run_cells` gives the in-process
parallel path, so the client journals them the same way.

The scheduler state (``_inflight`` futures) lives on the event loop and
is only touched from it; the runner marshals completions back with
``call_soon_threadsafe``.  Shutdown order matters: transport first (no
new work), then the runner (drains the pool), then the store (releases
the cache journal lease).
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from typing import IO, Optional

from repro.bench.chunking import CellAborted
from repro.errors import BenchmarkError
from repro.service import protocol
from repro.service.runner import ComputeJob, PoolRunner
from repro.service.store import ResultStore

__all__ = ["SweepServer", "ServerHandle", "start_in_thread", "serve"]


class SweepServer:
    """The persistent sweep server (scheduler + glue over store/runner)."""

    def __init__(self, jobs: int = 0, cache_path: Optional[str] = None,
                 log: Optional[IO[str]] = None):
        self.store = ResultStore(cache_path)
        self.runner = PoolRunner(jobs=jobs)
        self._inflight: dict[str, asyncio.Future] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._clients: set[asyncio.Task] = set()   # connection handlers
        self._log_fh = log
        self.address: Optional[str] = None
        self.requests = 0
        self.cells_served = 0
        self.cache_hits = 0
        self.dedup_hits = 0
        self.writes = 0

    # -- lifecycle ---------------------------------------------------------

    async def start(self, address: str) -> str:
        """Bind and start serving; returns the actual bound address
        (``host:0`` picks a free port — the return value names it)."""
        kind = protocol.parse_address(address)
        self.runner.start()
        if kind[0] == "unix":
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=kind[1])
            self.address = kind[1]
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=kind[1], port=kind[2])
            host, port = self._server.sockets[0].getsockname()[:2]
            self.address = f"{host}:{port}"
        self._log(f"listening on {self.address} "
                  f"(cache: {self.store.path or 'memory'})")
        return self.address

    async def stop(self) -> None:
        """Transport, then runner, then store — in that order.

        The transport step closes the listener and then every client
        connection, idle or mid-request; each handler takes its
        cancellation as a normal close.
        """
        if self._server is not None:
            self._server.close()
            clients = list(self._clients)
            for task in clients:
                task.cancel()
            await asyncio.gather(*clients, return_exceptions=True)
            await self._server.wait_closed()
            self._server = None
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.runner.stop)
        self._log(f"stopped ({self.counters()})")
        self.store.close()

    def counters(self) -> dict:
        return {
            "requests": self.requests,
            "cells_served": self.cells_served,
            "cache_hits": self.cache_hits,
            "dedup_hits": self.dedup_hits,
            "writes": self.writes,
            "cells_computed": self.runner.cells_computed,
            "pool_batches": self.runner.batches,
            "store": self.store.counters(),
        }

    def _log(self, msg: str) -> None:
        if self._log_fh is None:
            return
        stamp = time.strftime("%H:%M:%S")
        try:
            self._log_fh.write(f"[{stamp}] {msg}\n")
            self._log_fh.flush()
        except OSError:  # pragma: no cover - log disk full
            self._log_fh = None

    # -- scheduler ---------------------------------------------------------

    def _resolve(self, key: str, fut: asyncio.Future, outcome) -> None:
        """Runner completion, marshalled onto the loop.  The outcome is
        stored as the future's *result* whatever it is (tuple, abort, or
        exception) — a client that disconnected before retrieving an
        exception-valued future must not trip the never-retrieved
        warning."""
        self._inflight.pop(key, None)
        if not fut.done():
            fut.set_result(outcome)
        if isinstance(outcome, tuple):
            self.store.put(key, outcome[0])

    def _lookup(self, key: str):
        """``("hit", t)`` | ``("wait", fut)`` | ``("compute", fut)``."""
        t = self.store.get(key)
        if t is not None:
            self.cache_hits += 1
            return ("hit", t)
        fut = self._inflight.get(key)
        if fut is not None:
            self.dedup_hits += 1
            return ("wait", fut)
        loop = asyncio.get_running_loop()
        fut = loop.create_future()
        self._inflight[key] = fut
        return ("compute", fut)

    # -- transport ---------------------------------------------------------

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None  # stream handlers always run as tasks
        self._clients.add(task)
        try:
            while True:
                line = await reader.readline()
                if not line:
                    return
                if not line.strip():
                    continue
                try:
                    frame = protocol.parse_frame(line)
                    op = frame["op"]
                    if op == "ping":
                        await self._write(writer, [{
                            "op": "pong", "counters": self.counters()}])
                    elif op == "sweep":
                        await self._handle_sweep(frame, writer)
                    else:
                        raise protocol.ProtocolError(f"unknown op {op!r}")
                except (protocol.ProtocolError, BenchmarkError) as err:
                    self._log(f"request error: {err}")
                    await self._write(writer, [{
                        "op": "error", "id": frame.get("id")
                        if isinstance(frame, dict) else None,
                        "message": str(err)}])
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # client went away mid-stream; nothing to unwind
        except asyncio.CancelledError:
            pass  # server stopping: close this connection like any other
        finally:
            self._clients.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _write(self, writer: asyncio.StreamWriter,
                     frames: list[dict]) -> None:
        """One socket write (and drain) carrying ``frames``, if any."""
        if frames:
            self.writes += 1
            writer.write(b"".join(map(protocol.format_frame, frames)))
            await writer.drain()

    async def _handle_sweep(self, frame: dict,
                            writer: asyncio.StreamWriter) -> None:
        self.requests += 1
        req_id = frame.get("id")
        try:
            machine = frame["machine"]
            operation = frame["operation"]
            nprocs = frame["nprocs"]
            settings = protocol.decode_settings(frame["settings"])
        except KeyError as err:
            raise protocol.ProtocolError(
                f"sweep frame without {err}") from err
        ctx_token = protocol.context_fingerprint(
            machine, operation, nprocs, settings)
        stacks, cells = protocol.decode_cells(frame)
        stack_tokens = [protocol.stack_fingerprint(s) for s in stacks]
        self._log(f"sweep #{self.requests}: {len(cells)} cell(s) of "
                  f"{operation} on {machine} x{nprocs}")
        hits = 0
        ready: list[dict] = []   # frames answerable now, sent in one write
        waits = []
        for index, size in cells:
            stack = stacks[index]
            label = f"{stack.name}|{size}"
            key = protocol.cell_key(ctx_token, stack_tokens[index], size)
            state, value = self._lookup(key)
            if state == "hit":
                hits += 1
                ready.append({
                    "op": "cell", "id": req_id, "key": label, "t": value,
                    "cached": True, "stats": None})
                continue
            if state == "compute":
                loop = asyncio.get_running_loop()

                def make_done(key=key, fut=value):
                    def done(outcome):
                        loop.call_soon_threadsafe(
                            self._resolve, key, fut, outcome)
                    return done

                self.runner.submit(ComputeJob(
                    key=key, ctx_token=ctx_token, machine=machine,
                    operation=operation, nprocs=nprocs, settings=settings,
                    stack=stack, size=size, done=make_done()))
            waits.append((label, value))

        async def settle(label: str, fut: asyncio.Future):
            return label, await asyncio.shield(fut)

        if waits:
            # The hits go out before anything blocks on a computation.
            await self._write(writer, ready)
            ready = []
        for settled in asyncio.as_completed(
                [settle(label, fut) for label, fut in waits]):
            label, outcome = await settled
            if isinstance(outcome, tuple):
                t, stats = outcome
                await self._write(writer, [{
                    "op": "cell", "id": req_id, "key": label, "t": t,
                    "cached": False,
                    "stats": protocol.encode_stats(stats)}])
            elif isinstance(outcome, CellAborted):
                await self._write(writer, [{
                    "op": "abort", "id": req_id, "key": label,
                    "deaths": outcome.deaths, "reason": outcome.reason}])
            else:
                self._log(f"cell {label} failed: {outcome!r}")
                await self._write(writer, [{
                    "op": "cell_error", "id": req_id, "key": label,
                    "message": str(outcome)}])
        self.cells_served += len(cells)
        ready.append({"op": "end", "id": req_id, "cells": len(cells),
                      "cache_hits": hits})
        await self._write(writer, ready)


# -- embedding helpers -------------------------------------------------------

class ServerHandle:
    """A server running on its own event-loop thread (tests, CLI spawn)."""

    def __init__(self, server: SweepServer, loop: asyncio.AbstractEventLoop,
                 thread: threading.Thread, address: str):
        self.server = server
        self._loop = loop
        self._thread = thread
        self.address = address

    def counters(self) -> dict:
        return self.server.counters()

    def stop(self) -> None:
        """Stop the server and join its loop thread (idempotent)."""
        if self._thread is None:
            return
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self._loop).result(timeout=60.0)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()
        self._thread = None

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def start_in_thread(address: str = "127.0.0.1:0", *, jobs: int = 0,
                    cache_path: Optional[str] = None,
                    log: Optional[IO[str]] = None) -> ServerHandle:
    """Start a :class:`SweepServer` on a fresh daemon event-loop thread.

    Returns once the socket is bound; ``handle.address`` carries the real
    port when ``:0`` asked for an ephemeral one.
    """
    started = threading.Event()
    holder: dict = {}

    def run() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        try:
            server = SweepServer(jobs=jobs, cache_path=cache_path, log=log)
            holder["address"] = loop.run_until_complete(
                server.start(address))
            holder["loop"] = loop
            holder["server"] = server
        except BaseException as err:  # surface bind/store errors to caller
            holder["error"] = err
            loop.close()
            return
        finally:
            started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, name="repro-sweep-server",
                              daemon=True)
    thread.start()
    started.wait(timeout=30.0)
    if "error" in holder:
        raise holder["error"]
    if "server" not in holder:
        raise BenchmarkError("sweep server failed to start in time")
    return ServerHandle(holder["server"], holder["loop"], thread,
                        holder["address"])


def serve(address: str, *, jobs: int = 0, cache_path: Optional[str] = None,
          log: Optional[IO[str]] = None) -> int:
    """Run a sweep server in the foreground until interrupted.

    The ``python -m repro.bench --serve`` entry point.  SIGTERM and
    Ctrl-C set a loop-level stop event rather than raising into whatever
    task happens to be running, so the server unwinds through the normal
    stop path (transport → runner/pool → store) and the cache journal ends
    on a complete record.
    """

    async def main() -> None:
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, stop.set)
        server = SweepServer(jobs=jobs, cache_path=cache_path, log=log)
        bound = await server.start(address)
        print(f"sweep server listening on {bound}", flush=True)
        try:
            await stop.wait()
        finally:
            await server.stop()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass  # Ctrl-C before the loop installed its handlers
    return 0
