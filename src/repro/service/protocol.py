"""Wire format and cache-key derivation for the sweep service.

Transport is newline-delimited JSON ("NDJSON"): one frame per line, each
frame a JSON object with an ``op`` discriminator.  NDJSON keeps the
protocol inspectable with ``nc`` and the reader trivially incremental —
the same property the format-3 journal exploits — and every value that
crosses the wire is built from frozen dataclasses of primitives, so the
codec reads fields out and reconstructs them, with no pickle.

Client → server frames::

    {"op": "sweep", "id": N, "machine": ..., "operation": ..., "nprocs": ...,
     "settings": {...}, "stacks": [{...}, ...],
     "cells": [[stack_index, size], ...]}
    {"op": "ping"}

A sweep frame carries each distinct stack once; every cell names its
stack by position in ``stacks``.  A frame in any other shape, or a cell
whose index is not an integer in ``range(len(stacks))``, is answered
with an ``error`` frame (a negative index never wraps).

Server → client frames::

    {"op": "cell",  "id": N, "key": "stack|size", "t": ..., "cached": bool,
     "stats": {...} | null}
    {"op": "abort", "id": N, "key": ..., "deaths": ..., "reason": ...}
    {"op": "cell_error", "id": N, "key": ..., "message": ...}
    {"op": "end",   "id": N, "cells": ..., "cache_hits": ...}
    {"op": "error", "id": N | null, "message": ...}
    {"op": "pong",  "counters": {...}}

The server sends every frame it can answer without computing — all
cache hits, and ``end`` when nothing is left to compute — in one socket
write; computed cells follow one write each, in completion order, and
then ``end``.

The **cache key** is the content address of one sweep cell: a blake2b
digest over the canonical JSON of the cell's inputs as the request names
them — machine name, operation, nprocs, the measurement settings, the
full stack (tuning included), the message size, and the fault plan
(whose seed covers the "seed" of the cell identity).  It covers the
machine by *name* only: not the ``MachineSpec`` or cost values behind
that name, and not the model source, so a cache filled before a model
change still answers after it (ROADMAP, "Content-address the model").
It promotes the journal's per-record blake2b integrity key into an
*identity* key: the server's result cache is a format-3 journal whose
cell keys are these digests, so every cached entry is both
content-addressed and checksummed with the same primitive.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, fields
from typing import IO, Any, Optional, Sequence

from repro.bench.imb import CellStats, ImbSettings
from repro.coll.tuning import Tuning
from repro.errors import BenchmarkError, MpiError
from repro.faults.plan import FaultPlan, FaultRule
from repro.mpi.stacks import Stack

__all__ = ["cache_key", "cell_key", "context_fingerprint",
           "stack_fingerprint", "encode_stack", "decode_stack",
           "encode_cells", "decode_cells", "encode_settings",
           "decode_settings", "encode_stats", "decode_stats",
           "parse_address", "format_frame", "parse_frame", "read_frames",
           "ProtocolError"]


class ProtocolError(BenchmarkError):
    """A malformed or out-of-protocol frame."""


# -- dataclass round-trips ---------------------------------------------------

_STACK_FIELDS = tuple(f.name for f in fields(Stack) if f.name != "tuning")
_TUNING_FIELDS = tuple(f.name for f in fields(Tuning))


def encode_stack(stack: Stack) -> dict:
    """A :class:`Stack` (tuning included) as a JSON-able dict.

    Reads the frozen fields directly: every field of both classes is a
    primitive, so the recursive deep copy of ``asdict`` would return the
    same dict at about ten times the cost.
    """
    data = {name: getattr(stack, name) for name in _STACK_FIELDS}
    tuning = stack.tuning
    data["tuning"] = {name: getattr(tuning, name) for name in _TUNING_FIELDS}
    return data


def decode_stack(data: dict) -> Stack:
    try:
        return Stack(**{**data, "tuning": Tuning(**data["tuning"])})
    except (KeyError, TypeError, MpiError) as err:
        raise ProtocolError(f"bad stack on the wire: {err}") from err


def encode_cells(cells: Sequence[tuple[Stack, int]]) -> dict:
    """The ``stacks`` and ``cells`` of a sweep frame for ``(stack, size)``
    cells: each distinct stack once, each cell ``[stack index, size]``."""
    index: dict[Stack, int] = {}
    pairs = [[index.setdefault(stack, len(index)), size]
             for stack, size in cells]
    return {"stacks": [encode_stack(stack) for stack in index],
            "cells": pairs}


def decode_cells(frame: dict) -> tuple[list[Stack], list[tuple[int, int]]]:
    """A sweep frame's distinct stacks and its ``(stack index, size)``
    cells, every index checked against the stack list."""
    stacks, cells = frame.get("stacks"), frame.get("cells")
    if not isinstance(stacks, list) or not isinstance(cells, list):
        raise ProtocolError(
            "sweep frame needs a 'stacks' list and a 'cells' list of "
            "[stack index, size] pairs")
    decoded = [decode_stack(data) for data in stacks]
    pairs = []
    for cell in cells:
        if (not isinstance(cell, list) or len(cell) != 2
                or type(cell[0]) is not int or type(cell[1]) is not int):
            raise ProtocolError(
                f"bad sweep cell {cell!r}: expected [stack index, size]")
        index, size = cell
        if not 0 <= index < len(decoded):
            raise ProtocolError(
                f"sweep cell {cell!r} names stack {index}, but the frame "
                f"carries {len(decoded)}")
        pairs.append((index, size))
    return decoded, pairs


def _encode_fault_plan(plan: Optional[FaultPlan]) -> Optional[dict]:
    if plan is None:
        return None
    return {"seed": plan.seed, "rules": [asdict(r) for r in plan.rules]}


def _decode_fault_plan(data: Optional[dict]) -> Optional[FaultPlan]:
    if data is None:
        return None
    try:
        return FaultPlan([FaultRule(**r) for r in data["rules"]],
                         seed=data["seed"])
    except (KeyError, TypeError, ValueError) as err:
        raise ProtocolError(f"bad fault plan on the wire: {err}") from err


def encode_settings(settings: ImbSettings) -> dict:
    """An :class:`ImbSettings` (fault plan included) as a JSON-able dict."""
    return {
        "warmups": settings.warmups,
        "max_iterations": settings.max_iterations,
        "target_bytes": settings.target_bytes,
        "off_cache": bool(settings.off_cache),
        "root": settings.root,
        "fault_plan": _encode_fault_plan(settings.fault_plan),
    }


def decode_settings(data: dict) -> ImbSettings:
    try:
        return ImbSettings(
            warmups=data["warmups"],
            max_iterations=data["max_iterations"],
            target_bytes=data["target_bytes"],
            off_cache=data["off_cache"],
            root=data["root"],
            fault_plan=_decode_fault_plan(data.get("fault_plan")),
        )
    except (KeyError, TypeError) as err:
        raise ProtocolError(f"bad settings on the wire: {err}") from err


def encode_stats(stats: Optional[CellStats]) -> Optional[dict]:
    return None if stats is None else asdict(stats)


def decode_stats(data: Optional[dict]) -> Optional[CellStats]:
    if data is None:
        return None
    try:
        return CellStats(**data)
    except TypeError as err:
        raise ProtocolError(f"bad cell stats on the wire: {err}") from err


# -- content addressing ------------------------------------------------------

def _canonical(value: Any) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def context_fingerprint(machine: str, operation: str, nprocs: int,
                        settings: ImbSettings) -> str:
    """Canonical JSON of a sweep's execution context (cells share it)."""
    return _canonical({
        "machine": machine,
        "operation": operation,
        "nprocs": nprocs,
        "settings": encode_settings(settings),
    })


def stack_fingerprint(stack: Stack) -> str:
    """Canonical JSON of one stack, tuning included (cells share it)."""
    return _canonical(encode_stack(stack))


def cell_key(ctx: str, stack: str, size: int) -> str:
    """Cache key from its three parts: a :func:`context_fingerprint`, a
    :func:`stack_fingerprint` and the message size.

    The digested token is the canonical JSON of ``{"ctx": ..., "size":
    ..., "stack": ...}``; both fingerprints are canonical JSON already,
    so it is spliced from them as text (sorted-key order), which keeps
    the digests of journals written before the split valid.
    """
    token = '{"ctx":%s,"size":%d,"stack":%s}' % (ctx, size, stack)
    return hashlib.blake2b(token.encode(), digest_size=16).hexdigest()


def cache_key(machine: str, operation: str, nprocs: int,
              settings: ImbSettings, stack: Stack, size: int) -> str:
    """Content address of one sweep cell (blake2b-128 hex digest).

    Covers every input the request names: two cells collide exactly
    when they name the same machine, operation, nprocs, settings, stack
    and size, which makes the digest safe as the dedupe/cache identity
    for one model.  The machine enters by name only — not its
    ``MachineSpec`` or cost values, and not the model source — so after
    a model change a warm cache returns the old model's times (ROADMAP,
    "Content-address the model").
    """
    return cell_key(context_fingerprint(machine, operation, nprocs, settings),
                    stack_fingerprint(stack), size)


# -- address parsing ---------------------------------------------------------

def parse_address(address: str) -> tuple:
    """``("tcp", host, port)`` or ``("unix", path)`` for an address string.

    ``host:port`` (port numeric) is TCP; anything containing a path
    separator — or ending in ``.sock`` — is a unix-domain socket path.
    """
    if "/" in address or address.endswith(".sock"):
        return ("unix", address)
    host, sep, port = address.rpartition(":")
    if sep and port.isdigit():
        return ("tcp", host or "127.0.0.1", int(port))
    raise BenchmarkError(
        f"bad service address {address!r}: expected host:port or a unix "
        f"socket path")


# -- framing -----------------------------------------------------------------

def format_frame(frame: dict) -> bytes:
    """One NDJSON wire line for a frame dict."""
    return (json.dumps(frame, sort_keys=True,
                       separators=(",", ":")) + "\n").encode()


def parse_frame(line: bytes) -> dict:
    try:
        frame = json.loads(line)
    except ValueError as err:
        raise ProtocolError(f"bad frame on the wire: {err}") from err
    if not isinstance(frame, dict) or not isinstance(frame.get("op"), str):
        raise ProtocolError(f"frame without an op: {line[:80]!r}")
    return frame


def read_frames(fh: IO[bytes]) -> Any:
    """Yield frames from a blocking binary stream until EOF (client side)."""
    for line in fh:
        if line.strip():
            yield parse_frame(line)
