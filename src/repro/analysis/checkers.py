"""The checker set, run over a :class:`~repro.analysis.model.TraceModel`
from either builder (a traced run or an extracted schedule).

- ``race`` — two steps of different ranks touch a common byte of one space,
  at least one writes, and neither happens-before the other
  (``write-write-race`` / ``read-write-race``).  Traced runs contribute
  KNEM copies and the collectives' ``coll-local`` copies; extracted
  schedules also contribute message payloads and the collective board.
- ``cookie`` — region lifecycle: a copy not ordered before its region's
  destroy (``use-after-invalidate`` when the destroy happens-before it,
  which includes copies the driver rejected; ``use-after-invalidate-window``
  when the two are concurrent), ``double-destroy``, ``out-of-bounds``
  ioctls, ``cookie-not-visible`` (a non-owner copied without the
  registration happening-before the copy: the cookie arrived through an
  unsynchronized channel), ``overlapping-registration`` (two concurrently
  live regions over common bytes of one buffer, one of them writable) and
  ``leaked-region`` (never released; a forced reclaim counts as a release).
- ``direction`` — the Section III direction contract: ``protection-violation``
  (an ioctl the driver rejected for its protection flags),
  ``over-permissive-region`` (registered read+write, used one way at most),
  ``direction-mismatch`` (a cross-rank copy against the declared
  :class:`~repro.coll.algorithms.DirectionSpec`) and ``root-serialization``
  (a contract declaring concurrent copies on more than 2 ranks, yet one
  rank issues every cross-rank copy).
- ``board`` — ``board-unsynchronized``: a collective-board read not ordered
  after the post it reads.

``deadlock`` (:mod:`repro.analysis.deadlock`) completes the set.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Optional

from repro.analysis.findings import ERROR, WARNING, Finding, register_checker
from repro.analysis.model import (
    Access,
    Region,
    Step,
    TraceModel,
    intervals_overlap,
)
from repro.kernel.knem import PROT_READ, PROT_WRITE

__all__ = ["check_races", "check_cookies", "check_direction", "check_board"]

#: Cap on reported races per space — a broken schedule races everywhere,
#: and one finding per overlapping pair buries the signal.
_MAX_RACES_PER_SPACE = 8

#: Direction names for a copy's write flag.
_DIR_NAME = {False: "receiver-reading", True: "sender-writing"}


def _space(space: object) -> str:
    return f"buf#{space}" if isinstance(space, int) else str(space)


def _cookie(cookie: Optional[int]) -> str:
    return f"cookie {cookie:#x}" if cookie is not None else "a cookie"


def _regions(model: TraceModel) -> list[Region]:
    return sorted(model.regions.values(), key=lambda r: r.register.index)


def _racing_pairs(entries: "list[tuple[Step, Access]]",
                  ) -> "Iterator[tuple[Step, Access, Step, Access]]":
    for i, (sa, a) in enumerate(entries):
        for sb, b in entries[i + 1:]:
            if sa.rank == sb.rank or not (a.write or b.write):
                continue
            if not intervals_overlap(a.start, a.end, b.start, b.end):
                continue
            if sa.precedes(sb) or sb.precedes(sa):
                continue
            yield sa, a, sb, b


@register_checker("race")
def check_races(model: TraceModel) -> Iterator[Finding]:
    for space, entries in model.accesses_by_space().items():
        for sa, a, sb, b in itertools.islice(_racing_pairs(entries),
                                             _MAX_RACES_PER_SPACE):
            lo, hi = max(a.start, b.start), min(a.end, b.end)
            kind = "write-write" if a.write and b.write else "read-write"
            yield Finding(
                checker="race", category=f"{kind}-race", severity=ERROR,
                rank=sa.rank,
                message=(f"{kind} overlap [{lo}:{hi}) of {_space(space)} "
                         f"with no happens-before edge: {sa.describe()} vs "
                         f"{sb.describe()}"),
                details={"space": space, "overlap": (lo, hi),
                         "first": sa.index, "second": sb.index},
            )


def _stale_use(region: Optional[Region], use: Step,
               rejected: bool) -> Finding:
    """A copy not ordered before its region's destroy."""
    cookie = use.info.get("cookie")
    destroy = region.destroy if region is not None else None
    window = (destroy is not None and destroy.vc is not None
              and use.vc is not None and not destroy.precedes(use))
    after = ("a region that is not live" if destroy is None
             else f"its deregistration ({destroy.describe()})")
    how = "the driver rejected it" if rejected else \
        "an interleaving exists where the copy hits a dead cookie"
    return Finding(
        checker="cookie",
        category=("use-after-invalidate-window" if window
                  else "use-after-invalidate"),
        severity=ERROR, rank=use.rank,
        message=(f"copy {use.describe()} through {_cookie(cookie)} is not "
                 f"ordered before {after}: {how}"),
        details={"cookie": cookie, "copy": use.index},
    )


def _lifetimes_overlap(a: Region, b: Region) -> bool:
    return not ((a.destroy is not None and a.destroy.precedes(b.register))
                or (b.destroy is not None and b.destroy.precedes(a.register)))


@register_checker("cookie")
def check_cookies(model: TraceModel) -> Iterator[Finding]:
    for fail in model.rejections:
        op, error = fail.info.get("op"), fail.info.get("error")
        cookie = fail.info.get("cookie")
        if error == "KnemBoundsError":
            yield Finding(
                checker="cookie", category="out-of-bounds", severity=ERROR,
                rank=fail.rank,
                message=(f"{op} of {_cookie(cookie)} rejected by the driver: "
                         f"the byte range lies outside the "
                         f"{'buffer' if op == 'register' else 'region'}"),
                details={"cookie": cookie, "op": op, "step": fail.index},
            )
        elif error == "KnemInvalidCookie" and op == "destroy":
            yield Finding(
                checker="cookie", category="double-destroy", severity=ERROR,
                rank=fail.rank,
                message=f"deregistration of {_cookie(cookie)} which is not "
                        f"live",
                details={"cookie": cookie, "step": fail.index},
            )
        elif error == "KnemInvalidCookie":
            yield _stale_use(model.regions.get(cookie), fail, rejected=True)

    regions = _regions(model)
    for region in regions:
        destroy = region.destroy
        if destroy is None:
            yield Finding(
                checker="cookie", category="leaked-region", severity=ERROR,
                rank=region.owner_rank,
                message=(f"cookie {region.cookie:#x} "
                         f"({region.label or _space(region.buf)}, "
                         f"{region.length}B, registered at "
                         f"{region.register.describe()}) is never released: "
                         f"the pages stay pinned past the end of the "
                         f"schedule"),
                details={"cookie": region.cookie,
                         "register": region.register.index},
            )
        for use in region.uses:
            if (destroy is not None and destroy.vc is not None
                    and use.vc is not None and not use.precedes(destroy)):
                yield _stale_use(region, use, rejected=False)
            if (use.rank is not None and region.owner_rank is not None
                    and use.rank != region.owner_rank
                    and region.register.vc is not None
                    and use.vc is not None
                    and not region.register.precedes(use)):
                yield Finding(
                    checker="cookie", category="cookie-not-visible",
                    severity=ERROR, rank=use.rank,
                    message=(f"rank {use.rank} copied through cookie "
                             f"{region.cookie:#x} before rank "
                             f"{region.owner_rank}'s registration was "
                             f"visible to it (the cookie arrived through "
                             f"an unsynchronized channel)"),
                    details={"cookie": region.cookie, "copy": use.index,
                             "register": region.register.index},
                )

    for i, a in enumerate(regions):
        for b in regions[i + 1:]:
            if (a.buf != b.buf or not a.length or not b.length
                    or not (a.prot | b.prot) & PROT_WRITE
                    or not intervals_overlap(a.offset, a.end, b.offset, b.end)
                    or not _lifetimes_overlap(a, b)):
                continue
            yield Finding(
                checker="cookie", category="overlapping-registration",
                severity=WARNING, rank=b.owner_rank,
                message=(f"cookie {b.cookie:#x} registers "
                         f"{_space(b.buf)}[{b.offset}:{b.end}) while cookie "
                         f"{a.cookie:#x} covering [{a.offset}:{a.end}) is "
                         f"still live, and one of them is writable"),
                details={"first": a.cookie, "second": b.cookie,
                         "buf": a.buf},
            )


@register_checker("direction")
def check_direction(model: TraceModel) -> Iterator[Finding]:
    for fail in model.rejections:
        if fail.info.get("error") != "KnemPermissionError":
            continue
        op = fail.info.get("op")
        if op == "copy":
            want = _DIR_NAME[bool(fail.info.get("write"))]
            message = (f"a {want} copy was rejected: the region's protection "
                       f"flags do not allow that direction")
        else:
            message = f"{op} rejected: bad protection flags"
        yield Finding(
            checker="direction", category="protection-violation",
            severity=ERROR, rank=fail.rank, message=message,
            details={"cookie": fail.info.get("cookie"), "op": op,
                     "step": fail.index},
        )

    regions = _regions(model)
    for region in regions:
        used = {bool(use.info.get("write")) for use in region.uses}
        if region.prot == (PROT_READ | PROT_WRITE) and len(used) < 2:
            how = (_DIR_NAME[used.pop()] + " only") if used else "never"
            yield Finding(
                checker="direction", category="over-permissive-region",
                severity=WARNING, rank=region.owner_rank,
                message=(f"cookie {region.cookie:#x} is registered "
                         f"read+write but used {how}: grant only the "
                         f"direction the schedule needs"),
                details={"cookie": region.cookie, "prot": region.prot},
            )

    spec = model.direction_spec
    if spec is None:
        return
    # Cross-rank copies: a rank moving data through a peer's region.
    cross = sorted(((region, use) for region in regions
                    for use in region.uses
                    if use.rank is not None
                    and use.rank != region.owner_rank),
                   key=lambda ru: ru[1].index)
    if spec.direction in ("read", "write"):
        want_write = spec.direction == "write"
        for region, use in cross:
            write = bool(use.info.get("write"))
            if write != want_write:
                yield Finding(
                    checker="direction", category="direction-mismatch",
                    severity=ERROR, rank=use.rank,
                    message=(f"schedule declares {_DIR_NAME[want_write]} "
                             f"but rank {use.rank}'s copy through cookie "
                             f"{region.cookie:#x} is {_DIR_NAME[write]}"),
                    details={"cookie": region.cookie, "copy": use.index},
                )
    # On 2 ranks the one non-root rank is the only possible issuer.
    if spec.concurrent and model.nprocs > 2 and len(cross) >= 2:
        issuers = {use.rank for _region, use in cross}
        if len(issuers) == 1:
            only = next(iter(issuers))
            yield Finding(
                checker="direction", category="root-serialization",
                severity=WARNING, rank=only,
                message=(f"schedule declares concurrent copies but all "
                         f"{len(cross)} cross-rank copies were issued by "
                         f"rank {only}'s core — the schedule serializes on "
                         f"one core instead of using direction control"),
                details={"rank": only, "copies": len(cross)},
            )


@register_checker("board")
def check_board(model: TraceModel) -> Iterator[Finding]:
    for key, get in model.board_gets:
        post = model.board_posts.get(key)
        if post is None:
            continue  # the KeyError path already raised upstream
        if post.rank == get.rank or post.precedes(get):
            continue
        yield Finding(
            checker="board", category="board-unsynchronized", severity=ERROR,
            rank=get.rank,
            message=(f"board entry {key} read at {get.describe()} without a "
                     f"happens-before edge from its post "
                     f"({post.describe()}); needs a barrier"),
        )
