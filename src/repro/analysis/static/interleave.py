"""Sleep-set DPOR exploration of extracted collective schedules.

The extractor (:mod:`repro.analysis.static.schedules`) reduces every rank's
schedule to a sequence of abstract operations — message posts, completion
waits, and local kernel/board actions carrying byte-range accesses and
cookie lifecycle verbs.  This module replays those sequences under every
*inequivalent* interleaving:

- **Matching is deterministic.**  Collective schedules always name source,
  destination and a phase-scoped tag, so each ``(src, dst, tag)`` channel
  has exactly one sender and one receiver and messages pair up k-th send to
  k-th receive regardless of global order.  Posting operations are
  therefore never in competition; only *waits* block, and their enabling
  condition (the matching post has executed) is monotone in executed
  operations.  Executing one enabled operation never disables another, so
  a singleton ``{op}`` is a valid persistent set whenever ``op`` is
  independent of **every operation of another rank that has not executed
  yet** (anything reachable without running ``op``).  The explorer
  precomputes that future-conflict relation (overlapping byte access with
  a writer, or copy-vs-destroy on one cookie) and runs a single canonical
  execution through conflict-free regions, branching over all enabled
  operations only where a conflict is still pending — pruned further with
  Godefroid-style sleep sets.  On a schedule with no conflicts anywhere
  (the expected case) the exploration is one linear pass.

- **What it proves.**  An exploration that terminates within budget visits
  every reachable deadlock (wait cycle) and both orders of every co-enabled
  conflicting pair.  Conflicts witnessed here corroborate the vector-clock
  findings of the extractor; deadlocks found here are schedule bugs no
  simulator run is guaranteed to hit.

- **Receipts.**  The result carries the number of complete executions and
  transitions explored, the number of branch states, and the log10 of the
  naive interleaving count (the multinomial ``(Σ len)! / Π len!``) the
  reduction stands in for, so reports can show the reduction factor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.analysis.findings import ERROR, WARNING, Finding
from repro.analysis.model import Access, accesses_conflict, intervals_overlap

if TYPE_CHECKING:  # pragma: no cover
    from repro.analysis.static.schedules import ScheduleModel

__all__ = ["Op", "ExploreResult", "explore_ops", "explore_model",
           "interleaving_log10"]


@dataclass(frozen=True)
class Op:
    """One abstract schedule operation of one rank (program order)."""

    rank: int
    kind: str  # "send" | "recv" | "wait_fin" | "wait_recv" | "local"
    chan: "Optional[tuple[object, ...]]" = None
    idx: int = 0
    accesses: "tuple[Access, ...]" = ()
    cookie_verb: str = ""  # "" | "register" | "copy" | "destroy"
    cookie: int = -1
    gid: int = -1
    label: str = ""

    def describe(self) -> str:
        where = f" on {self.chan}" if self.chan is not None else ""
        what = self.label or self.kind
        return f"rank {self.rank} step {self.gid}: {what}{where}"


@dataclass
class ExploreResult:
    """Findings plus interleaving receipts from one exploration."""

    findings: "list[Finding]" = field(default_factory=list)
    receipts: "dict[str, object]" = field(default_factory=dict)

    @property
    def clean(self) -> bool:
        return not any(f.severity == ERROR for f in self.findings)


def interleaving_log10(lengths: "Iterable[int]") -> float:
    """log10 of the naive interleaving count ``(Σ len)! / Π (len!)``."""
    lens = [n for n in lengths if n > 0]
    total = sum(lens)
    if total == 0:
        return 0.0
    ln = math.lgamma(total + 1) - sum(math.lgamma(n + 1) for n in lens)
    return ln / math.log(10.0)


def _dependent(a: Op, b: Op) -> bool:
    """Order-sensitive conflict between two ops of *different* ranks."""
    if a.cookie >= 0 and a.cookie == b.cookie:
        verbs = (a.cookie_verb, b.cookie_verb)
        if "destroy" in verbs and verbs != ("destroy", "destroy"):
            return True
    if a.accesses and b.accesses and accesses_conflict(a.accesses, b.accesses):
        return True
    return False


def _future_conflicts(ops: "list[list[Op]]",
                      hb: "Optional[Callable[[int, int], bool]]" = None,
                      ) -> "dict[int, list[tuple[int, int]]]":
    """Map ``id(op)`` -> [(rank, index)] of conflicting ops of other ranks.

    Indexed by object identity (``gid`` may be unset on hand-built ops).
    Pairs are found per address space / per cookie, so the cost is quadratic
    only in the small per-buffer access counts, and the map is empty for a
    conflict-free schedule.

    ``hb(gid_a, gid_b)`` — when provided — reports pairs already ordered in
    *every* interleaving (message matching is deterministic, so the
    happens-before relation of the extraction holds universally); such pairs
    are benign and excluded, which keeps the exploration of a race-free
    schedule to a single linear pass.
    """
    by_space: "dict[object, list[tuple[int, int, Op, Access]]]" = {}
    by_cookie: "dict[int, list[tuple[int, int, Op]]]" = {}
    for rank, seq in enumerate(ops):
        for idx, op in enumerate(seq):
            for acc in op.accesses:
                by_space.setdefault(acc.space, []).append(
                    (rank, idx, op, acc))
            if op.cookie >= 0 and op.cookie_verb in ("copy", "destroy"):
                by_cookie.setdefault(op.cookie, []).append((rank, idx, op))
    conflicts: "dict[int, list[tuple[int, int]]]" = {}

    def link(ra: int, ia: int, oa: Op, rb: int, ib: int, ob: Op) -> None:
        if hb is not None and oa.gid >= 0 and ob.gid >= 0 \
                and hb(oa.gid, ob.gid):
            return
        conflicts.setdefault(id(oa), []).append((rb, ib))
        conflicts.setdefault(id(ob), []).append((ra, ia))

    for entries in by_space.values():
        for i, (ra, ia, oa, aa) in enumerate(entries):
            for rb, ib, ob, ab in entries[i + 1:]:
                if ra == rb or not (aa.write or ab.write):
                    continue
                if intervals_overlap(aa.start, aa.end, ab.start, ab.end):
                    link(ra, ia, oa, rb, ib, ob)
    for entries in by_cookie.values():
        for i, (ra, ia, oa) in enumerate(entries):
            for rb, ib, ob in entries[i + 1:]:
                if ra == rb:
                    continue
                verbs = (oa.cookie_verb, ob.cookie_verb)
                if "destroy" in verbs and verbs != ("destroy", "destroy"):
                    link(ra, ia, oa, rb, ib, ob)
    return conflicts


class _Explorer:
    def __init__(self, ops: "list[list[Op]]", max_transitions: int,
                 hb: "Optional[Callable[[int, int], bool]]" = None):
        self.ops = ops
        self.nranks = len(ops)
        self.max_transitions = max_transitions
        self.hb = hb
        self.future_conflicts = _future_conflicts(ops, hb=hb)
        self.pc = [0] * self.nranks
        self.sent: "dict[tuple[object, ...], int]" = {}
        self.rcvd: "dict[tuple[object, ...], int]" = {}
        self.cookies_live: "set[int]" = set()
        self.transitions = 0
        self.executions = 0
        self.branch_states = 0
        self.deadlocks: "list[str]" = []
        self.race_witnesses: "dict[tuple[int, int], tuple[Op, Op]]" = {}
        self.cookie_witnesses: "dict[tuple[int, int], tuple[Op, Op]]" = {}
        self.bounded = False

    # -- state transitions (with undo) ------------------------------------
    def _next_op(self, rank: int) -> "Optional[Op]":
        seq = self.ops[rank]
        pc = self.pc[rank]
        return seq[pc] if pc < len(seq) else None

    def _enabled(self, op: Op) -> bool:
        if op.kind == "wait_recv":
            assert op.chan is not None
            return self.sent.get(op.chan, 0) > op.idx
        if op.kind == "wait_fin":
            assert op.chan is not None
            return self.rcvd.get(op.chan, 0) > op.idx
        return True

    def _execute(self, op: Op) -> None:
        self.pc[op.rank] += 1
        self.transitions += 1
        if op.kind == "send":
            assert op.chan is not None
            self.sent[op.chan] = self.sent.get(op.chan, 0) + 1
        elif op.kind == "recv":
            assert op.chan is not None
            self.rcvd[op.chan] = self.rcvd.get(op.chan, 0) + 1
        elif op.cookie_verb == "register":
            self.cookies_live.add(op.cookie)
        elif op.cookie_verb == "destroy":
            self.cookies_live.discard(op.cookie)
        elif op.cookie_verb == "copy" and op.cookie not in self.cookies_live:
            # a real interleaving in which this copy runs against a dead
            # cookie — keep one witness per (copy, cookie) pair
            key = (op.gid, op.cookie)
            self.cookie_witnesses.setdefault(key, (op, op))

    def _undo(self, op: Op) -> None:
        self.pc[op.rank] -= 1
        if op.kind == "send":
            assert op.chan is not None
            self.sent[op.chan] -= 1
        elif op.kind == "recv":
            assert op.chan is not None
            self.rcvd[op.chan] -= 1
        elif op.cookie_verb == "register":
            self.cookies_live.discard(op.cookie)
        elif op.cookie_verb == "destroy":
            self.cookies_live.add(op.cookie)

    # -- the DFS ----------------------------------------------------------
    def run(self) -> None:
        frames: "list[_Frame]" = [self._open_state(set())]
        while frames:
            fr = frames[-1]
            if fr.child_op is not None:
                self._undo(fr.child_op)
                fr.sleep.add(fr.child_op.rank)
                fr.child_op = None
            if self.transitions >= self.max_transitions:
                self.bounded = True
                frames.pop()
                continue
            rank = fr.take()
            if rank is None:
                frames.pop()
                continue
            op = self._next_op(rank)
            assert op is not None
            self._execute(op)
            fr.child_op = op
            child_sleep = {s for s in fr.sleep
                           if not self._sleep_wakes(s, op)}
            frames.append(self._open_state(child_sleep))

    def _pending_conflict(self, op: Op) -> bool:
        """Does ``op`` conflict with an op of another rank not yet run?"""
        for rank, idx in self.future_conflicts.get(id(op), ()):
            if idx >= self.pc[rank]:
                return True
        return False

    def _sleep_wakes(self, sleeping_rank: int, executed: Op) -> bool:
        other = self._next_op(sleeping_rank)
        return other is not None and _dependent(other, executed)

    def _open_state(self, sleep: "set[int]") -> "_Frame":
        nexts = [(r, op) for r in range(self.nranks)
                 for op in (self._next_op(r),) if op is not None]
        enabled = [(r, op) for r, op in nexts if self._enabled(op)]
        if not enabled:
            if nexts:  # some rank still has work: a genuine wait cycle
                blocked = "; ".join(op.describe() for _r, op in nexts)
                self.deadlocks.append(blocked)
            else:
                self.executions += 1
            return _Frame([], sleep)
        # witness scan over co-enabled pairs (both orders are reachable
        # once we branch, so a co-enabled conflict is a proven race)
        for i, (ra, oa) in enumerate(enabled):
            for rb, ob in enabled[i + 1:]:
                if ra == rb or not _dependent(oa, ob):
                    continue
                if self.hb is not None and oa.gid >= 0 and ob.gid >= 0 \
                        and self.hb(oa.gid, ob.gid):
                    continue  # ordered in every interleaving: benign
                if oa.accesses and ob.accesses \
                        and accesses_conflict(oa.accesses, ob.accesses):
                    key = (min(oa.gid, ob.gid), max(oa.gid, ob.gid))
                    self.race_witnesses.setdefault(key, (oa, ob))
                if oa.cookie >= 0 and oa.cookie == ob.cookie \
                        and "destroy" in (oa.cookie_verb, ob.cookie_verb):
                    key = (min(oa.gid, ob.gid), max(oa.gid, ob.gid))
                    self.cookie_witnesses.setdefault(key, (oa, ob))
        # persistent-set decision: a singleton {op} is valid only if op is
        # independent of every not-yet-executed op of other ranks; if any
        # enabled op still has a pending conflict, branch over all enabled
        if any(self._pending_conflict(op) for _r, op in enabled):
            self.branch_states += 1
            choices = [r for r, _op in enabled if r not in sleep]
        else:
            runnable = [r for r, _op in enabled if r not in sleep]
            choices = runnable[:1]
        if not choices:
            # every enabled op is asleep: this branch is covered elsewhere
            return _Frame([], sleep)
        return _Frame(choices, sleep)


@dataclass
class _Frame:
    choices: "list[int]"
    sleep: "set[int]"
    i: int = 0
    child_op: "Optional[Op]" = None

    def take(self) -> "Optional[int]":
        while self.i < len(self.choices):
            rank = self.choices[self.i]
            self.i += 1
            if rank not in self.sleep:
                return rank
        return None


def explore_ops(ops: "list[list[Op]]",
                max_transitions: int = 250_000,
                hb: "Optional[Callable[[int, int], bool]]" = None,
                ) -> ExploreResult:
    """Explore every inequivalent interleaving of per-rank op sequences."""
    ex = _Explorer(ops, max_transitions, hb=hb)
    ex.run()
    result = ExploreResult()
    for blocked in sorted(set(ex.deadlocks)):
        result.findings.append(Finding(
            checker="interleave", category="deadlock", severity=ERROR,
            message=f"wait cycle: an interleaving exists in which no rank "
                    f"can progress — blocked ops: {blocked}"))
    for _key, (oa, ob) in sorted(ex.cookie_witnesses.items()):
        if oa is ob:
            msg = (f"{oa.describe()} can execute after cookie "
                   f"{oa.cookie:#x} is destroyed in a real interleaving")
        else:
            msg = (f"unordered copy/destroy on cookie {oa.cookie:#x}: "
                   f"{oa.describe()} vs {ob.describe()}")
        result.findings.append(Finding(
            checker="interleave", category="cookie-order", severity=ERROR,
            message=msg))
    for _key, (oa, ob) in sorted(ex.race_witnesses.items()):
        result.findings.append(Finding(
            checker="interleave", category="race-witness", severity=ERROR,
            message=f"co-enabled conflicting accesses (both orders "
                    f"reachable): {oa.describe()} vs {ob.describe()}"))
    if ex.bounded:
        result.findings.append(Finding(
            checker="interleave", category="exploration-bounded",
            severity=WARNING,
            message=f"exploration stopped at {ex.transitions} transitions "
                    f"(budget {max_transitions}); coverage is partial"))
    result.receipts = {
        "schedule_steps": sum(len(seq) for seq in ops),
        "executions": ex.executions,
        "transitions": ex.transitions,
        "branch_states": ex.branch_states,
        "deadlocks": len(set(ex.deadlocks)),
        "interleavings_log10": round(
            interleaving_log10(len(seq) for seq in ops), 2),
        "bounded": ex.bounded,
    }
    return result


def explore_model(model: "ScheduleModel",
                  max_transitions: int = 250_000) -> ExploreResult:
    """Explore a :class:`~repro.analysis.static.schedules.ScheduleModel`.

    The model's vector clocks feed the ``hb`` predicate: pairs the unique
    match graph already orders never force a branch.
    """
    steps = model.steps

    def hb(gid_a: int, gid_b: int) -> bool:
        a, b = steps[gid_a], steps[gid_b]
        return a.precedes(b) or b.precedes(a)

    return explore_ops(model.replay, max_transitions=max_transitions, hb=hb)
