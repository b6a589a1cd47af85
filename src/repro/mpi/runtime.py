"""Machine assembly and the job launcher.

- :class:`Machine` wires a simulator, memory system, cache model, shared
  memory world, KNEM driver, topology tree, and distance matrix together.
- :class:`Job` launches one simulated MPI process per rank (bound to cores
  per the binding policy), runs a program generator on each, and reports
  per-rank results and timings.

A program is a function ``program(proc, *args)`` returning a generator::

    def program(proc):
        buf = proc.alloc_array(count, dtype="u4")
        buf.array[:] = proc.rank
        yield from proc.comm.allgather(out.sim, buf.sim, count * 4)
        return proc.now
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional, Union

from repro.errors import (
    DeadlockError,
    MpiError,
    ProcessKilled,
    ProgressTimeout,
    RankCrashed,
    RankFailed,
)
from repro.faults.plan import FaultPlan
from repro.hardware.machines import get_machine
from repro.hardware.memory import MemorySystem, SimBuffer
from repro.hardware.spec import MachineSpec
from repro.kernel.costs import KernelCosts
from repro.kernel.knem import KnemDriver
from repro.kernel.shm import ShmWorld
from repro.mpi.communicator import Comm, CommShared
from repro.mpi.pml import PmlEndpoint
from repro.mpi.stacks import Stack, TUNED_SM
from repro.simtime.core import Simulator
from repro.simtime.trace import Tracer
from repro.topology.binding import bind_ranks
from repro.topology.distance import DistanceMatrix
from repro.topology.objects import Topology

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Machine", "Proc", "World", "Job", "JobResult", "ArrayBuffer"]


class Machine:
    """A fully assembled simulated machine (hardware + kernel services)."""

    def __init__(self, spec: MachineSpec, costs: Optional[KernelCosts] = None,
                 trace: bool = False):
        self.spec = spec
        self.sim = sim = Simulator()
        # The clock closes over the simulator, not the machine: the machine
        # stays out of reference cycles, so a finished cell is freed by
        # reference counting alone (see Job.close).
        self.tracer = Tracer(clock=lambda: sim.now, enabled=trace)
        self.mem = MemorySystem(self.sim, spec, tracer=self.tracer)
        self.costs = costs or KernelCosts()
        self.shm = ShmWorld(self.sim, spec, self.mem, costs=self.costs)
        self.knem = KnemDriver(self.sim, self.mem, costs=self.costs,
                               tracer=self.tracer)
        # Memoized per-spec: the tree and matrix are immutable and their
        # construction (O(n_cores²) ancestor walks) would otherwise dominate
        # per-cell machine builds in a sweep.
        self.topology = Topology.for_spec(spec)
        self.distances = DistanceMatrix.for_spec(spec)
        #: armed :class:`FaultPlan` (shared handle; also hooked into the
        #: kernel services) — the MPI layer consults it for rank-level rules
        self.fault_plan: Optional[FaultPlan] = None
        #: armed KNEM-San sanitizer (shared handle; see ``arm_sanitizer``)
        self.sanitizer = None

    @classmethod
    def build(cls, spec_or_name: Union[str, MachineSpec],
              costs: Optional[KernelCosts] = None,
              trace: bool = False) -> "Machine":
        """Build from a paper machine name (``"ig"``) or a custom spec."""
        spec = (get_machine(spec_or_name)
                if isinstance(spec_or_name, str) else spec_or_name)
        return cls(spec, costs=costs, trace=trace)

    @property
    def now(self) -> float:
        return self.sim.now

    def arm_faults(self, plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
        """Arm a fault schedule on this machine's kernel services.

        Hooks the KNEM driver (register/copy/destroy), the shared-memory
        FIFO slot path, and the MPI layer's rank-level rules
        (``rank.crash``/``rank.stall``).  Pass ``None`` to disarm.  Returns
        the plan so call sites can keep the handle for its injection
        counters.
        """
        self.fault_plan = plan
        self.knem.fault_plan = plan
        self.shm.arm_faults(plan)
        return plan

    def arm_sanitizer(self, sanitizer):
        """Arm a :class:`~repro.analysis.static.SingleCopySanitizer`.

        Hooks the KNEM driver's region/copy lifecycle and the FIFO slot
        protocol.  Pass ``None`` to disarm; the hooks then cost one
        attribute test per kernel call (same fast path as fault plans).
        Returns the sanitizer so call sites keep the findings handle.
        """
        self.sanitizer = sanitizer
        self.knem.sanitizer = None if sanitizer is None else sanitizer.knem
        self.shm.arm_sanitizer(None if sanitizer is None else sanitizer.fifo)
        return sanitizer

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Machine {self.spec.name} t={self.sim.now:.6f}>"


class ArrayBuffer:
    """A numpy array paired with its :class:`SimBuffer` home."""

    __slots__ = ("array", "sim")

    def __init__(self, array: np.ndarray, sim_buffer: SimBuffer):
        self.array = array
        self.sim = sim_buffer

    @property
    def nbytes(self) -> int:
        return self.sim.size


class Proc:
    """One simulated MPI process: rank, core binding, allocation helpers."""

    def __init__(self, world: "World", rank: int, core: int):
        self.world = world
        self.rank = rank
        self.core = core
        self.machine = world.machine
        self.domain = world.machine.spec.core_domain(core)
        self.pml = PmlEndpoint(self, world)
        self.comm: Comm = None  # type: ignore[assignment]  # set by World

    # -- memory ---------------------------------------------------------
    def alloc(self, nbytes: int, label: str = "", backed: bool = True) -> SimBuffer:
        """Allocate ``nbytes`` on this process's NUMA domain (first touch)."""
        return self.machine.mem.alloc(
            nbytes, self.domain, label=label or f"r{self.rank}", backed=backed
        )

    def alloc_array(self, count: int, dtype: Any = "u1",
                    label: str = "") -> ArrayBuffer:
        """Allocate a typed numpy array homed on this process's domain."""
        import numpy as np

        array = np.zeros(count, dtype=dtype)
        buf = self.machine.mem.alloc(
            array.nbytes, self.domain, label=label or f"r{self.rank}", array=array
        )
        return ArrayBuffer(array, buf)

    def wrap(self, array: np.ndarray, label: str = "") -> ArrayBuffer:
        """Copy a numpy array into a buffer owned by this process.

        Always copies: a simulated process must own its memory — wrapping a
        view of caller data (e.g. overlapping slices handed to several
        ranks) would alias address spaces that are distinct on the real
        machine.
        """
        import numpy as np

        owned = np.array(array, order="C", copy=True)
        buf = self.machine.mem.alloc(
            owned.nbytes, self.domain, label=label or f"r{self.rank}",
            array=owned,
        )
        return ArrayBuffer(buf.array, buf)

    # -- time ----------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.machine.sim.now

    def compute(self, seconds: float):
        """Event representing local computation for ``seconds``."""
        return self.machine.sim.timeout(seconds)

    def elem_ops(self, n_ops: int):
        """Computation event for ``n_ops`` calibrated element updates."""
        return self.machine.sim.timeout(n_ops * self.machine.spec.core.elem_op_time)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Proc rank={self.rank} core={self.core} domain={self.domain}>"


class World:
    """Shared state of one job: processes, endpoints, communicators, coll."""

    def __init__(self, machine: Machine, stack: Stack, cores: list[int]):
        from repro.coll import make_component  # deferred: coll imports mpi

        self.machine = machine
        self.stack = stack
        self._cid_counter = 0
        self._comms: dict[int, CommShared] = {}
        self.procs: list[Proc] = [Proc(self, rank, core)
                                  for rank, core in enumerate(cores)]
        world_cid = self.next_cid()
        shared = self.get_or_create_comm(world_cid, list(range(len(cores))))
        for rank, proc in enumerate(self.procs):
            proc.comm = Comm(shared, proc, rank)
        self.coll = make_component(stack.coll, self)
        # -- rank-failure bookkeeping (ULFM-style fail-stop model) --------
        #: world ranks still alive
        self.live: set[int] = set(range(len(cores)))
        #: dead world rank -> the op it died in ("" when between ops)
        self.dead: dict[int, str] = {}
        #: world rank -> (op, Comm) while that rank is inside a collective;
        #: the failure-delivery path consults this to find in-flight peers
        self._active_colls: dict[int, tuple[str, "Comm"]] = {}
        #: world rank -> its running program Process (set by Job.run)
        self.rank_handles: dict[int, Any] = {}
        #: (source cid, survivor tuple) -> shrunk cid, so every survivor's
        #: local shrink() resolves to the same communicator
        self._shrink_cids: dict[Any, int] = {}
        #: timed crash rules already armed as simulator timers
        self._armed_timers: set[tuple[int, int]] = set()

    def proc(self, world_rank: int) -> Proc:
        return self.procs[world_rank]

    def endpoint(self, world_rank: int) -> PmlEndpoint:
        return self.procs[world_rank].pml

    def next_cid(self) -> int:
        self._cid_counter += 1
        return self._cid_counter

    def comm_world_rank(self, cid: int, rank: int) -> Optional[int]:
        """Translate a communicator rank to a world rank (trace/diagnostics).

        Returns ``None`` when the communicator or rank is unknown — callers
        use this for best-effort reporting, never for routing.
        """
        shared = self._comms.get(cid)
        if shared is None or not 0 <= rank < shared.size:
            return None
        return shared.world_ranks[rank]

    def get_or_create_comm(self, cid: int, world_ranks: list[int]) -> CommShared:
        shared = self._comms.get(cid)
        if shared is None:
            shared = CommShared(self, cid, world_ranks)
            self._comms[cid] = shared
        return shared

    @property
    def size(self) -> int:
        return len(self.procs)

    # -- rank-failure model (ULFM-style) ----------------------------------
    def dead_in(self, world_ranks: list[int]) -> Optional[int]:
        """Lowest dead world rank in a communicator group (None = all live)."""
        if not self.dead:
            return None
        dead = [r for r in world_ranks if r in self.dead]
        return min(dead) if dead else None

    def note_crash(self, rank: int, op: str = "") -> None:
        """Mark a rank dead and emit the ``rank.crash`` trace event."""
        if rank in self.dead:
            return
        self.dead[rank] = op
        self.live.discard(rank)
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit("rank.crash", rank=rank,
                    core=self.procs[rank].core, op=op)
        else:
            tr.tick("rank.crash")

    def enter_coll(self, rank: int, op: str, comm: "Comm") -> None:
        self._active_colls[rank] = (op, comm)

    def exit_coll(self, rank: int) -> None:
        self._active_colls.pop(rank, None)

    def kill_rank(self, rank: int, op: str = "", reason: str = "killed") -> None:
        """Fail-stop a rank now (timed crash rules, tests, chaos tooling)."""
        if rank in self.dead:
            return
        self.note_crash(rank, op)
        handle = self.rank_handles.get(rank)
        if handle is not None and handle.is_alive:
            # kill() fails the handle; the on-death hook (installed by
            # Job.run) then reaps protocol state and notifies survivors.
            handle.kill(RankCrashed(rank, reason))
        else:
            self._reap_rank(rank)

    def _handle_rank_exit(self, handle: Any, rank: int) -> None:
        """On-death hook for rank programs: classify how the rank ended."""
        if handle._ok:
            if rank in self.dead:
                # The program swallowed its own RankCrashed — the rank is
                # still dead to the world; reap its protocol state anyway.
                self._reap_rank(rank)
            return
        exc = handle._value
        if isinstance(exc, (RankCrashed, ProcessKilled)):
            # Fail-stop death: nobody "observes" the handle failure (the
            # job reports survivors), so defuse it and reap the corpse.
            handle._defused = True
            self.note_crash(rank, self.dead.get(rank, ""))
            self._reap_rank(rank)
        elif isinstance(exc, RankFailed):
            # Survivor aborted by a peer's death: recorded, re-raised
            # deterministically by Job.run once every survivor has observed
            # its own outcome.
            handle._defused = True
            self.exit_coll(rank)

    def _reap_rank(self, rank: int) -> None:
        """Post-mortem cleanup for a dead rank.

        Kills its protocol children (in-flight isend engines, deliveries,
        the progress daemon), reclaims every KNEM region and FIFO slot its
        core owned, and delivers :class:`RankFailed` to each surviving peer
        currently inside a collective that includes the dead rank.
        """
        proc = self.procs[rank]
        sim = self.machine.sim
        self.exit_coll(rank)
        for p in list(sim._live_processes.values()):
            if p.owner == rank and p.is_alive:
                p.kill(RankCrashed(rank, "owner rank died"))
        cookies = self.machine.knem.reclaim_owned(proc.core)
        slots = self.machine.shm.reclaim_core(proc.core)
        if cookies or slots:
            tr = self.machine.tracer
            if tr.enabled:
                tr.emit("rank.reclaim", rank=rank, core=proc.core,
                        cookies=len(cookies), slots=slots)
            else:
                tr.tick("rank.reclaim")
        for srank in sorted(self._active_colls):
            if srank == rank or srank in self.dead:
                continue
            op, comm = self._active_colls[srank]
            if rank not in comm.shared.world_ranks:
                continue
            handle = self.rank_handles.get(srank)
            if handle is None or handle.triggered:
                continue

            def still_exposed(srank=srank, rank=rank):
                entry = self._active_colls.get(srank)
                return (srank not in self.dead and entry is not None
                        and rank in entry[1].shared.world_ranks)

            handle.throw(RankFailed(rank, op), only_if=still_exposed)

    def abort_local(self, rank: int, op: str = "") -> None:
        """Cancel a surviving rank's in-flight protocol state after a
        collective abort.

        When ``RankFailed`` unwinds a rank out of a collective, its isend
        engines and deliveries for that operation are orphans: their peers
        unwound too, so they would hold FIFO slots and tx locks forever.
        Kill them (their ``finally`` blocks release locks and KNEM cookies)
        and reset the FIFOs this rank's core touches — every in-flight
        fragment there belongs to the aborted operation.  ULFM semantics:
        after a failure, *all* of the rank's outstanding communication is
        uncertain and cancelled.
        """
        sim = self.machine.sim
        me = self.rank_handles.get(rank)
        for p in list(sim._live_processes.values()):
            if p.owner != rank or p.daemon or p is me or not p.is_alive:
                continue
            p.kill(ProcessKilled(f"{p.name} aborted by rank failure in {op}"))
        self.machine.shm.reclaim_core(self.procs[rank].core)

    def shrink(self, shared: Optional[CommShared] = None) -> CommShared:
        """Rebuild a communicator over the survivors (MPI_Comm_shrink).

        The shrunk communicator is cached per (source cid, survivor set) so
        every survivor's local call resolves to the same context id — the
        simulated world has global knowledge, so no message exchange is
        needed to agree on the group.
        """
        if shared is None:
            shared = self.procs[0].comm.shared
        survivors = [r for r in shared.world_ranks if r not in self.dead]
        if not survivors:
            raise MpiError(f"communicator {shared.cid} has no survivors")
        key = (shared.cid, tuple(survivors))
        cid = self._shrink_cids.get(key)
        if cid is None:
            cid = self.next_cid()
            self._shrink_cids[key] = cid
        return self.get_or_create_comm(cid, survivors)

    def arm_timed_rules(self) -> None:
        """Schedule ``at_time`` crash rules as simulator timers (idempotent)."""
        plan = self.machine.fault_plan
        if plan is None:
            return
        sim = self.machine.sim
        for idx, rule in enumerate(plan.rules):
            if rule.at_time is None or rule.op != "rank.crash":
                continue
            key = (id(plan), idx)
            if key in self._armed_timers:
                continue
            self._armed_timers.add(key)

            def fire(rule=rule, plan=plan):
                for proc in self.procs:
                    if rule.core is not None and proc.core != rule.core:
                        continue
                    if proc.rank in self.dead:
                        continue
                    if (rule.probability < 1.0
                            and plan.draw("rank.crash", proc.core)
                            >= rule.probability):
                        continue
                    plan.record("rank.crash")
                    self.kill_rank(proc.rank, reason="timed crash")

            sim.schedule(max(0.0, rule.at_time - sim.now), fire)


class JobResult:
    """Per-rank return values and timing of one :meth:`Job.run`.

    Ranks that never finished (crashed mid-run) carry ``None`` in
    ``finish_times`` and ``values``; the aggregate properties report
    survivor-only statistics instead of raising.
    """

    def __init__(self, values: list[Any], start: float,
                 finish_times: "list[Optional[float]]",
                 dead_ranks: "tuple[int, ...]" = ()):
        self.values = values
        self.start = start
        self.finish_times = finish_times
        self.dead_ranks = tuple(dead_ranks)

    @property
    def survivors(self) -> list[int]:
        """Ranks that ran to completion."""
        return [r for r, t in enumerate(self.finish_times) if t is not None]

    @property
    def elapsed(self) -> Optional[float]:
        """Wall time of the slowest *finishing* rank (None if none finished)."""
        done = [t for t in self.finish_times if t is not None]
        if not done:
            return None
        return max(done) - self.start

    @property
    def per_rank_elapsed(self) -> "list[Optional[float]]":
        return [None if t is None else t - self.start
                for t in self.finish_times]


class Job:
    """Launches programs over a fixed set of ranks on one machine.

    A Job may run several programs in sequence on the same ranks (the IMB
    harness does); simulation time keeps advancing across runs, and
    communicator/cache state persists, like a real MPI job.
    """

    def __init__(self, machine: Machine, nprocs: int,
                 stack: Stack = TUNED_SM, binding: str = "linear"):
        cores = bind_ranks(machine.spec, nprocs, policy=binding)
        self.machine = machine
        self.stack = stack
        self.world = World(machine, stack, cores)

    @property
    def procs(self) -> list[Proc]:
        return self.world.procs

    @property
    def nprocs(self) -> int:
        return self.world.size

    def run(self, program: Callable, *args: Any,
            deadline: Optional[float] = None) -> JobResult:
        """Run ``program(proc, *args)`` on every *live* rank to completion.

        ``deadline`` arms a simulated-time watchdog: if any rank program is
        still unfinished ``deadline`` seconds after the run started, the run
        aborts with :class:`~repro.errors.ProgressTimeout` carrying the
        analyzer's wait-cycle diagnosis (when tracing is enabled) — a silent
        hang always becomes a report.

        Rank-failure semantics: ranks killed by crash rules end with
        ``None`` results; surviving ranks whose collectives could not
        complete observe :class:`~repro.errors.RankFailed` inside their
        program (catch it to shrink and retry).  An uncaught ``RankFailed``
        is re-raised here — deterministically, from the lowest such rank —
        after every survivor has run to its own outcome.
        """
        sim = self.machine.sim
        world = self.world
        start = sim.now
        finish: list[Optional[float]] = [None] * self.nprocs
        values: list[Any] = [None] * self.nprocs

        def runner(proc: Proc):
            value = yield from program(proc, *args)
            finish[proc.rank] = sim.now
            values[proc.rank] = value
            return value

        live = [p for p in self.procs if p.rank in world.live]
        if not live:
            raise MpiError("no live ranks to run on (all crashed)")
        handles = []
        for p in live:
            h = sim.process(runner(p), name=f"rank{p.rank}", owner=p.rank)
            world.rank_handles[p.rank] = h
            h.on_death(lambda hh, rank=p.rank: world._handle_rank_exit(hh, rank))
            handles.append(h)
        world.arm_timed_rules()
        try:
            if deadline is not None:
                # Watchdog: process events up to the deadline without
                # jumping ``now`` forward when the run completes early.
                sim.run_horizon(start + deadline)
                stuck = [h for h in handles if h.is_alive]
                if stuck:
                    raise self._watchdog_timeout(deadline, stuck)
                self._close_orphans(sim)
            else:
                while True:
                    try:
                        sim.run()
                        break
                    except DeadlockError:
                        # Queue drained with blocked processes.  If every
                        # rank program already ended, the stragglers are
                        # protocol orphans of a failed collective (e.g. a
                        # survivor's isend engine waiting on a FIN the dead
                        # peer will never post): close them and move on.
                        # A blocked *rank program* is a genuine deadlock.
                        if any(h.is_alive for h in handles):
                            raise
                        if not self._close_orphans(sim):
                            raise
        except BaseException:
            # The run aborted (a rank raised, deadlocked, or timed out):
            # close every surviving process *now* so their finally blocks
            # run — abort-path cleanup (e.g. forced KNEM region reclaim)
            # must happen deterministically, not at garbage collection.
            # This includes children spawned for non-blocking operations
            # (isend bodies and in-flight p2p sends hold KNEM cookies too),
            # not just the rank programs.
            self._abort_cleanup(sim)
            raise
        if world.dead:
            # Quiescent post-failure sweep: every fragment still parked in a
            # FIFO belongs to an aborted transfer (the queue has drained),
            # so reset the pools — no slot may leak across rank failures.
            self.machine.shm.reclaim_all()
        failed: list[tuple[int, BaseException]] = []
        for p, h in zip(live, handles):
            if h.ok:
                continue
            exc = h.value
            if isinstance(exc, (RankCrashed, ProcessKilled)):
                continue  # fail-stop death: reported via None results
            failed.append((p.rank, exc))
        for _rank, exc in failed:
            if not isinstance(exc, RankFailed):
                raise MpiError(f"rank program failed: {exc!r}")
        if failed:
            # Every failure is a RankFailed; surface the lowest rank's.
            raise failed[0][1]
        return JobResult(values, start, finish,
                         dead_ranks=tuple(sorted(world.dead)))

    def close(self) -> None:
        """Take the job apart so that reference counting alone frees it.

        After a run the per-rank progress daemons are still parked on
        their mailboxes, and the job's objects point back at each other
        (process and world, process and endpoint, communicator and
        process, world and its communicators and component).  Closing
        ends the daemons and drops those back-references; the job cannot
        run again.  The machine keeps everything read after a run: its
        simulator's counters, memory system, KNEM driver and tracer.
        """
        world = self.world
        for proc in world.procs:
            proc.pml.close()
            proc.world = proc.comm = None
        world.coll = None
        world._comms.clear()

    def _close_orphans(self, sim: Simulator) -> int:
        """Kill blocked non-daemon protocol children; returns how many."""
        orphans = [p for p in sim._live_processes.values()
                   if p.is_alive and not p.daemon]
        for p in orphans:
            p.kill(ProcessKilled(f"{p.name} orphaned by rank failure"))
        return len(orphans)

    def _abort_cleanup(self, sim: Simulator) -> None:
        for p in list(sim._live_processes.values()):
            gen = getattr(p, "_gen", None)
            if p.is_alive and gen is not None:
                try:
                    gen.close()
                except Exception:
                    pass  # cleanup is best-effort; the original error wins
        # In-flight fragments died with their senders; reset the slot pools
        # so an aborted run cannot leak FIFO capacity.
        self.machine.shm.reclaim_all()

    def _watchdog_timeout(self, deadline: float, stuck) -> ProgressTimeout:
        """Build the typed watchdog error, with wait-cycle diagnosis."""
        sim = self.machine.sim
        blocked = sorted(p.name for p in stuck)
        waiting = {}
        for p in sorted(stuck, key=lambda p: p.name):
            target = p.waiting_on
            waiting[p.name] = ("" if target is None
                              else getattr(target, "name", "")
                              or type(target).__name__)
        tr = self.machine.tracer
        if tr.enabled:
            tr.emit("watchdog.timeout", deadline=deadline,
                    blocked=tuple(blocked))
        else:
            tr.tick("watchdog.timeout")
        diagnosis = self._diagnose_hang(blocked, waiting)
        err = ProgressTimeout(deadline, blocked, waiting=waiting,
                              diagnosis=diagnosis)
        self._write_watchdog_report(err)
        return err

    def _diagnose_hang(self, blocked: list[str],
                       waiting: dict[str, str]) -> list:
        """Run the analyzer's deadlock checker over the recorded trace.

        Returns findings (empty when tracing is disabled — the watchdog
        still fires, just without the wait-cycle explanation).
        """
        if not self.machine.tracer.enabled:
            return []
        try:
            from repro.analysis.deadlock import check_deadlock
            from repro.analysis.model import build_model

            synthetic = DeadlockError(blocked, waiting=waiting)
            model = build_model(self, deadlock=synthetic)
            return list(check_deadlock(model))
        except Exception:  # diagnosis is best-effort; the timeout still fires
            return []

    def _write_watchdog_report(self, err: ProgressTimeout) -> None:
        """Drop the diagnosis report where CI can pick it up (optional)."""
        import os

        report_dir = os.environ.get("REPRO_WATCHDOG_REPORT_DIR")
        if not report_dir:
            return
        try:
            os.makedirs(report_dir, exist_ok=True)
            path = os.path.join(
                report_dir, f"watchdog-{self.machine.spec.name}.txt")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(err.report() + "\n\n")
        except OSError:  # pragma: no cover - report is best-effort
            pass
