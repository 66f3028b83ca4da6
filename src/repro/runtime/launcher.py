"""The SPMD launcher: drives P program generators through the simulator.

This is DIVA's runtime loop.  Every processor runs one program (a generator
over :mod:`repro.runtime.api` requests); the launcher dispatches each
request to the data-management strategy, the barrier component, the lock
manager or the message-passing layer, advancing virtual time through the
event heap.  Zero-cost completions (cache hits, local writes) are resumed
inline to keep large runs fast.

Wake-ups
--------
A blocked processor resumes in exactly one way: the simulator calls its
resume hook -- the request loop :meth:`Runtime.run` binds once per
run -- with the processor id, and the processor continues with what
``flow_value`` holds for it.  A finished flow, a compute delay, a send's
NIC time, a lock grant, a receive, the program start
(:meth:`Runtime._wake` -> :meth:`~repro.sim.engine.Simulator.resume_at`)
and a barrier release (pushed by the barrier's pass itself) are all the
same kernel ``K_RESUME`` event; only failure-schedule events stay
generic callbacks.

The residency mirror
--------------------
On the C kernel a read or write need not call the strategy at all.  A
family declares what the kernel may assume
(:meth:`~repro.core.strategy.DataManagementStrategy.residency_mirror`:
which sites hold a copy, when a hit or a local write is side-effect-free,
and whether its miss and write flows have a static shape), and
:meth:`Runtime.arm_mirror` copies every variable's residency into the
kernel.  From then on one kernel call (``sim_access``) completes a hit or
a local write in place, and replays a static family's read miss or remote
write as the very flow the strategy would launch -- same state update,
same event keys, so results are bit-identical.  What the mirror cannot
decide *crosses*: the strategy adopts the copy placement native flows
left, runs its unchanged ``read`` / ``write``, and the variable is
re-synced.  The kernel keeps the hit/miss counters and the storage
accumulator meanwhile; :meth:`Runtime.fold_mirror` hands them back at a
measurement reset and :meth:`Runtime.release_mirror` everything at the
end.  A batch :meth:`Runtime.run` arms the mirror when the family has a
static flow (crossings outnumber native hits elsewhere, and armed
dynrep / migratory / remapping cells measured 1.1-1.7x slower); the
serving session (:mod:`repro.serve.session`) arms it for every declared
family and adds its request rings on top.  ``RunResult.extra["execution"]``
says which path ran and why a faster one was refused.
"""

from __future__ import annotations

from array import array
from functools import partial
from itertools import accumulate, chain
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..metrics import latency_percentiles
from ..network.machine import GCEL, MachineModel
from ..network.stats import LinkStats, PhaseStats
from ..network.topology import Topology
from ..sim import _ckern
from ..sim.engine import SimDeadlock, Simulator
from .api import (
    BarrierReq,
    ComputeReq,
    Env,
    LockReq,
    MarkReq,
    ReadReq,
    RecvReq,
    SendReq,
    UnlockReq,
    WriteReq,
)
from .barrier import make_barrier
from .memory import MemoryBook
from .results import RunResult
from .variables import GlobalVariable, VariableRegistry

__all__ = ["Runtime", "run_spmd"]

ProgramFactory = Callable[[Env], Any]

#: ``ResidencyMirror.flow`` -> the kernel's name of the flow kind
#: ``sim_mirror_init`` arms (``FLOW_*`` in ``sim/ckern/abi.h``).
_KERNEL_FLOW = {None: "FLOW_NONE", "tree": "FLOW_TREE", "directory": "FLOW_DIRECTORY"}


def late_completion(strategy, op: str, done: float, now: float) -> RuntimeError:
    """A ``read`` / ``write`` / ``unlock`` completes at its issue time or
    launches a flow; a later completion time is a broken strategy."""
    return RuntimeError(f"{type(strategy).__name__}.{op} issued at t={now!r} returned completion "
                        f"time {done!r}: it must complete at its issue time or launch a flow")


def _describe_block(req: Any) -> str:
    """Human-readable description of the request a processor is stuck on
    (formatted lazily: the hot path only stores the request object)."""
    cls = req.__class__
    if cls is ReadReq:
        return f"read({req.var.name})"
    if cls is WriteReq:
        return f"write({req.var.name})"
    if cls is LockReq:
        return f"lock({req.var.name})"
    if cls is UnlockReq:
        return f"unlock({req.var.name})"
    if cls is RecvReq:
        return f"recv(tag={req.tag!r})"
    if cls is BarrierReq:
        return "barrier"
    if cls is SendReq:
        return f"send(dst={req.dst})"
    if cls is ComputeReq:
        return "compute"
    return str(req)


class _PhaseAcc:
    """One named phase: the traffic accumulator the engine adds into while
    the phase is open, plus its time and per-processor compute."""

    __slots__ = ("stats", "time", "compute")

    def __init__(self, stats: LinkStats):
        self.stats = stats
        self.time = 0.0
        self.compute = np.zeros(stats.topology.n_nodes)


class Runtime:
    """One simulated execution context: machine + strategy + programs.

    Parameters
    ----------
    topology, strategy, machine:
        Topology (mesh, torus, hypercube, ...), data-management strategy
        and cost model.
    charge_compute:
        ``False`` reproduces the paper's *communication time* measurements
        ("we have simply removed the code for local computations"): all
        ``compute`` charges become free.
    barrier:
        ``"tree"`` (DIVA combining tree, default) or ``"central"``.
    capacity_bytes:
        Per-processor memory capacity for cached copies (``None`` =
        unbounded, the paper's default situation).
    failures:
        Failure axis (``None`` / ``"none"`` = the paper's static network,
        byte-identical to not having the axis at all): a failure spec
        string (``"linkflap:rate=0.01:seed=7"``), an already-built
        :class:`repro.network.failures.FailureSchedule`, or ``None``.
        Non-empty schedules install a failure-aware route view into the
        engine, apply each topology delta at its timestamp, dispatch the
        strategy's repair hooks on node churn, and populate the
        availability counters of the result (schema v6).
    recorder:
        Optional trace recorder (:class:`repro.workloads.trace.TraceRecorder`
        or anything with the same ``attach`` / ``record_create`` /
        ``record_request`` surface): every variable creation and every
        program request is logged, producing a replayable access trace.
    """

    def __init__(
        self,
        topology: Topology,
        strategy,
        machine: MachineModel = GCEL,
        *,
        charge_compute: bool = True,
        barrier: str = "tree",
        seed: int = 0,
        capacity_bytes: Optional[float] = None,
        failures=None,
        recorder=None,
    ):
        self.sim = Simulator(topology, machine)
        # The one wake-up: what a blocked processor resumes with (a read's
        # value), stashed when its flow is launched or its wake-up pushed
        # -- at most one is pending per processor, programs block on it --
        # and read by the request loop, the simulator's resume hook, when
        # the wake-up fires (run installs it).
        self.flow_value: List[Any] = [None] * topology.n_nodes
        self.registry = VariableRegistry()
        self.memory = MemoryBook(topology.n_nodes, capacity_bytes)
        self.charge_compute = charge_compute
        self.seed = seed
        # Failure axis: resolved before the strategy attaches (access
        # trees check for an installed view to privatize their embedding).
        # An empty schedule installs nothing -- the zero-failure fast path
        # is byte-identical to a build without the axis.
        self._failview = None
        self.failure_spec = "none"
        self.requests_retried = 0
        self.repairs = 0
        self._repaired_vids: set = set()
        if failures is not None:
            from ..network.failures import FailureView, build_schedule

            fail_schedule = build_schedule(failures, topology)
            self.failure_spec = fail_schedule.spec
            if not fail_schedule.is_empty:
                view = FailureView(topology, fail_schedule)
                self._failview = view
                self.sim.install_failures(view)
                # Scheduled before any program step: at equal timestamps
                # the topology delta (and repair) precedes the requests.
                for ev in fail_schedule:
                    self.sim.schedule(ev.time, self._apply_failure, ev)
        self.strategy = strategy
        strategy.attach(self)
        self.barrier = make_barrier(barrier, self.sim, seed)
        self._recorder = recorder
        if recorder is not None:
            recorder.attach(self)

        p = topology.n_nodes
        self._gens: List[Any] = [None] * p
        self._blocked_on: List[str] = ["start"] * p
        self._finished = 0
        self._final_time = [0.0] * p
        self.program_results: List[Any] = [None] * p

        # Per-request simulated latency (schema v7, see repro.metrics):
        # one float per completed read/write.  Requests whose flow blocks
        # (strategy returned None) stash their issue time per processor
        # and are closed out when the request loop resumes -- both engines
        # re-enter at the exact flow completion time, so the sample is
        # engine-identical.
        self._lat = array("d")
        self._lat_pending: List[Optional[float]] = [None] * p

        # message passing
        self._mailbox: Dict[Tuple[int, Any], List[Tuple[float, Any]]] = {}
        self._waiting_recv: Dict[Tuple[int, Any], bool] = {}

        # barrier bookkeeping
        self._barrier_label: Optional[str] = None
        self._barrier_label_set = False
        self._barrier_reset = False

        # phase + measurement accounting: every named phase owns the
        # LinkStats the engine adds into while it is open (first opened
        # first; the simulator's initial accumulator is "main"'s).
        self.measure_start = 0.0
        self._phase_name = "main"
        self._phase_acc: Dict[str, _PhaseAcc] = {"main": _PhaseAcc(self.sim.stats)}
        self._phase_start = 0.0
        self._compute_by_proc = np.zeros(p)
        self._phase_compute_mark = np.zeros(p)

        # The residency mirror (module docstring): unarmed, every read and
        # write calls the strategy.  access_reason says why either way;
        # mirror_counts are the whole run's native / crossed requests.
        self.access_reason = "the residency mirror is armed when the run starts"
        self.mirror_flow: Optional[str] = None
        self.mirror_counts = dict.fromkeys(
            ("native_reads", "native_writes", "crossed_reads", "crossed_writes",
             "native_fallbacks"), 0)
        self._access = None  # sim_access once armed
        self._counts = None  # the kernel's MC_* counters once armed
        self._storage = np.zeros(3)  # the storage accumulator (static flow)
        self._storage_sink = None

    # ------------------------------------------------------------- variables
    def create_var(self, name: str, payload_bytes: int, creator: int, value: Any) -> GlobalVariable:
        var = self.registry.create(name, payload_bytes, creator, value)
        self.strategy.register(var)
        if self._access is not None:
            self.mirror_var(var.vid)
        if self._recorder is not None:
            self._recorder.record_create(creator, var)
        return var

    # ------------------------------------------------------ residency mirror
    def arm_mirror(self, static_flow: bool = True) -> Optional[str]:
        """Copy the strategy's residency state into the C kernel's mirror,
        which from then on completes what it can decide without the
        strategy.  ``static_flow`` also requires a family whose misses and
        remote writes replay natively.  Returns ``None`` once armed, else
        the reason it refused (nothing armed); either way the reason is
        ``access_reason``."""
        sim = self.sim
        strat = self.strategy
        if sim._h is None:
            why = _ckern.unavailable_reason() or "this simulator was built on the pure-Python engine"
            reason = f"no C kernel ({why})"
        elif self._failview is not None:
            reason = "a failure schedule is installed (native flows bypass the failure view)"
        else:
            mirror = strat.residency_mirror()
            if isinstance(mirror, str):
                reason = mirror
            elif static_flow and mirror.flow is None:
                reason = (f"{type(strat).__name__} declares no static flow: "
                          "its misses and remote writes would cross")
            else:
                reason = None
        if reason is not None:
            self.access_reason = reason
            return reason
        lib, h = sim._lib, sim._h
        flow = mirror.flow
        stage = list(mirror.site_of)
        if flow is not None:
            # The per-vid flow shape (hosts, costs, path geometry) is
            # static, so read misses and writes replay in the kernel.  They
            # place and drop copies, so the kernel also feeds the storage
            # accumulator: ONE float accumulation sequence whichever side
            # (native flow / crossing) applies a delta keeps the integral
            # bit-identical to the strategy path.
            if flow == "tree":
                parent, depth, children = mirror.tree
                stage += [*parent, *depth, 0, *accumulate(map(len, children)),
                          *chain.from_iterable(children)]
            self._storage_sink = lambda delta, t: lib.sim_mirror_storage_delta(h, delta, t)
            self._storage[:] = strat.delegate_storage(self._storage_sink)
        # mirror_var stages up to n_sites members and an n_sites host row;
        # sim_mirror_export n_sites members and one more int
        sim._reserve_stage(max(len(stage), 2 * mirror.n_sites) + 1)
        sim._stage_i[0:len(stage)] = stage
        cast = sim._ffi.cast
        self._counts = np.zeros(lib.MC_N, dtype=np.int64)
        lib.sim_mirror_init(
            h, mirror.n_sites, mirror.sole_copy_write, mirror.native_reads,
            mirror.native_writes, getattr(lib, _KERNEL_FLOW[flow]),
            cast("i64 *", self._counts.ctypes.data),
            cast("double *", self._storage.ctypes.data),
        )
        self.mirror_flow = flow
        self._access = lib.sim_access
        for vid in range(len(self.registry)):
            self.mirror_var(vid)
        self.access_reason = "C kernel active and the strategy declares a residency mirror"
        return None

    def mirror_var(self, vid: int, shape: bool = True) -> None:
        """Copy one variable's residency (owner, member sites, top) into
        the mirror and, with ``shape`` under a static flow, the shape its
        flows replay (host row, payload, data leg costs)."""
        owner, members, top = self.strategy.residency(vid)
        sim = self.sim
        stage = sim._stage_i
        k = len(members)
        stage[0:k] = list(members)
        if shape and self.mirror_flow is not None:
            hosts, payload, data = self.strategy.flow_row(vid)
            row = np.asarray(hosts, dtype=np.int32)
            sim._ffi.memmove(stage + k, row, row.nbytes)
            sim._lib.sim_mirror_var(sim._h, vid, owner, top, k, 1, payload, *data)
        else:
            sim._lib.sim_mirror_var(sim._h, vid, owner, top, k, 0, 0.0, 0.0, 0.0, 0.0)

    def _adopt(self, vid: int) -> None:
        """Static flow: hand the strategy the copy placement the native
        flows left for one variable."""
        sim = self.sim
        k = sim._lib.sim_mirror_export(sim._h, vid)
        stage = sim._stage_i
        self.strategy.adopt(vid, stage[0:k], stage[k])

    def cross(self, proc: int, var: GlobalVariable, write: bool, value: Any, t: float):
        """Run one request the mirror could not complete through the
        strategy -- adopt the placement native flows left, call ``read`` /
        ``write``, re-sync the variable -- and return what that returned."""
        if self.mirror_flow is not None:
            self._adopt(var.vid)
        strat = self.strategy
        res = strat.write(proc, var, value, t) if write else strat.read(proc, var, t)
        self.mirror_var(var.vid, shape=False)
        return res

    def fold_mirror(self) -> None:
        """Move what the kernel counted since the last fold into the
        strategy's counters and :attr:`mirror_counts`, and (static flow)
        hand the strategy the storage accumulator's current state."""
        lib = self.sim._lib
        c = self._counts.tolist()
        self._counts[:] = 0
        hits, wlocal = c[lib.MC_HITS], c[lib.MC_WLOCAL]
        misses, wremote = c[lib.MC_MISSES], c[lib.MC_WREMOTE]
        self.strategy.fold_native(
            hits, wlocal, misses, wremote,
            tuple(self._storage.tolist()) if self.mirror_flow is not None else None,
        )
        counts = self.mirror_counts
        counts["native_reads"] += hits + misses
        counts["native_writes"] += wlocal + wremote
        counts["crossed_reads"] += c[lib.MC_CROSSED_R]
        counts["crossed_writes"] += c[lib.MC_CROSSED_W]
        counts["native_fallbacks"] += c[lib.MC_FALLBACKS]

    def release_mirror(self) -> None:
        """Hand the strategy back everything the mirror kept -- counters,
        copy placements, the storage accumulator -- so it reads as after a
        run without the mirror."""
        self.fold_mirror()
        if self.mirror_flow is not None:
            for vid in range(len(self.registry)):
                self._adopt(vid)
            self.strategy.reclaim_storage()

    def execution(self) -> Dict[str, Any]:
        """Which engine and which access path ran, why, and how many
        requests the mirror completed natively or sent across."""
        return {
            "engine": "ckern" if self.sim._h is not None else "pure",
            "access": "mirror" if self._access is not None else "strategy",
            "reason": self.access_reason,
            "flow": self.mirror_flow,
            **self.mirror_counts,
        }

    # ------------------------------------------------------------------ run
    def run(self, program: ProgramFactory) -> RunResult:
        """Run ``program(env)`` on every processor to completion."""
        topo = self.sim.topology
        if self._access is None:
            self.arm_mirror()
        self._gens[:] = [program(Env(self, p)) for p in range(topo.n_nodes)]
        self._bind_step()
        for p in range(topo.n_nodes):
            self._wake(p, 0.0)  # every program starts at t=0
        self.sim.run()
        if self._finished < topo.n_nodes:
            blocked = [
                f"p{p}:{_describe_block(self._blocked_on[p])}"
                for p in range(topo.n_nodes)
                if self._gens[p] is not None
            ]
            raise SimDeadlock(
                f"{topo.n_nodes - self._finished} processors never finished; "
                f"blocked: {', '.join(blocked[:10])}"
            )
        if self._access is not None:
            self.release_mirror()
        end = max(self._final_time)
        self._close_phase(end)
        phases = [
            PhaseStats(name=name, stats=acc.stats.snapshot(), time=acc.time)
            for name, acc in self._phase_acc.items()
        ]
        # The run total is the (order-exact) sum of the phase accumulators;
        # it is what sim.stats holds from here on.
        total = LinkStats(topo)
        for acc in self._phase_acc.values():
            total.merge_state(acc.stats.state())
        self.sim.stats = total
        stats = total.snapshot()
        # The base DataManagementStrategy guarantees the counters (and
        # NullStrategy inherits them), so no getattr defensiveness here.
        strategy = self.strategy
        lat_pct = latency_percentiles(self._lat)
        return RunResult(
            strategy=strategy.name,
            mesh=topo.label,
            time=end - self.measure_start,
            end_time=end,
            stats=stats,
            phases=phases,
            compute_time=float(self._compute_by_proc.max(initial=0.0)),
            hits=strategy.hits,
            misses=strategy.misses,
            latency_p50=lat_pct["p50"],
            latency_p95=lat_pct["p95"],
            latency_p99=lat_pct["p99"],
            storage_cost=strategy.storage_cost(end),
            lock_acquisitions=strategy.lock_acquisitions,
            evictions=self.memory.total_evictions,
            barrier_episodes=self.barrier.episodes,
            **self.availability(),
            extra={"execution": self.execution()},
        )

    # -------------------------------------------------------------- failures
    def availability(self) -> Dict[str, int]:
        """The availability counters (:data:`~repro.runtime.results.AVAILABILITY`,
        all zero without a failure schedule): route resolutions that found
        the pair unreachable or detoured, requests retried after a repair,
        repaired variables and applied schedule events."""
        view = self._failview
        return {
            "requests_failed": view.routes_lost if view is not None else 0,
            "requests_stalled": view.routes_detoured if view is not None else 0,
            "requests_retried": self.requests_retried,
            "repairs": self.repairs,
            "failure_events": view.events_applied if view is not None else 0,
        }

    def note_retry(self, vid: int) -> None:
        """Count a request to ``vid`` as retried if it is the first since a
        repair hook fixed the variable.  Both request loops -- the batch
        one and the serving session's rings -- call it per read and write,
        bound only under a failure schedule."""
        repaired = self._repaired_vids
        if vid in repaired:
            repaired.discard(vid)
            self.requests_retried += 1

    def _apply_failure(self, event) -> None:
        """Apply one failure-schedule event (scheduled at construction):
        the topology delta first (down sets + fresh route epoch in both
        engines), then the strategy's repair hook for node churn.  Vids
        the hook repaired are counted and flagged so the next request
        touching each counts as retried."""
        sim = self.sim
        sim.apply_failure_event(event)
        kind = event.kind
        if kind == "node_down":
            vids = self.strategy.on_node_down(
                event.target, sim.now, frozenset(self._failview.down_nodes)
            )
        elif kind == "node_up":
            vids = self.strategy.on_node_up(
                event.target, sim.now, frozenset(self._failview.down_nodes)
            )
        else:
            return
        vids = list(vids)
        self.repairs += len(vids)
        self._repaired_vids.update(vids)

    # ------------------------------------------------------------ scheduling
    def _wake(self, p: int, t: float, value: Any = None) -> None:
        """The one wake-up: processor ``p`` resumes with ``value`` at
        ``t`` -- the same kernel event as a finished flow's completion,
        which resumes it with the ``flow_value`` its strategy stashed."""
        self.flow_value[p] = value
        self.sim.resume_at(t, p)

    def _bind_step(self) -> None:
        """Build the request dispatch loop over this run's collaborators
        and install it as the simulator's resume hook.

        The loop runs once per program request -- millions per large run
        -- so everything it touches is bound here, once, after the mirror
        is armed; an entry reads only per-processor state (the generator,
        the value it resumes with, the pending latency sample).
        A read, write or unlock completes at its issue time and continues
        inline without touching the event heap, or launches a flow; that
        and everything else blocks the processor until a wake-up
        (:meth:`_wake`, a flow, a barrier release).
        """
        sim = self.sim
        strategy = self.strategy
        recorder = self._recorder
        gens = self._gens
        flow_value = self.flow_value
        pending = self._lat_pending
        blocked_on = self._blocked_on
        lat_append = self._lat.append
        wake = self._wake
        grants = [partial(wake, p) for p in range(len(gens))]
        arrive = self.barrier.arrive
        charge_compute = self.charge_compute
        compute_time = sim.machine.compute_time
        compute_by_proc = self._compute_by_proc
        mailbox = self._mailbox
        waiting_recv = self._waiting_recv
        # The residency mirror, when armed: one kernel call per read/write
        # (an A_* result); values stay in the registry, read / written at
        # initiation.
        access = self._access
        h = sim._h
        if access is not None:
            A_DONE, A_FLOW = sim._lib.A_DONE, sim._lib.A_FLOW
        values = self.registry._values
        # Retry accounting (None outside the failure axis: one dead-cheap
        # check per read/write keeps the zero-failure hot path intact).
        retry = self.note_retry if self._failview is not None else None

        def step(p: int) -> None:
            """Resume processor ``p``; run it until it blocks."""
            gen_send = gens[p].send
            value = flow_value[p]
            # A request whose flow blocked us completes exactly now: close
            # out its latency sample (see __init__).
            issued = pending[p]
            if issued is not None:
                pending[p] = None
                lat_append(sim.now - issued)
            while True:
                try:
                    req = gen_send(value)
                    if recorder is not None:
                        recorder.record_request(p, req)
                except StopIteration as stop:
                    gens[p] = None
                    self._finished += 1
                    self._final_time[p] = sim.now
                    self.program_results[p] = stop.value
                    return
                cls = req.__class__
                now = sim.now
                if cls is ReadReq:
                    var = req.var
                    if retry is not None:
                        retry(var.vid)
                    if access is None:
                        res = strategy.read(p, var, now)
                    else:
                        r = access(h, p, var.vid, 0, now)
                        if r == A_DONE:  # a hit
                            value = values[var.vid]
                            lat_append(0.0)
                            continue
                        if r == A_FLOW:  # the miss flow resumes us
                            flow_value[p] = values[var.vid]
                            pending[p] = now
                            blocked_on[p] = req
                            return
                        res = self.cross(p, var, False, None, now)
                    if res is None:
                        # Miss: a flow was launched; it resumes us on completion.
                        pending[p] = now
                        blocked_on[p] = req
                        return
                    done, value = res
                    if done > now:
                        raise late_completion(strategy, "read", done, now)
                    lat_append(done - now)
                    continue
                if cls is WriteReq:
                    var = req.var
                    if retry is not None:
                        retry(var.vid)
                    value = None
                    if access is None:
                        done = strategy.write(p, var, req.value, now)
                    else:
                        r = access(h, p, var.vid, 1, now)
                        if r == A_DONE:  # a local write
                            values[var.vid] = req.value
                            lat_append(0.0)
                            continue
                        if r == A_FLOW:  # the invalidation flow resumes us
                            values[var.vid] = req.value
                            flow_value[p] = None
                            pending[p] = now
                            blocked_on[p] = req
                            return
                        done = self.cross(p, var, True, req.value, now)
                    if done is None:
                        pending[p] = now
                        blocked_on[p] = req
                        return
                    if done > now:
                        raise late_completion(strategy, "write", done, now)
                    lat_append(done - now)
                    continue
                if cls is ComputeReq:
                    value = None
                    if not charge_compute:
                        continue
                    dt = req.seconds + compute_time(req.ops)
                    if dt <= 0.0:
                        continue
                    compute_by_proc[p] += dt
                    blocked_on[p] = req
                    wake(p, now + dt)
                    return
                if cls is BarrierReq:
                    blocked_on[p] = req
                    if req.phase is not None:
                        if self._barrier_label_set and self._barrier_label != req.phase:
                            raise RuntimeError(
                                f"inconsistent barrier phase labels: "
                                f"{self._barrier_label!r} vs {req.phase!r}"
                            )
                        self._barrier_label = req.phase
                        self._barrier_label_set = True
                    if req.reset:
                        self._barrier_reset = True
                    # The release wakes us with no value (the pass pushes
                    # the wake-up itself, so nothing else stashes one).
                    flow_value[p] = None
                    boundary = arrive(p, now)
                    if boundary is not None:
                        self._barrier_boundary(boundary)
                    return
                if cls is LockReq:
                    blocked_on[p] = req
                    strategy.lock(p, req.var, now, grants[p])
                    return
                if cls is UnlockReq:
                    done = strategy.unlock(p, req.var, now)
                    value = None
                    if done > now:
                        raise late_completion(strategy, "unlock", done, now)
                    continue
                if cls is SendReq:
                    nic_before = max(now, sim.nic_free[p])
                    is_data = req.payload_bytes > 0
                    wire = (
                        req.payload_bytes + sim.machine.header_bytes
                        if is_data
                        else sim.machine.ctrl_bytes
                    )
                    arrival = sim.send_leg(p, req.dst, req.payload_bytes, now, is_data=is_data)
                    self._deliver(req.dst, req.tag, arrival, req.value)
                    value = None
                    t_cont = nic_before + sim.machine.nic_overhead(wire) if req.dst != p else now
                    if t_cont <= now:
                        continue
                    blocked_on[p] = req
                    wake(p, t_cont)
                    return
                if cls is RecvReq:
                    key = (p, req.tag)
                    box = mailbox.get(key)
                    if box:
                        arrival, value = box.pop(0)
                        if arrival <= now:
                            continue
                        blocked_on[p] = req
                        wake(p, arrival, value)
                        return
                    blocked_on[p] = req
                    waiting_recv[key] = True
                    return
                if cls is MarkReq:
                    if req.kind == "reset_measurement":
                        self._reset_measurement()
                        value = None
                        continue
                    raise ValueError(f"unknown mark {req.kind!r}")
                raise TypeError(f"program on p{p} yielded unexpected object {req!r}")

        sim.resume_hook = step

    # -------------------------------------------------------------- barriers
    def _barrier_boundary(self, boundary: float) -> None:
        """Every processor arrived and the barrier pushed their releases:
        close / open the labelled phase and reset measurement at the
        boundary (the latest release)."""
        if self._barrier_label_set:
            label = self._barrier_label
            self._barrier_label = None
            self._barrier_label_set = False
            self._close_phase(boundary)
            self._open_phase(label, boundary)
        if self._barrier_reset:
            self._barrier_reset = False
            self._reset_measurement(at=boundary)

    # ------------------------------------------------------ message passing
    def _deliver(self, dst: int, tag: Any, arrival: float, value: Any) -> None:
        key = (dst, tag)
        if self._waiting_recv.pop(key, None):
            self._wake(dst, arrival, value)
        else:
            self._mailbox.setdefault(key, []).append((arrival, value))

    # ------------------------------------------------- phases / measurement
    def _close_phase(self, t: float) -> None:
        """Book the open phase's time and compute up to ``t`` (its traffic
        is already in its own accumulator)."""
        acc = self._phase_acc[self._phase_name]
        acc.time += max(0.0, t - self._phase_start)
        acc.compute += self._compute_by_proc - self._phase_compute_mark
        self._phase_compute_mark = self._compute_by_proc.copy()

    def _open_phase(self, name: str, t: float) -> None:
        """Point the engine at ``name``'s accumulator from instant ``t``
        (a recurring name re-binds the one it already has)."""
        acc = self._phase_acc.get(name)
        if acc is None:
            acc = self._phase_acc[name] = _PhaseAcc(LinkStats(self.sim.topology))
        self.sim.stats = acc.stats
        self._phase_name = name
        self._phase_start = t

    def _reset_measurement(self, at: Optional[float] = None) -> None:
        """Zero all traffic and phase accounting from instant ``at``
        (default: now): every phase accumulator is dropped and the open
        phase gets a fresh one."""
        t = self.sim.now if at is None else at
        self.measure_start = t
        self._phase_acc = {}
        self._open_phase(self._phase_name, t)
        self._compute_by_proc[:] = 0.0
        self._phase_compute_mark[:] = 0.0
        # No request is in flight at a measurement boundary (it is a
        # barrier boundary: every processor has arrived), so the latency
        # sample restarts cleanly and the storage integral re-anchors at
        # the boundary with the currently-held copies still accruing.
        del self._lat[:]
        if self._access is not None:
            self.fold_mirror()
        self.strategy.reset_counters()
        self.strategy.reset_storage(t)
        if self._storage_sink is not None:
            self._storage[:] = self.strategy.delegate_storage(self._storage_sink)


def run_spmd(
    topology: Topology,
    strategy,
    program: ProgramFactory,
    machine: MachineModel = GCEL,
    **kwargs,
) -> RunResult:
    """Convenience one-shot: build a :class:`Runtime`, run, return the result."""
    rt = Runtime(topology, strategy, machine, **kwargs)
    result = rt.run(program)
    result.extra["runtime"] = rt
    return result
