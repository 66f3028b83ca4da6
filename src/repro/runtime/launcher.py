"""The SPMD launcher: drives P program generators through the simulator.

This is DIVA's runtime loop.  Every processor runs one program (a generator
over :mod:`repro.runtime.api` requests); the launcher dispatches each
request to the data-management strategy, the barrier component, the lock
manager or the message-passing layer, advancing virtual time through the
event heap.  Zero-cost completions (cache hits, local writes) are resumed
inline to keep large runs fast.
"""

from __future__ import annotations

from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..metrics import latency_percentiles
from ..network.machine import GCEL, MachineModel
from ..network.stats import LinkStats, PhaseStats
from ..network.topology import Topology
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
        # The one flow completion: a strategy stashes what the blocked
        # processor resumes with (a read's value) when it launches the
        # flow -- at most one is in flight per processor, programs block
        # on it -- and the engine calls the hook at the completion time.
        self.flow_value: List[Any] = [None] * topology.n_nodes
        self.sim.resume_hook = self._flow_done
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
        # and are closed out at the resume _step entry -- both engines
        # re-enter at the exact flow completion time, so the sample is
        # engine-identical.
        self._lat = array("d")
        self._lat_pending: List[Optional[float]] = [None] * p

        # message passing
        self._mailbox: Dict[Tuple[int, Any], List[Tuple[float, Any]]] = {}
        self._waiting_recv: Dict[Tuple[int, Any], bool] = {}

        # barrier bookkeeping
        self._barrier_releases: List[Tuple[int, float]] = []
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

    # ------------------------------------------------------------- variables
    def create_var(self, name: str, payload_bytes: int, creator: int, value: Any) -> GlobalVariable:
        var = self.registry.create(name, payload_bytes, creator, value)
        self.strategy.register(var)
        if self._recorder is not None:
            self._recorder.record_create(creator, var)
        return var

    # ------------------------------------------------------------------ run
    def run(self, program: ProgramFactory) -> RunResult:
        """Run ``program(env)`` on every processor to completion."""
        topo = self.sim.topology
        for p in range(topo.n_nodes):
            self._gens[p] = program(Env(self, p))
            self.sim.schedule(0.0, self._step, p, None)
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
        view = self._failview
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
            requests_failed=view.routes_lost if view is not None else 0,
            requests_stalled=view.routes_detoured if view is not None else 0,
            requests_retried=self.requests_retried,
            repairs=self.repairs,
            failure_events=view.events_applied if view is not None else 0,
            extra={},
        )

    # -------------------------------------------------------------- failures
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
    def _step(self, p: int, value: Any) -> None:
        """Resume processor ``p`` with ``value``; run until it blocks.

        This is the request dispatch loop -- one iteration per program
        request, millions per large run -- so the hot collaborators
        (generator send, strategy entry points, scheduler) are bound to
        locals once and the zero-cost completion paths (``done <= now``)
        continue inline without touching the event heap.
        """
        gen_send = self._gens[p].send
        sim = self.sim
        strategy = self.strategy
        recorder = self._recorder
        schedule = sim.schedule
        lat_append = self._lat.append
        pending = self._lat_pending
        # A request whose flow blocked us completes exactly now: close
        # out its latency sample (see __init__).
        issued = pending[p]
        if issued is not None:
            pending[p] = None
            lat_append(sim.now - issued)
        # Retry accounting (None outside the failure axis: one dead-cheap
        # check per read/write keeps the zero-failure hot path intact).
        retried = self._repaired_vids if self._failview is not None else None
        while True:
            try:
                req = gen_send(value)
                if recorder is not None:
                    recorder.record_request(p, req)
            except StopIteration as stop:
                self._gens[p] = None
                self._finished += 1
                self._final_time[p] = sim.now
                self.program_results[p] = stop.value
                return
            cls = req.__class__
            now = sim.now
            if cls is ReadReq:
                if retried is not None and req.var.vid in retried:
                    retried.discard(req.var.vid)
                    self.requests_retried += 1
                res = strategy.read(p, req.var, now)
                if res is None:
                    # Miss: a flow was launched; it resumes us on completion.
                    pending[p] = now
                    self._blocked_on[p] = req
                    return
                done, value = res
                lat_append(done - now)
                if done <= now:
                    continue
                self._blocked_on[p] = req
                schedule(done, self._step, p, value)
                return
            if cls is WriteReq:
                if retried is not None and req.var.vid in retried:
                    retried.discard(req.var.vid)
                    self.requests_retried += 1
                done = strategy.write(p, req.var, req.value, now)
                value = None
                if done is None:
                    pending[p] = now
                    self._blocked_on[p] = req
                    return
                lat_append(done - now)
                if done <= now:
                    continue
                self._blocked_on[p] = req
                schedule(done, self._step, p, None)
                return
            if cls is ComputeReq:
                value = None
                if not self.charge_compute:
                    continue
                dt = req.seconds + sim.machine.compute_time(req.ops)
                if dt <= 0.0:
                    continue
                self._compute_by_proc[p] += dt
                self._blocked_on[p] = req
                schedule(now + dt, self._step, p, None)
                return
            if cls is BarrierReq:
                self._blocked_on[p] = req
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
                self.barrier.arrive(p, now, self._on_barrier_release)
                return
            if cls is LockReq:
                self._blocked_on[p] = req
                var = req.var

                def grant(t: float, _p: int = p) -> None:
                    schedule(t, self._step, _p, None)

                strategy.lock(p, var, now, grant)
                return
            if cls is UnlockReq:
                done = strategy.unlock(p, req.var, now)
                value = None
                if done <= now:
                    continue
                self._blocked_on[p] = req
                schedule(done, self._step, p, None)
                return
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
                self._blocked_on[p] = req
                schedule(t_cont, self._step, p, None)
                return
            if cls is RecvReq:
                key = (p, req.tag)
                box = self._mailbox.get(key)
                if box:
                    arrival, value = box.pop(0)
                    if arrival <= now:
                        continue
                    self._blocked_on[p] = req
                    schedule(arrival, self._step, p, value)
                    return
                self._blocked_on[p] = req
                self._waiting_recv[key] = True
                return
            if cls is MarkReq:
                if req.kind == "reset_measurement":
                    self._reset_measurement()
                    value = None
                    continue
                raise ValueError(f"unknown mark {req.kind!r}")
            raise TypeError(f"program on p{p} yielded unexpected object {req!r}")

    def _flow_done(self, proc: int) -> None:
        """The simulator's resume hook: the flow ``proc`` blocked on
        completed now."""
        self._step(proc, self.flow_value[proc])

    # -------------------------------------------------------------- barriers
    def _on_barrier_release(self, proc: int, t: float) -> None:
        self._barrier_releases.append((proc, t))
        if len(self._barrier_releases) == self.sim.topology.n_nodes:
            releases = self._barrier_releases
            self._barrier_releases = []
            boundary = max(t for _, t in releases)
            label = self._barrier_label if self._barrier_label_set else None
            if self._barrier_label_set:
                self._barrier_label = None
                self._barrier_label_set = False
                self._close_phase(boundary)
                self._open_phase(label, boundary)
            if self._barrier_reset:
                self._barrier_reset = False
                self._reset_measurement(at=boundary)
            for proc_, t_ in releases:
                self.sim.schedule(t_, self._step, proc_, None)

    # ------------------------------------------------------ message passing
    def _deliver(self, dst: int, tag: Any, arrival: float, value: Any) -> None:
        key = (dst, tag)
        if self._waiting_recv.pop(key, None):
            self.sim.schedule(arrival, self._step, dst, value)
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
        self.strategy.reset_counters()
        self.strategy.reset_storage(t)


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
