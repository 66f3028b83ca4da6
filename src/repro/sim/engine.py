"""Deterministic discrete-event simulator of the mesh machine.

The simulator models the three resources that determine execution time on
the GCel (see :mod:`repro.network.machine`):

* every **directed link** has an availability time; a message of size ``s``
  reserves all links of its dimension-order path atomically for ``s/BW``
  seconds starting at the earliest instant all of them are free.  This is
  the standard whole-path approximation of wormhole routing: a blocked worm
  occupies its path, so bandwidth-contended links serialize messages.
* every **processor NIC** has an availability time; each message send and
  each receive occupies it for the startup overhead.  This serialization is
  what turns the fixed-home strategy's home processor into a hotspot and
  what penalizes deep access trees (many intermediate stops).
* every **processor program** advances its own virtual clock through
  compute charges and blocking operations.

Timing discipline
-----------------
Protocol operations are *atomic at initiation*: when an operation starts,
its message legs are timed immediately (in simulation-time order of
initiation), updating resource availabilities.  Legs of operations
initiated earlier therefore acquire resources first -- FCFS per operation,
which is the natural service order of the real system up to reordering of
in-flight messages.  Event-driven behaviour that genuinely depends on
*future* state (lock grants, barrier releases, message-passing receives)
goes through the event heap.

Hot path
--------
Protocol flows (chains, invalidation multicasts) are *compiled*: their
legs' wire sizes and machine cost terms are resolved at construction, and
the event loop steps them inline -- one heap pop per message leg, no
per-leg Python function calls (see the ``_CHAIN``/``_MDOWN``/``_MACK``
event kinds below).  When the optional C kernel is available
(:mod:`repro.sim._ckern`), the same loop runs natively and Python is
re-entered only for generic events and flow completions; both engines
produce bit-identical results, leg for leg.  The deprecated
``Simulator.mesh`` alias of ``topology`` was removed on schedule.
"""

from __future__ import annotations

import gc
import heapq
import itertools
from typing import Callable, List, Optional, Sequence, Tuple

from ..network.machine import MachineModel
from ..network.mesh import Mesh2D
from ..network.routing import DENSE_NODE_LIMIT, get_route_table
from ..network.stats import LinkStats
from ..network.topology import Hypercube, Topology
from ..network.torus import Torus2D
from . import _ckern

__all__ = ["Simulator", "SimDeadlock"]

_INF = float("inf")


class SimDeadlock(RuntimeError):
    """Raised when the event heap drains while programs are still blocked."""


#: Inline event kinds of the pure-Python loop.  The run loop recognizes
#: these sentinels in slot 2 of a heap item and executes the flow step
#: directly in its own frame -- no closure call, no ``send_leg`` call, no
#: ``schedule`` call per leg.  Event keys ``(time, seq)`` and all
#: resource/stat side effects are produced at exactly the code points the
#: closure-based flows used, so results are bit-identical; only the
#: interpreter overhead changes.  Item layouts (flat; heap comparisons
#: never reach slot 2 because seq is unique):
#:   generic : (time, seq, callback, args)
#:   _CHAIN  : (time, seq, _CHAIN, legs, index, done)
#:   _MDOWN  : (time, seq, _MDOWN, ctx, node, parent_host, pend)
#:   _MACK   : (time, seq, _MACK, ctx, node, parent_host, pend)
_CHAIN = object()
_MDOWN = object()
_MACK = object()


class ServeResume:
    """Serving fast-path completion marker for ``resume_event``.

    When the serving session runs in kernel-fast mode, a flow whose
    completion should feed the C-side request dispatcher passes
    ``ServeResume(proc)`` as ``resume_event``: the kernel pushes a
    native ``K_SDONE`` for ``proc`` at the completion time (the exact
    push point of the classic auto-resume), consuming the same seqno, so
    event order is bit-identical to the generator-based path.  Only
    meaningful in kernel mode -- the serving fast path requires the C
    kernel.
    """

    __slots__ = ("proc",)

    def __init__(self, proc: int):
        self.proc = proc


class _ResumeDone:
    """Pure-engine completion shim for ``resume_event``: schedules the
    stored ``callback(*args)`` at the flow's completion time (seq assigned
    at completion, exactly like the kernel's auto-resume push)."""

    __slots__ = ("_sim", "_event")

    def __init__(self, sim: "Simulator", event: tuple):
        self._sim = sim
        self._event = event

    def __call__(self, t: float) -> None:
        cb, args = self._event
        sim = self._sim
        heapq.heappush(sim._heap, (t, next(sim._seq), cb, args))


class Simulator:
    """Resource bookkeeping + event heap for one run.

    Parameters
    ----------
    topology:
        The network topology (mesh, torus, hypercube, ...); fixes the
        flat-array sizes of the link/NIC resources and the routes.
    machine:
        Cost model (use :data:`repro.network.machine.ZERO_COST` in tests that
        only check traffic).
    """

    #: Class-wide escape hatch: force the pure-Python engine even when the
    #: C kernel is loadable (used by the engine-equivalence tests; the
    #: ``REPRO_PURE_PYTHON`` environment variable disables the kernel
    #: process-wide).
    force_pure = False

    __slots__ = (
        "topology",
        "machine",
        "_stats",
        "link_free",
        "nic_free",
        "now",
        "last_event_time",
        "_heap",
        "_seq",
        "_routes",
        "_route_lookup",
        "_n_nodes",
        "_header_bytes",
        "_ctrl_bytes",
        "_nic_fixed",
        "_nic_byte",
        "_bandwidth",
        "_hop_latency",
        "_local_overhead",
        "_flush_at",
        "_kern",
        "_h",
        "_lib",
        "_ffi",
        "_out",
        "_stage_i",
        "_stage_d",
        "_stage_cap",
        "_objs",
        "_obj_free",
        "_np_arrays",
        "_failview",
        "serve_cb",
    )

    def __init__(self, topology: Topology, machine: MachineModel):
        self.topology = topology
        self.machine = machine
        self.now: float = 0.0
        #: Time of the last event :meth:`run` popped, inline flow legs
        #: included (``now`` only follows Python-visible events).  Both
        #: loops store it on exit; it is the serving layer's clamp clock
        #: for requests deferred past their arrival.
        self.last_event_time: float = 0.0
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._seq = itertools.count()
        # Hot-path caches: the per-topology route table and the frozen
        # machine constants, so leg processing never chases attributes.
        table = get_route_table(topology)
        self._routes = table.routes
        self._route_lookup = table.lookup
        self._n_nodes = topology.n_nodes
        self._header_bytes = machine.header_bytes
        self._ctrl_bytes = machine.ctrl_bytes
        self._nic_fixed = machine.nic_fixed_overhead
        self._nic_byte = machine.nic_byte_overhead
        self._bandwidth = machine.link_bandwidth
        self._hop_latency = machine.hop_latency
        self._local_overhead = machine.local_overhead

        # The shipped topology classes have closed-form routing that the
        # kernel mirrors natively (sim_set_topology) -- the hot loop never
        # re-enters Python for a route, and above DENSE_NODE_LIMIT routes
        # are recomputed per leg instead of cached (O(1) route memory).
        # The class check is exact: a subclass may override compute_route,
        # and then only the Python side knows the routes -- such topologies
        # use the kernel's supply path below the limit (R_NEED_ROUTE) and
        # the pure engine above it.
        cls = type(topology)
        if cls is Mesh2D:
            kind_c = 1
        elif cls is Torus2D:
            kind_c = 2
        elif cls is Hypercube:
            kind_c = 3
        else:
            kind_c = 0
        kern = None
        if not Simulator.force_pure and (
            kind_c or topology.n_nodes <= DENSE_NODE_LIMIT
        ):
            kern = _ckern.load_kernel()
        self._kern = kern
        if kern is not None:
            import numpy as np

            link_free = np.zeros(topology.num_links, dtype=np.float64)
            nic_free = np.zeros(topology.n_nodes, dtype=np.float64)
            self.link_free = link_free
            self.nic_free = nic_free
            self._np_arrays = (link_free, nic_free)  # keep buffers alive
            ffi, lib = kern.ffi, kern.lib
            self._ffi = ffi
            self._lib = lib
            self._h = ffi.gc(
                lib.sim_new(
                    topology.n_nodes,
                    machine.hop_latency,
                    machine.local_overhead,
                    ffi.cast("double *", link_free.ctypes.data),
                    ffi.cast("double *", nic_free.ctypes.data),
                    _ckern.STAGE_CAP,
                ),
                lib.sim_free,
            )
            if kind_c:
                lib.sim_set_topology(
                    self._h,
                    kind_c,
                    getattr(topology, "rows", 0),
                    getattr(topology, "cols", 0),
                    getattr(topology, "dim", 0),
                    1 if topology.n_nodes <= DENSE_NODE_LIMIT else 0,
                )
            self._stage_i = lib.sim_stage_i(self._h)
            self._stage_d = lib.sim_stage_d(self._h)
            self._stage_cap = _ckern.STAGE_CAP
            self._out = ffi.new("Crossing *")
            self._objs: List[object] = []
            self._obj_free: List[int] = []
        else:
            self._h = None
            self.link_free = [0.0] * topology.num_links
            self.nic_free = [0.0] * topology.n_nodes
        # Pure-loop pending-stats fold cadence.  Above the dense limit
        # routes are computed fresh per leg (AlgebraicRouter), so pending
        # entries no longer share cached link tuples -- fold early to keep
        # memory flat.  Cadence never affects results: folds are
        # order-exact integer sums.
        self._flush_at = (
            1_000_000 if topology.n_nodes <= DENSE_NODE_LIMIT else 65_536
        )
        self._failview = None
        #: Serving fast-path crossing handler (set by ServeSession when it
        #: arms kernel-fast mode); receives the Crossing for R_SREQ.
        self.serve_cb = None
        self._stats = None
        self.stats = LinkStats(topology)

    # ----------------------------------------------------------------- stats
    @property
    def stats(self) -> LinkStats:
        return self._stats

    @stats.setter
    def stats(self, st: LinkStats) -> None:
        """Swap the traffic accounting (measurement reset).

        In kernel mode the C side accumulates eagerly into the stats
        arrays, so the old stats object absorbs the kernel counters before
        the kernel is re-pointed (and zeroed) at the new arrays.
        """
        old = self._stats
        self._stats = st
        if self._h is not None:
            if old is not None:
                old.absorb_kernel()
            st._densify()  # the kernel accumulates into dense arrays
            lib = self._lib
            ffi = self._ffi
            lib.sim_set_stats(
                self._h,
                ffi.cast("double *", st._link_bytes.ctypes.data),
                ffi.cast("i64 *", st._link_msgs.ctypes.data),
                ffi.cast("i64 *", st._startups.ctypes.data),
                ffi.cast("i64 *", st._receives.ctypes.data),
            )
            st.bind_kernel(lib, self._h)

    # ------------------------------------------------------------ event heap
    def schedule(self, time: float, callback: Callable, *args) -> None:
        """Run ``callback(*args)`` at simulation ``time`` (>= now)."""
        if time < self.now - 1e-12:
            raise ValueError(f"cannot schedule into the past: {time} < now {self.now}")
        if self._h is not None:
            self._lib.sim_push_generic(self._h, time, self._obj_put((callback, args)))
        else:
            heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    def _obj_put(self, value) -> int:
        free = self._obj_free
        if free:
            i = free.pop()
            self._objs[i] = value
        else:
            i = len(self._objs)
            self._objs.append(value)
        return i

    def _reserve_stage(self, n: int) -> None:
        """Grow the kernel staging buffers when a flow outsizes them (huge
        multicasts / chains on very large machines)."""
        if n > self._stage_cap:
            self._stage_cap = self._lib.sim_ensure_stage(self._h, n)
            self._stage_i = self._lib.sim_stage_i(self._h)
            self._stage_d = self._lib.sim_stage_d(self._h)

    def _supply_route(self, src: int, dst: int) -> None:
        links = self._route_lookup(src, dst)
        self._reserve_stage(len(links))
        self._stage_i[0 : len(links)] = list(links)
        self._lib.sim_set_route(self._h, src, dst, len(links))

    def install_failures(self, view) -> None:
        """Route every leg through ``view`` (a
        :class:`repro.network.failures.FailureView`).

        Must run before :meth:`run`: the pure loop binds the route table
        and resolver as locals at entry.  The view's per-epoch
        ``route_cache`` replaces the shared pristine table, and its
        failure-aware ``lookup`` becomes the resolver.  On the C kernel
        the closed-form topology routing is switched off (kind 0) so
        every route miss re-enters Python (R_NEED_ROUTE) and gets the
        failure-aware answer -- both engines then resolve each distinct
        ``(src, dst)`` exactly once per failure epoch.
        """
        self._failview = view
        self._routes = view.route_cache
        self._route_lookup = view.lookup
        if self._h is not None:
            self._lib.sim_set_topology(self._h, 0, 0, 0, 0, 0)

    def apply_failure_event(self, event) -> None:
        """Apply one schedule event: flip the view's down sets and start
        a fresh route epoch in whichever engine is active (the view
        clears the shared cache dict in place; the kernel additionally
        drops its interned route hash)."""
        view = self._failview
        if view is None:
            raise RuntimeError("no FailureView installed (install_failures)")
        view.apply(event)
        if self._h is not None:
            self._lib.sim_clear_routes(self._h)

    @property
    def pending_events(self) -> int:
        if self._h is not None:
            return self._lib.sim_heap_size(self._h)
        return len(self._heap)

    def run(self, until: Optional[float] = None) -> None:
        """Drain the event heap, optionally only up to a time horizon.

        With ``until`` set, events stamped later than the horizon stay
        queued and ``run`` returns with them pending; calling ``run``
        again (with a later horizon, or ``None`` to drain) resumes in
        exact heap order, so a horizon-sliced run is event-for-event
        identical to a single drain.  The serving layer leans on this to
        interleave request injection with bounded simulated run-ahead.

        The cyclic garbage collector is paused for the duration of the
        drain -- the loop allocates heavily (event tuples, closures,
        generator frames) and gen-0 collections were a measured
        double-digit share of wall time; collection resumes (and catches
        up) on exit.
        """
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            if self._h is not None:
                self._run_kernel(until)
            else:
                self._run_py(until)
        finally:
            if gc_was_enabled:
                gc.enable()

    def _run_kernel(self, until: Optional[float] = None) -> None:
        """Drive the C kernel; re-enter Python only for generic events,
        flow completions, and route-table misses."""
        lib = self._lib
        h = self._h
        out = self._out
        objs = self._objs
        free = self._obj_free
        horizon = _INF if until is None else until
        sim_run = lib.sim_run_until
        while True:
            r = sim_run(h, out, horizon)
            if r == 1:  # generic event
                i = out.a
                cb, args = objs[i]
                objs[i] = None
                free.append(i)
                self.now = out.time
                cb(*args)
            elif r == 2 or r == 3:  # chain / multicast completion
                i = out.a
                done = objs[i]
                objs[i] = None
                free.append(i)
                self.now = out.time
                done(out.targ)
            elif r == 4:  # route miss: supply and re-enter
                self._supply_route(out.a, out.b)
            elif r == 5:  # serving fast path: a request crossed to Python
                self.serve_cb(out)
            else:
                self.last_event_time = out.time
                break

    def _run_py(self, until: Optional[float] = None) -> None:
        horizon = _INF if until is None else until
        heap = self._heap
        pop = heapq.heappop
        push = heapq.heappush
        seq_next = self._seq.__next__
        nic = self.nic_free
        lf = self.link_free
        routes = self._routes
        lookup = self._route_lookup
        nn = self._n_nodes
        hop = self._hop_latency
        local_ov = self._local_overhead
        CHAIN = _CHAIN
        MDOWN = _MDOWN
        MACK = _MACK
        # The pending-stats append is rebound after every generic callback
        # (only those can swap self.stats, via measurement resets); the
        # inline flow steps between two generic events all hit one binding.
        pend_append = self._stats._pending.append
        last = self.last_event_time
        while heap:
            item = pop(heap)
            if item[0] > horizon:
                push(heap, item)  # same (time, seq): resumes in exact order
                break
            last = item[0]
            cb = item[2]
            if cb is CHAIN:
                time = item[0]
                legs = item[3]
                i = item[4]
                src, dst, wire, over, occ, is_data = legs[i]
                if src == dst:
                    arrive = time + local_ov
                    pend_append(((), 0, src, dst, is_data))
                else:
                    t_send = nic[src]
                    if time > t_send:
                        t_send = time
                    depart = t_send + over
                    links = routes.get(src * nn + dst)
                    if links is None:
                        links = lookup(src, dst)
                    start = depart
                    for link in links:
                        v = lf[link]
                        if v > start:
                            start = v
                    end = start + occ
                    arrive = end + len(links) * hop
                    t_recv = nic[dst]
                    if arrive > t_recv:
                        t_recv = arrive
                    arrive = t_recv + over
                    nic[src] = depart
                    for link in links:
                        lf[link] = end
                    nic[dst] = arrive
                    pend_append((links, wire, src, dst, is_data))
                i += 1
                if i == len(legs):
                    self.now = time
                    item[5](arrive)
                else:
                    push(heap, (arrive, seq_next(), CHAIN, legs, i, item[5]))
                continue
            if cb is MDOWN:
                # Multicast down-leg into `node`, then fan out to its
                # children (or start the combining ack when childless).
                time = item[0]
                ctx = item[3]
                node = item[4]
                parent_host = item[5]
                children, hosts, dwire, dover, docc, dis_data = ctx[:6]
                hn = hosts[node]
                if parent_host == hn:
                    t_here = time + local_ov
                    pend_append(((), 0, parent_host, hn, dis_data))
                else:
                    t_send = nic[parent_host]
                    if time > t_send:
                        t_send = time
                    depart = t_send + dover
                    links = routes.get(parent_host * nn + hn)
                    if links is None:
                        links = lookup(parent_host, hn)
                    start = depart
                    for link in links:
                        v = lf[link]
                        if v > start:
                            start = v
                    end = start + docc
                    t_here = end + len(links) * hop
                    t_recv = nic[hn]
                    if t_here > t_recv:
                        t_recv = t_here
                    t_here = t_recv + dover
                    nic[parent_host] = depart
                    for link in links:
                        lf[link] = end
                    nic[hn] = t_here
                    pend_append((links, dwire, parent_host, hn, dis_data))
                kids = children.get(node)
                if kids:
                    npend = [len(kids), t_here, node, parent_host, item[6]]
                    for kid in kids:
                        push(heap, (t_here, seq_next(), MDOWN, ctx, kid, hn, npend))
                else:
                    push(heap, (t_here, seq_next(), MACK, ctx, node, parent_host, item[6]))
                continue
            if cb is MACK:
                # Combined ack from `node` back to its parent's host.
                time = item[0]
                ctx = item[3]
                hosts = ctx[1]
                awire = ctx[6]
                aover = ctx[7]
                parent_host = item[5]
                hn = hosts[item[4]]
                if hn == parent_host:
                    t_ack = time + local_ov
                    pend_append(((), 0, hn, parent_host, False))
                else:
                    t_send = nic[hn]
                    if time > t_send:
                        t_send = time
                    depart = t_send + aover
                    links = routes.get(hn * nn + parent_host)
                    if links is None:
                        links = lookup(hn, parent_host)
                    start = depart
                    for link in links:
                        v = lf[link]
                        if v > start:
                            start = v
                    end = start + ctx[8]
                    t_ack = end + len(links) * hop
                    t_recv = nic[parent_host]
                    if t_ack > t_recv:
                        t_recv = t_ack
                    t_ack = t_recv + aover
                    nic[hn] = depart
                    for link in links:
                        lf[link] = end
                    nic[parent_host] = t_ack
                    pend_append((links, awire, hn, parent_host, False))
                pend = item[6]
                pend[0] -= 1
                if t_ack > pend[1]:
                    pend[1] = t_ack
                if pend[0] == 0:
                    if pend[2] is None:
                        self.now = item[0]
                        pend[4](pend[1])  # root: flow complete
                    else:
                        push(heap, (pend[1], seq_next(), MACK, ctx, pend[2], pend[3], pend[4]))
                continue
            self.now = item[0]
            cb(*item[3])
            stats = self._stats
            if len(stats._pending) >= self._flush_at:
                stats._flush()  # keep pure-engine memory flat on huge runs
            pend_append = stats._pending.append
        self.last_event_time = last

    # -------------------------------------------------------- flow builders
    def leg_costs(self, payload_bytes: int) -> Tuple[float, ...]:
        """``(cwire, cover, cocc, dwire, dover, docc)``: the compiled cost
        shapes of a request/reply pair for one payload size -- control
        legs up, data legs down -- as :meth:`push_updown` takes them."""
        cwire = self._ctrl_bytes
        dwire = payload_bytes + self._header_bytes
        return (
            cwire,
            self._nic_fixed + cwire * self._nic_byte,
            cwire / self._bandwidth,
            dwire,
            self._nic_fixed + dwire * self._nic_byte,
            dwire / self._bandwidth,
        )

    def push_chain(self, t: float, legs: list, done: Callable[[float], None]) -> None:
        """Schedule a compiled leg chain (see :func:`repro.sim.flows.chain`).

        ``legs`` holds ``(src, dst, wire, overhead, occupancy, is_data)``
        tuples -- wire size and the machine cost terms precomputed at
        construction.  Must not be empty.
        """
        if self._h is not None:
            self._reserve_stage(3 * len(legs))
            stage_i = self._stage_i
            stage_d = self._stage_d
            for j, (src, dst, wire, over, occ, is_data) in enumerate(legs):
                k = 3 * j
                stage_i[k] = src
                stage_i[k + 1] = dst
                stage_i[k + 2] = 1 if is_data else 0
                stage_d[k] = wire
                stage_d[k + 1] = over
                stage_d[k + 2] = occ
            self._lib.sim_push_chain_legs(self._h, t, len(legs), self._obj_put(done))
            return
        heapq.heappush(self._heap, (t, next(self._seq), _CHAIN, legs, 0, done))

    def push_updown(
        self,
        t: float,
        hosts: Sequence[int],
        cwire: float,
        cover: float,
        cocc: float,
        dwire: float,
        dover: float,
        docc: float,
        done: Callable[[float], None] = None,
        resume_event: tuple = None,
    ) -> None:
        """Schedule the request/reply chain ``hosts[0] -> .. -> hosts[-1] ->
        .. -> hosts[0]``: control legs up, data legs back down (the access
        tree read and the fixed-home round trip).  ``len(hosts) >= 2``.

        Completion: either ``done(completion_time)`` is called, or -- the
        overwhelmingly common case -- ``resume_event=(callback, args)``
        schedules ``callback(*args)`` *at* the completion time, which the
        C kernel does without re-entering Python.
        """
        if self._h is not None:
            self._reserve_stage(len(hosts))
            self._stage_i[0 : len(hosts)] = hosts
            if type(resume_event) is ServeResume:
                obj, auto = resume_event.proc, 2
            elif resume_event is not None:
                obj, auto = self._obj_put(resume_event), 1
            else:
                obj, auto = self._obj_put(done), 0
            self._lib.sim_push_chain_updown(
                self._h, t, len(hosts), cwire, cover, cocc, dwire, dover, docc,
                obj, auto,
            )
            return
        legs = []
        prev = hosts[0]
        for h in hosts[1:]:
            legs.append((prev, h, cwire, cover, cocc, False))
            prev = h
        n = len(hosts)
        for i in range(n - 1, 0, -1):
            legs.append((hosts[i], hosts[i - 1], dwire, dover, docc, True))
        if resume_event is not None:
            done = _ResumeDone(self, resume_event)
        heapq.heappush(self._heap, (t, next(self._seq), _CHAIN, legs, 0, done))

    def push_path(
        self,
        t: float,
        hosts: Sequence[int],
        wire: float,
        over: float,
        occ: float,
        is_data: bool,
        reverse: bool,
        done: Callable[[float], None] = None,
        resume_event: tuple = None,
    ) -> None:
        """Schedule a one-way chain along ``hosts`` (reversed when
        ``reverse``), all legs sharing one cost shape.  ``len(hosts) >= 2``.
        Completion semantics as in :meth:`push_updown`.
        """
        if self._h is not None:
            self._reserve_stage(len(hosts))
            self._stage_i[0 : len(hosts)] = hosts
            if type(resume_event) is ServeResume:
                obj, auto = resume_event.proc, 2
            elif resume_event is not None:
                obj, auto = self._obj_put(resume_event), 1
            else:
                obj, auto = self._obj_put(done), 0
            self._lib.sim_push_chain_path(
                self._h, t, len(hosts), 1 if reverse else 0, wire, over, occ,
                1 if is_data else 0, obj, auto,
            )
            return
        legs = []
        n = len(hosts)
        if reverse:
            for i in range(n - 1, 0, -1):
                legs.append((hosts[i], hosts[i - 1], wire, over, occ, is_data))
        else:
            prev = hosts[0]
            for h in hosts[1:]:
                legs.append((prev, h, wire, over, occ, is_data))
                prev = h
        if resume_event is not None:
            done = _ResumeDone(self, resume_event)
        heapq.heappush(self._heap, (t, next(self._seq), _CHAIN, legs, 0, done))

    def push_multicast(
        self,
        root_host: int,
        kids: list,
        children: dict,
        hosts: dict,
        payload: int,
        t: float,
        done: Callable[[float], None],
    ) -> None:
        """Schedule a multicast-with-combining-acks flow rooted at
        ``root_host`` over the ``kids`` of the root (see
        :func:`repro.sim.flows.multicast_acks`).  ``kids`` must be
        non-empty (the childless case completes synchronously upstream).
        """
        is_data = payload > 0
        dwire = payload + self._header_bytes if is_data else self._ctrl_bytes
        dover = self._nic_fixed + dwire * self._nic_byte
        docc = dwire / self._bandwidth
        awire = self._ctrl_bytes
        aover = self._nic_fixed + awire * self._nic_byte
        aocc = awire / self._bandwidth
        if self._h is not None:
            # Remap tree node ids to dense local ids for the C tables.
            nodes = list(hosts)
            idx = {n: i for i, n in enumerate(nodes)}
            tbl = len(nodes)
            stage = [hosts[n] for n in nodes]
            kid_cnt = []
            kid_off = []
            kids_flat: list = []
            for n in nodes:
                ks = children.get(n) or ()
                kid_off.append(len(kids_flat))
                kid_cnt.append(len(ks))
                kids_flat.extend(idx[k] for k in ks)
            stage += kid_cnt + kid_off + kids_flat + [idx[k] for k in kids]
            self._reserve_stage(len(stage))
            self._stage_i[0 : len(stage)] = stage
            self._lib.sim_push_mcast(
                self._h, t, root_host, len(kids), tbl, len(kids_flat),
                dwire, dover, docc, 1 if is_data else 0, awire, aover, aocc,
                self._obj_put(done),
            )
            return
        ctx = (children, hosts, dwire, dover, docc, is_data, awire, aover, aocc)
        pend = [len(kids), t, None, None, done]
        heap = self._heap
        seq_next = self._seq.__next__
        for kid in kids:
            heapq.heappush(heap, (t, seq_next(), _MDOWN, ctx, kid, root_host, pend))

    # -------------------------------------------------------------- messages
    def send_leg(
        self,
        src: int,
        dst: int,
        payload_bytes: int,
        ready: float,
        is_data: bool,
        count: bool = True,
    ) -> float:
        """Time one message leg and account its traffic.

        Parameters
        ----------
        src, dst:
            Processor ids.  ``src == dst`` models a message between two
            access-tree nodes hosted on the same processor (a DIVA function
            call; cheap, no link traffic).
        payload_bytes:
            Application payload; the wire size adds the header for data
            messages, control messages use the fixed control size.
        ready:
            Earliest time the leg may start (dependencies satisfied).
        is_data:
            Data messages carry the object value; control messages are
            requests/invalidations/acks.
        count:
            Set ``False`` to time a *hypothetical* leg: no traffic is
            recorded and no resource availability (NIC, links) changes --
            the call is entirely side-effect-free.

        Returns
        -------
        float
            Completion time: the instant the receiver has fully received and
            processed the message (after its receive overhead).
        """
        wire = payload_bytes + self._header_bytes if is_data else self._ctrl_bytes
        overhead = self._nic_fixed + wire * self._nic_byte
        if self._h is not None:
            lib = self._lib
            occ = wire / self._bandwidth
            flag = 1 if is_data else 0
            if count:
                r = lib.sim_send_leg(self._h, ready, src, dst, wire, overhead, occ, flag)
                if r < 0.0:
                    self._supply_route(src, dst)
                    r = lib.sim_send_leg(self._h, ready, src, dst, wire, overhead, occ, flag)
                return r
            r = lib.sim_probe_leg(self._h, ready, src, dst, wire, overhead, occ)
            if r < 0.0:
                self._supply_route(src, dst)
                r = lib.sim_probe_leg(self._h, ready, src, dst, wire, overhead, occ)
            return r

        if src == dst:
            if count:
                self._stats._pending.append(((), 0, src, dst, is_data))
            return ready + self._local_overhead
        nic = self.nic_free
        t_send = nic[src]
        if ready > t_send:
            t_send = ready
        depart = t_send + overhead
        links = self._routes.get(src * self._n_nodes + dst)
        if links is None:
            links = self._route_lookup(src, dst)
        lf = self.link_free
        start = depart
        for link in links:
            v = lf[link]
            if v > start:
                start = v
        end = start + wire / self._bandwidth
        arrive = end + len(links) * self._hop_latency
        t_recv = nic[dst]
        if arrive > t_recv:
            t_recv = arrive
        done = t_recv + overhead
        if count:
            nic[src] = depart
            for link in links:
                lf[link] = end
            nic[dst] = done
            self._stats._pending.append((links, wire, src, dst, is_data))
        return done

    def send_chain(
        self,
        hosts: Sequence[int],
        payload_bytes: int,
        ready: float,
        is_data: bool,
    ) -> float:
        """Time a store-and-forward chain of legs through ``hosts`` (the
        access-tree request/reply pattern: every intermediate tree node
        receives, inspects, and forwards).  Returns final completion time."""
        t = ready
        for a, b in zip(hosts, hosts[1:]):
            t = self.send_leg(a, b, payload_bytes, t, is_data)
        return t
