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
goes through the event heap, as a processor wake-up
(:meth:`Simulator.resume_at`); :meth:`Simulator.schedule`'s generic
callbacks are left to what is not a wake-up (failure-schedule events).

Hot path
--------
Every protocol operation is one *flow* (:meth:`Simulator.push_flow`):
message legs up a host path, an optional invalidation multicast with
combining acks from its far end, legs back down, then the issuing
processor is resumed through :attr:`Simulator.resume_hook`.  A flow is
*compiled* -- its legs' wire sizes and machine cost terms are resolved
when it is pushed -- and the event loop steps it inline: one heap pop per
message leg, no per-leg Python function calls (the ``_CHAIN`` / ``_MDOWN``
/ ``_MACK`` event kinds below).  When the optional C kernel is available
(:mod:`repro.sim._ckern`), the same loop runs natively and Python is
re-entered only to wake a processor -- a finished flow and a timed
wake-up are the same ``K_RESUME`` event -- and for generic events; both
engines produce bit-identical results, leg for leg.  A tree barrier's
combining pass (:meth:`Simulator.combine`), its wake-ups included, is one
kernel call too.
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

__all__ = ["CombineTables", "Simulator", "SimDeadlock"]

_INF = float("inf")

#: Initial capacity (ints) of the kernel's staging buffer, which carries
#: one flow / route / mirror row into C; it grows for larger ones.
STAGE_CAP = 1 << 16

#: The topology classes whose routes the kernel computes in closed form
#: -> the kernel's name of their kind (``TOPO_*`` in ``ckern/abi.h``).
_TOPO_KIND = {Mesh2D: "TOPO_MESH", Torus2D: "TOPO_TORUS", Hypercube: "TOPO_HYPERCUBE"}


class SimDeadlock(RuntimeError):
    """Raised when the event heap drains while programs are still blocked."""


#: Inline event kinds of the pure-Python loop.  The run loop recognizes
#: these sentinels in slot 2 of a heap item and executes the flow step
#: directly in its own frame -- no closure call, no ``send_leg`` call, no
#: ``schedule`` call per leg.  Event keys ``(time, seq)`` and all
#: resource/stat side effects are produced at exactly the code points the
#: C kernel produces them, so results are bit-identical.  ``flow`` is the
#: record :meth:`Simulator.push_flow` builds.  Item layouts (flat; heap
#: comparisons never reach slot 2 because seq is unique):
#:   generic : (time, seq, callback, args)
#:   _CHAIN  : (time, seq, _CHAIN, flow, leg index)
#:   _MDOWN  : (time, seq, _MDOWN, flow, node, parent_host, pend)
#:   _MACK   : (time, seq, _MACK, flow, node, parent_host, pend)
_CHAIN = object()
_MDOWN = object()
_MACK = object()

#: A leg cost shape: ``(wire bytes, NIC overhead per end, link occupancy,
#: is_data)``.
Shape = Tuple[float, float, float, bool]


class CombineTables:
    """A combining tree in the dense form :meth:`Simulator.combine` runs.

    Nodes are numbered in the pass's pre-order (0 = the root):
    ``host[i]`` is the processor hosting node ``i``, its children are
    ``kids[kid_off[i] : kid_off[i + 1]]`` and ``leaf_proc[i]`` is the
    processor a leaf stands for (-1 for an interior node).
    """

    __slots__ = ("host", "kid_off", "kids", "leaf_proc", "_c")

    def __init__(self, host, kid_off, kids, leaf_proc):
        self.host = list(host)
        self.kid_off = list(kid_off)
        self.kids = list(kids)
        self.leaf_proc = list(leaf_proc)
        self._c = None  # the kernel's buffers, built at first use


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
        "_h",
        "_lib",
        "_ffi",
        "_out",
        "_stage_i",
        "_stage_cap",
        "_objs",
        "_obj_free",
        "_np_arrays",
        "_failview",
        "_closed_form",
        "serve_cb",
        "resume_hook",
        "_ctrl_shape",
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
        ctrl = machine.ctrl_bytes
        self._ctrl_shape: Shape = (
            ctrl,
            self._nic_fixed + ctrl * self._nic_byte,
            ctrl / self._bandwidth,
            False,
        )

        # The shipped topology classes have closed-form routing that the
        # kernel mirrors natively (sim_set_topology) -- the hot loop never
        # re-enters Python for a route, and above DENSE_NODE_LIMIT routes
        # are recomputed per leg instead of cached (O(1) route memory).
        # The class check is exact: a subclass may override compute_route,
        # and then only the Python side knows the routes -- such topologies
        # use the kernel's supply path below the limit (R_NEED_ROUTE) and
        # the pure engine above it.
        topo_kind = _TOPO_KIND.get(type(topology))
        #: Whether the kernel routes every leg itself (a shipped topology,
        #: no failure view): what a pass of native legs needs.
        self._closed_form = topo_kind is not None
        kern = None
        if not Simulator.force_pure and (
            self._closed_form or topology.n_nodes <= DENSE_NODE_LIMIT
        ):
            kern = _ckern.load_kernel()
        if kern is not None:
            import numpy as np

            link_free = np.zeros(topology.n_links, dtype=np.float64)
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
                    *self._ctrl_shape[:3],
                    ffi.cast("double *", link_free.ctypes.data),
                    ffi.cast("double *", nic_free.ctypes.data),
                    STAGE_CAP,
                ),
                lib.sim_free,
            )
            if topo_kind is not None:
                lib.sim_set_topology(
                    self._h,
                    getattr(lib, topo_kind),
                    getattr(topology, "rows", 0),
                    getattr(topology, "cols", 0),
                    getattr(topology, "dim", 0),
                    1 if topology.n_nodes <= DENSE_NODE_LIMIT else 0,
                )
            self._stage_i = lib.sim_stage_i(self._h)
            self._stage_cap = STAGE_CAP
            self._out = ffi.new("Crossing *")
            self._objs: List[object] = []
            self._obj_free: List[int] = []
        else:
            self._h = None
            self.link_free = [0.0] * topology.n_links
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
        #: arms the kernel's serving rings); receives the Crossing for R_SREQ.
        self.serve_cb = None
        #: The one wake-up: ``resume_hook(proc)`` runs as an event at the
        #: completion time of the flow ``proc`` blocked on
        #: (:meth:`push_flow`) and at every :meth:`resume_at`.  The
        #: :class:`~repro.runtime.launcher.Runtime` installs its request
        #: loop here and a serving session its own request rings; a kernel
        #: whose serving rings are armed consumes flow completions natively
        #: instead.
        self.resume_hook: Optional[Callable[[int], None]] = None
        self.stats = LinkStats(topology)

    # ----------------------------------------------------------------- stats
    @property
    def stats(self) -> LinkStats:
        return self._stats

    @stats.setter
    def stats(self, st: LinkStats) -> None:
        """Swap the accumulator traffic is added into (a phase boundary,
        a measurement reset).  The pure loop appends to its pending buffer;
        the C kernel increments its five arrays through borrowed pointers,
        so a swap is one re-point."""
        topo = self.topology
        if (st.topology.n_links, st.topology.n_nodes) != (topo.n_links, topo.n_nodes):
            raise ValueError("stats accumulator is shaped for another topology")
        self._stats = st
        if self._h is not None:
            cast = self._ffi.cast
            self._lib.sim_set_stats(
                self._h,
                cast("double *", st._link_bytes.ctypes.data),
                cast("i64 *", st._link_msgs.ctypes.data),
                cast("i64 *", st._startups.ctypes.data),
                cast("i64 *", st._receives.ctypes.data),
                cast("i64 *", st._counts.ctypes.data),
            )

    # ------------------------------------------------------------ event heap
    def resume_at(self, time: float, proc: int) -> None:
        """Wake processor ``proc`` at ``time``: ``resume_hook(proc)`` runs
        then, exactly as at a finished flow's completion (one kernel
        ``K_RESUME`` event; on the pure engine the same heap entry)."""
        if self._h is not None:
            self._lib.sim_push_resume(self._h, time, proc)
        else:
            heapq.heappush(self._heap, (time, next(self._seq), self.resume_hook, (proc,)))

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
        """Grow the kernel staging buffer when a flow outsizes it (huge
        fanouts / paths on very large machines)."""
        if n > self._stage_cap:
            self._stage_cap = self._lib.sim_ensure_stage(self._h, n)
            self._stage_i = self._lib.sim_stage_i(self._h)

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
        self._closed_form = False
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
        """Drive the C kernel; re-enter Python only to wake a processor,
        for generic events, and for route-table misses."""
        lib = self._lib
        h = self._h
        out = self._out
        objs = self._objs
        free = self._obj_free
        resume = self.resume_hook
        horizon = _INF if until is None else until
        sim_run = lib.sim_run_until
        R_RESUME, R_GENERIC = lib.R_RESUME, lib.R_GENERIC
        R_NEED_ROUTE, R_SREQ = lib.R_NEED_ROUTE, lib.R_SREQ
        while True:
            r = sim_run(h, out, horizon)
            if r == R_RESUME:  # wake a processor (a finished flow, a timed wake-up)
                self.now = out.time
                resume(out.a)
            elif r == R_GENERIC:
                i = out.a
                cb, args = objs[i]
                objs[i] = None
                free.append(i)
                self.now = out.time
                cb(*args)
            elif r == R_NEED_ROUTE:  # supply and re-enter
                self._supply_route(out.a, out.b)
            elif r == R_SREQ:  # serving fast path: a request crossed to Python
                self.serve_cb(out)
            else:  # R_DONE
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
        ctrl = self._ctrl_shape
        CHAIN = _CHAIN
        MDOWN = _MDOWN
        MACK = _MACK
        # The pending-stats append is rebound after every generic callback
        # (only those can swap self.stats: phase boundaries, resets); the
        # inline flow steps between two generic events all hit one binding.
        pend_append = self._stats._pending.append
        last = self.last_event_time
        while heap:
            item = pop(heap)
            time = item[0]
            if time > horizon:
                push(heap, item)  # same (time, seq): resumes in exact order
                break
            last = time
            cb = item[2]
            # Which leg this event is: a flow's next path leg, an
            # invalidation into `node` from its parent's host, or `node`'s
            # combined ack back to it.
            if cb is CHAIN:
                flow = item[3]
                src, dst, wire, over, occ, is_data = flow[0][item[4]]
            elif cb is MDOWN:
                flow = item[3]
                src = item[5]
                dst = flow[2][0][item[4]]
                wire, over, occ, is_data = ctrl
            elif cb is MACK:
                flow = item[3]
                src = flow[2][0][item[4]]
                dst = item[5]
                wire, over, occ, is_data = ctrl
            else:
                self.now = time
                cb(*item[3])
                stats = self._stats
                if len(stats._pending) >= self._flush_at:
                    stats._flush()  # keep pure-engine memory flat on huge runs
                pend_append = stats._pending.append
                continue
            # The leg's timing: the arithmetic _ckern's leg_timing mirrors.
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
            # What the delivered leg sets off.
            if cb is CHAIN:
                i = item[4] + 1
                if i == flow[1]:
                    self._flow_turn(flow, arrive)
                elif i == len(flow[0]):
                    push(heap, (arrive, seq_next(), self.resume_hook, (flow[3],)))
                else:
                    push(heap, (arrive, seq_next(), CHAIN, flow, i))
            elif cb is MDOWN:
                # Fan out to the node's children, or start the combining
                # ack when childless.
                node = item[4]
                _, kid_cnt, kid_off, kids = flow[2]
                cnt = kid_cnt[node]
                if cnt:
                    npend = [cnt, arrive, node, src, item[6]]
                    off = kid_off[node]
                    for kid in kids[off : off + cnt]:
                        push(heap, (arrive, seq_next(), MDOWN, flow, kid, dst, npend))
                else:
                    push(heap, (arrive, seq_next(), MACK, flow, node, src, item[6]))
            else:
                pend = item[6]
                pend[0] -= 1
                if arrive > pend[1]:
                    pend[1] = arrive
                if pend[0] == 0:
                    if pend[2] is None:
                        self._flow_reply(flow, pend[1])  # the root: all acked
                    else:
                        push(heap, (pend[1], seq_next(), MACK, flow, pend[2], pend[3], pend[4]))
        self.last_event_time = last

    # ------------------------------------------------------------- the flow
    def leg_costs(self, payload_bytes: int) -> Tuple[Shape, Shape]:
        """``(control, data)``: the compiled cost shapes of a request and
        of a message carrying ``payload_bytes``, as :meth:`push_flow`
        takes them."""
        dwire = payload_bytes + self._header_bytes
        return self._ctrl_shape, (
            dwire,
            self._nic_fixed + dwire * self._nic_byte,
            dwire / self._bandwidth,
            True,
        )

    def push_flow(
        self,
        t: float,
        hosts: Sequence[int],
        up: Shape,
        down: Shape,
        proc: int,
        fanout: Optional[Tuple[Sequence[int], ...]] = None,
    ) -> None:
        """Schedule one protocol flow starting at ``t`` -- the only message
        pattern there is -- and resume ``proc`` when it completes.

        Legs run up ``hosts[0] -> .. -> hosts[-1]`` with cost shape ``up``
        (each in its own event at its ready time, so reservations stay
        FCFS in simulated time).  With ``fanout``, a control multicast
        with combining acks then runs from ``hosts[-1]``: ``fanout`` is
        the dense tables ``(hosts, kid_cnt, kid_off, kids)`` of the
        multicast tree, local id 0 the root, node ``i``'s children
        ``kids[kid_off[i] : kid_off[i] + kid_cnt[i]]``.  Legs then run
        back down the path with shape ``down``, and ``resume_hook(proc)``
        runs as an event at the completion time.  A one-host path has no
        legs; an absent or childless fanout completes at once.  State
        updates stay with the caller, atomic at initiation: a flow carries
        only timing and traffic accounting.
        """
        n = len(hosts)
        if self._h is not None:
            stage = hosts
            tbl = n_kids = 0
            if fanout is not None:
                tbl = len(fanout[0])
                n_kids = len(fanout[3])
                stage = [*hosts, *itertools.chain.from_iterable(fanout)]
            self._reserve_stage(len(stage))
            self._stage_i[0 : len(stage)] = stage
            self._lib.sim_push_flow(self._h, t, proc, n, tbl, n_kids, *up, *down)
            return
        legs = [(hosts[i], hosts[i + 1], *up) for i in range(n - 1)]
        legs += [(hosts[i], hosts[i - 1], *down) for i in range(n - 1, 0, -1)]
        # (legs, index of the leg the multicast runs before, fanout, proc)
        flow = (legs, n - 1 if fanout is not None else -1, fanout, proc)
        if legs:
            heapq.heappush(self._heap, (t, next(self._seq), _CHAIN, flow, 0))
        else:
            self._flow_turn(flow, t)

    def _flow_turn(self, flow: tuple, t: float) -> None:
        """The request reached the far end of the path at ``t``: start the
        multicast, or, the fanout absent or childless, answer at once."""
        fanout = flow[2]
        if fanout is None or not fanout[1][0]:
            self._flow_reply(flow, t)
            return
        hosts, kid_cnt, kid_off, kids = fanout
        pend = [kid_cnt[0], t, None, None, None]  # the root's
        for kid in kids[kid_off[0] : kid_off[0] + kid_cnt[0]]:
            heapq.heappush(
                self._heap, (t, next(self._seq), _MDOWN, flow, kid, hosts[0], pend)
            )

    def _flow_reply(self, flow: tuple, t: float) -> None:
        """The answer leaves the far end at ``t``: the legs back down, or,
        on a one-host path, the completion."""
        legs = flow[0]
        if legs:
            item = (t, next(self._seq), _CHAIN, flow, len(legs) // 2)
        else:
            item = (t, next(self._seq), self.resume_hook, (flow[3],))
        heapq.heappush(self._heap, item)

    # ------------------------------------------------------- combining pass
    def combine(self, tables: CombineTables, arrivals: Sequence[float]) -> float:
        """One combining pass over ``tables``: leaf ``i`` arrives at
        ``arrivals[leaf_proc[i]]``, an interior node forwards a control
        leg to its parent once all its children have arrived (post-order),
        then the release runs back down (pre-order), waking each leaf's
        processor at its release time (:meth:`resume_at`, in leaf order).
        Returns the latest release.  The legs are :meth:`send_leg`'s; on
        the C kernel with closed-form routes the whole pass is one call."""
        if self._h is not None and self._closed_form:
            c = tables._c
            if c is None:
                c = tables._c = self._combine_buffers(tables, len(arrivals))
            arr, args, _ = c
            arr[:] = arrivals
            return self._lib.sim_combine(self._h, len(tables.host), *args)
        host, kid_off, kids, leaf_proc = (
            tables.host, tables.kid_off, tables.kids, tables.leaf_proc
        )
        send = self.send_leg
        times = [0.0] * len(host)
        # Post-order: time at which each tree node has collected its subtree.
        for n in range(len(host) - 1, -1, -1):
            proc = leaf_proc[n]
            if proc >= 0:
                times[n] = arrivals[proc]
                continue
            t = 0.0
            h = host[n]
            for c in kids[kid_off[n] : kid_off[n + 1]]:
                t_arr = send(host[c], h, 0, times[c], is_data=False)
                if t_arr > t:
                    t = t_arr
            times[n] = t
        # Pre-order: broadcast release.
        resume_at = self.resume_at
        latest = 0.0
        for n in range(len(host)):
            h = host[n]
            t = times[n]
            for c in kids[kid_off[n] : kid_off[n + 1]]:
                times[c] = send(h, host[c], 0, t, is_data=False)
            proc = leaf_proc[n]
            if proc >= 0:
                resume_at(t, proc)
                if t > latest:
                    latest = t
        return latest

    def _combine_buffers(self, tables: CombineTables, n_procs: int) -> tuple:
        """The tables as the arrays ``sim_combine`` reads, the arrival
        buffer it reads and the scratch it fills, and the pointer
        arguments (the arrays stay alive with the tuple)."""
        import numpy as np

        cast = self._ffi.cast
        ints = [
            np.asarray(a, dtype=np.int32)
            for a in (tables.host, tables.kid_off, tables.kids, tables.leaf_proc)
        ]
        arr = np.zeros(n_procs)
        times = np.zeros(len(tables.host))
        args = [cast("const int *", a.ctypes.data) for a in ints] + [
            cast("double *", a.ctypes.data) for a in (arr, times)
        ]
        return arr, args, (ints, times)

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
            r = lib.sim_probe_leg(self._h, ready, src, dst, overhead, occ)
            if r < 0.0:
                self._supply_route(src, dst)
                r = lib.sim_probe_leg(self._h, ready, src, dst, overhead, occ)
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
