"""The serving session: persistent dispatchers + continuous micro-batching.

How a request becomes engine events
-----------------------------------
Every processor runs one *dispatcher* -- a persistent generator driven by
the ordinary SPMD launcher.  A dispatcher with nothing to do parks by
yielding a ``RecvReq`` on a private tag (reusing the message-passing
blocking machinery: no launcher changes, no busy polling).  Injecting a
request for a parked processor delivers a wake-up "kick" through
``Runtime._deliver`` stamped at the request's simulated arrival time, so
the dispatcher resumes exactly when the request arrives; a busy
processor just gets the request appended to its run queue and issues it
after the current one completes (that wait *is* the queueing delay the
latency percentiles report).

The kernel fast path
--------------------
When the runtime can arm the kernel's residency mirror
(:meth:`~repro.runtime.launcher.Runtime.arm_mirror`: C kernel active, no
failure schedule, a strategy that declares a mirror), the whole
dispatcher state machine above is mirrored *inside* the kernel: queued
requests live in per-processor C rings, wake-up kicks and
idle-until-arrival timers are native ``K_SREQ`` events, and each request
goes through the mirror a batch run uses -- a hit or a local write
completes without re-entering Python, a static family's (the access tree
without remapping, the fixed-home directory) read miss or write replays
in the kernel, and what the mirror cannot decide crosses back
(``R_SREQ``) into :meth:`~repro.runtime.launcher.Runtime.cross`.  This
module knows the runtime's mirror, never the family behind it.  Ingest
is batched -- one Python->C call per queue drain carrying packed
``(proc, vid, op, arrival)`` arrays -- and completions come back the
same way (packed arrays folded into the metric sketches).
Event keys ``(time, seq)`` are assigned at the same logical points as
the classic path, so a served run is **bit-identical** between the two
(pinned by the differential suite in ``tests/serve/test_replay.py``).

The mode is decided lazily at the first :meth:`ServeSession.pump`:
``fast=None`` (the default) picks the fast path when eligible, the
classic generators otherwise.  Which path ran, and why a faster one was
refused, is in ``ServeReport.extra["dispatch"]`` and
:meth:`ServeSession.snapshot`; on the fast path the block also counts
the requests the kernel completed natively and those that crossed.

Completions
-----------
A request's id is its accept index (:meth:`ServeSession.submit` returns
it).  :meth:`ServeSession.drain_completions` hands back what the most
recent pump completed -- ids, simulated completion times, values -- the
same on both paths.  Values are integers in int64 range.  A write stores
its value and a read takes the variable's current one when the request
is *initiated*, exactly where the classic path reads and writes the
variable registry; so a read returns the last write initiated before it,
even one that completes later.  On the fast path the values live in the
kernel's per-variable value cell, and the registry is not authoritative
for them: a request that crosses into the strategy still writes 0 there.

Micro-batching and bounded run-ahead
------------------------------------
:meth:`ServeSession.pump` drains the ingest queue (admission-controlled
by ``max_queue``; the in-flight window by ``max_inflight``) and advances
the engine only up to a simulated horizon (``Simulator.run(until=...)``).
Bounding run-ahead is what keeps the serve timeline identical to the
batch timeline: all arrivals of the next epoch are at or beyond the
horizon, so no operation is ever initiated "in the past" relative to
work the engine already timed -- the atomic-at-initiation resource
ordering (see :mod:`repro.sim.engine`) comes out the same as if the
whole stream had been known up front.

Replayable by construction
--------------------------
The session records through :class:`ServeRecorder` (a
:class:`~repro.workloads.trace.TraceRecorder` that filters the internal
park wake-ups): inter-request idle gaps become pure think-time ops
(``["k", 0.0, gap]``), issued live as ``ComputeReq`` between queued
requests and written via ``record_gap`` for parked wake-ups, whose kick
already positioned simulated time at the arrival.  The fast path
reconstructs the identical op stream from its completion records (the
recorded effective issue time and the previous completion per processor
determine every gap).  Replaying the trace re-issues every operation at
the identical simulated time, so traffic totals, hit counters and end
time reproduce exactly.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.registry import get_strategy
from ..metrics import MetricsBundle, StreamingQuantiles, latency_percentiles
from ..network.machine import GCEL, MachineModel
from ..network.topology import Topology
from ..runtime.api import ComputeReq, ReadReq, RecvReq, WriteReq
from ..runtime.launcher import Runtime, late_completion
from ..workloads.trace import Trace, TraceRecorder

__all__ = ["QueueFull", "ServeRecorder", "ServeReport", "ServeSession"]

#: Private mailbox tag of the park wake-up kick.  An ``object`` sentinel
#: cannot collide with any client-visible tag, and the recorder filters
#: it by identity.
_PARK = object()
_STOP = object()

#: The kernel's packed completion records (``SReq`` in ``sim/ckern/abi.h``).
_REC = np.dtype([
    ("proc", "i4"), ("vid", "i4"), ("kind", "i4"), ("pad", "i4"),
    ("arrival", "f8"), ("eff", "f8"), ("done", "f8"), ("wall", "f8"),
    ("id", "i8"), ("value", "i8"),
])

#: One completion as :meth:`ServeSession.drain_completions` reports it.
_DONE = np.dtype([("id", "i8"), ("done", "f8"), ("value", "i8")])

_I64 = 1 << 63


def _int64(value: Any) -> int:
    """``value`` as a request carries it: an integer in int64 range (the
    kernel's value cell), on every dispatch path alike."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if -_I64 <= value < _I64:
            return value
    raise ValueError(f"value must be an integer in int64 range, not {value!r}")


class QueueFull(RuntimeError):
    """Admission control rejected a request (ingest queue at capacity)."""


class ServeRecorder(TraceRecorder):
    """Trace recorder that skips the serving layer's park wake-ups.

    The park ``RecvReq`` is internal control flow -- replaying it would
    deadlock on a message nobody sends -- so it never reaches the trace;
    everything else records exactly as in a batch run.
    """

    def record_request(self, proc: int, req: Any) -> None:
        if req.__class__ is RecvReq and req.tag is _PARK:
            return
        super().record_request(proc, req)


class _Item:
    """One queued request (slots: this is allocated per served request)."""

    __slots__ = ("kind", "proc", "vid", "value", "arrival", "eff", "wall", "id")

    def __init__(self, kind, proc, vid, value, arrival, wall, id):
        self.kind = kind
        self.proc = proc
        self.vid = vid
        self.value = value
        self.arrival = arrival  # requested simulated arrival (latency zero point)
        self.eff = arrival      # effective issue floor (clamped at injection)
        self.wall = wall
        self.id = id            # accept index


@dataclass
class ServeReport:
    """Final metrics of one serving session (``as_dict`` for JSON).

    The metric-suite fields (latency percentiles, ``hit_rate``,
    ``evictions``, ``storage_cost``, ``effective_network_usage``) come
    from one :class:`~repro.metrics.MetricsBundle`, so a serving report
    and a batch result row speak the same schema-v7 vocabulary."""

    strategy: str
    network: str
    engine: str
    requests: int           # completed
    accepted: int
    rejected: int
    created: int
    sim_time: float         # last completion (simulated seconds)
    wall_seconds: float     # first submit -> close
    requests_per_sec: float      # completed / wall_seconds (the gated number)
    sim_requests_per_sec: float  # completed / sim_time
    latency_p50: float      # simulated enqueue -> completion
    latency_p95: float
    latency_p99: float
    wall_p50: float         # wall enqueue -> completion (batching included)
    wall_p95: float
    wall_p99: float
    hits: int
    misses: int
    hit_rate: float
    evictions: int
    storage_cost: float
    effective_network_usage: float
    total_bytes: float
    total_msgs: int
    congestion_bytes: float
    congestion_msgs: int
    extra: Dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)


class ServeSession:
    """One long-running serving context over a strategy × topology.

    Parameters mirror the batch :class:`~repro.runtime.launcher.Runtime`
    (``strategy`` accepts any registry spec string or a built strategy);
    ``max_queue`` bounds the ingest queue (admission control) and
    ``max_inflight`` the injected-but-incomplete window (backpressure).
    ``record=False`` disables trace recording (slightly faster, not
    replayable).

    ``fast`` selects the request dispatch path: ``None`` (default) uses
    the kernel fast path when eligible (C kernel active, no failure
    schedule, no memory capacity, a strategy that declares a residency
    mirror) and the classic generator dispatchers otherwise; ``False``
    forces classic; ``True`` raises, naming the reason, if the fast path
    is unavailable.  Results are bit-identical either way.
    """

    def __init__(
        self,
        topology: Topology,
        strategy: Union[str, Any] = "4-ary",
        *,
        machine: MachineModel = GCEL,
        seed: int = 0,
        embedding: str = "modified",
        max_queue: int = 65536,
        max_inflight: int = 8192,
        record: bool = True,
        failures=None,
        fast: Optional[bool] = None,
    ):
        if max_queue < 1 or max_inflight < 1:
            raise ValueError("max_queue and max_inflight must be >= 1")
        if isinstance(strategy, str):
            strategy = get_strategy(strategy, topology, seed=seed, embedding=embedding)
        self.recorder: Optional[ServeRecorder] = ServeRecorder() if record else None
        self.rt = Runtime(
            topology, strategy, machine, seed=seed, failures=failures,
            recorder=self.recorder,
        )
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        n = topology.n_nodes
        self.n_procs = n
        self._ingest: deque = deque()
        self._queues = [deque() for _ in range(n)]
        self._parked = [False] * n
        self._park_time = [0.0] * n
        self._clock = [0.0] * n  # last completion per processor
        self._inflight = 0
        self.accepted = 0
        self.rejected = 0
        self.completed = 0
        self.created = 0
        self._arrival_floor = 0.0
        self._lat_sim = StreamingQuantiles()
        self._lat_wall = StreamingQuantiles()
        self._wall_start: Optional[float] = None
        self._closed = False
        self._report: Optional[ServeReport] = None
        # Dispatch mode: None = undecided (decided lazily at the first
        # pump), "classic" = generator dispatchers, "fast" = C kernel;
        # _mode_reason says why (reported as the "dispatch" block).
        self._mode: Optional[str] = None
        self._mode_reason = "undecided until the first pump"
        self._fast_opt = fast
        self._kdrain = None       # the ServeDrain struct drains fill
        self._kpending = 0        # requests in the kernel's pending ring
        self._batches: list = []  # packed pending batches (fast ingest)
        self._buffered = 0
        self._sim_end = 0.0       # max completion time seen (fast mode)
        self._rec_batches: list = []     # retained completion records
        self._rec_prev: Optional[list] = None  # per-proc prev completion
        # What the most recent pump completed (drain_completions): the
        # classic dispatchers append (id, done, value) rows, the fast path
        # keeps three columns; a pump clears both when it starts.
        self._done_rows: list = []
        self._done_cols: Optional[tuple] = None
        # Start the dispatchers: every processor parks at t=0, ready to be
        # kicked awake by its first request.  Both modes start them (the
        # fast path leaves them parked forever): the t=0 wake-ups consume
        # identical event sequence numbers, which is part of what keeps
        # the two paths bit-identical.
        self.rt.launch([self._dispatch(p) for p in range(n)])
        self.rt.sim.run(until=0.0)

    # ----------------------------------------------------------- dispatchers
    def _dispatch(self, p: int):
        sim = self.rt.sim
        q = self._queues[p]
        by_id = self.rt.registry.by_id
        lat_add = self._lat_sim.add
        wlat_add = self._lat_wall.add
        clock = self._clock
        perf = time.perf_counter
        done_add = self._done_rows.append
        while True:
            if not q:
                self._park_time[p] = sim.now
                self._parked[p] = True
                v = yield RecvReq(_PARK)
                if v is _STOP:
                    return
            it = q.popleft()
            gap = it.eff - sim.now
            if gap > 0.0:
                # Idle until the arrival; recorded as a think-time op so
                # replay issues the request at the identical instant.
                yield ComputeReq(seconds=gap)
            if it.kind == "r":
                value = yield ReadReq(by_id(it.vid))
            else:
                value = it.value
                yield WriteReq(by_id(it.vid), value)
            done = sim.now
            clock[p] = done
            lat_add(done - it.arrival)
            wlat_add(perf() - it.wall)
            self._inflight -= 1
            self.completed += 1
            done_add((it.id, done, value))

    # ------------------------------------------------------- mode selection
    def _set_classic(self, reason: str) -> None:
        self._mode = "classic"
        self._mode_reason = reason
        if self._batches:
            # Packed batches arrived before the mode was decided: unpack
            # them ahead of any scalar tail already in the ingest deque.
            items: deque = deque()
            first = self.accepted - self._buffered - len(self._ingest)
            for kinds, procs, vids, arr, walls, values in self._batches:
                for i in range(len(kinds)):
                    items.append(_Item(
                        "r" if kinds[i] == 0 else "w", int(procs[i]),
                        int(vids[i]), int(values[i]), float(arr[i]),
                        float(walls[i]), first + len(items),
                    ))
            self._batches.clear()
            self._buffered = 0
            items.extend(self._ingest)
            self._ingest = items

    def _decide_mode(self) -> None:
        # The classic generator dispatchers are not a fallback awaiting
        # deletion: they are the only path on the pure-Python engine (and
        # under failures, bounded memory or an undeclared family), and the
        # reference the differential tests compare the kernel fast path
        # against.
        if self._fast_opt is False:
            self._set_classic("fast=False was requested")
            return
        rt = self.rt
        reason = rt.arm_mirror(static_flow=False)
        if reason is None:
            sim = rt.sim
            sim._lib.sim_serve_init(sim._h, self.max_inflight)
            self._kdrain = sim._ffi.new("ServeDrain *")
            sim.serve_cb = self._serve_cb
            self._mode = "fast"
            self._mode_reason = rt.access_reason
            return
        if self._fast_opt is True:
            raise RuntimeError(
                f"fast=True but the kernel fast path is unavailable: {reason}"
            )
        self._set_classic(reason)

    # ------------------------------------------------- fast-path internals
    def _serve_cb(self, out) -> None:
        """Handle an ``R_SREQ`` crossing: a request the mirror could not
        complete runs through :meth:`Runtime.cross` (writes store 0 in the
        registry: values live in the kernel), and its completion is routed
        back natively."""
        sim = self.rt.sim
        complete, h = sim._lib.sim_serve_complete, sim._h
        by_id = self.rt.registry.by_id
        cross = self.rt.cross
        while True:
            p = out.a
            write = out.b & 1
            res = cross(p, by_id(out.b >> 1), write, 0, out.time)
            done = res if write or res is None else res[0]
            if done is None:
                return  # flow in flight: completes via K_SDONE
            if done > out.time:
                raise late_completion(self.rt.strategy, "write" if write else "read",
                                      done, out.time)
            if not complete(h, out, p, done):
                return

    def _pack_ingest(self) -> None:
        """Pack the scalar submissions into one batch (kept FIFO with the
        vectorized ones)."""
        items = self._ingest
        m = len(items)
        if not m:
            return
        self._batches.append((
            np.fromiter((0 if it.kind == "r" else 1 for it in items),
                        dtype=np.int32, count=m),
            np.fromiter((it.proc for it in items), dtype=np.int32, count=m),
            np.fromiter((it.vid for it in items), dtype=np.int32, count=m),
            np.fromiter((it.arrival for it in items), dtype=np.float64, count=m),
            np.fromiter((it.wall for it in items), dtype=np.float64, count=m),
            np.fromiter((it.value for it in items), dtype=np.int64, count=m),
        ))
        self._buffered += m
        items.clear()

    def _flush_batches(self) -> None:
        self._pack_ingest()
        sim = self.rt.sim
        lib, h, cast = sim._lib, sim._h, sim._ffi.cast
        for kinds, procs, vids, arr, walls, values in self._batches:
            self._kpending = lib.sim_serve_ingest(
                h, len(kinds),
                cast("const int *", procs.ctypes.data),
                cast("const int *", vids.ctypes.data),
                cast("const int *", kinds.ctypes.data),
                cast("const double *", arr.ctypes.data),
                cast("const double *", walls.ctypes.data),
                cast("const i64 *", values.ctypes.data),
            )
        self._batches.clear()
        self._buffered = 0

    def _drain(self) -> None:
        """Pull what the pump produced -- completion records (one packed
        array), queue gauges -- into the session, and fold the mirror's
        counters into the strategy."""
        sim = self.rt.sim
        out = self._kdrain
        sim._lib.sim_serve_drain(sim._h, out)
        n = out.n_rec
        if n:
            recs = np.frombuffer(
                sim._ffi.buffer(out.recs, n * _REC.itemsize), dtype=_REC
            )
            done = recs["done"].copy()
            self._done_cols = (recs["id"].copy(), done, recs["value"].copy())
            self._lat_sim.add_many(done - recs["arrival"])
            self._lat_wall.add_many(time.perf_counter() - recs["wall"])
            if self.recorder is not None:
                self._rec_batches.append((
                    recs["proc"].copy(), recs["vid"].copy(),
                    recs["kind"].copy(), recs["eff"].copy(), done,
                ))
            self.completed += n
            end = float(done.max())
            if end > self._sim_end:
                self._sim_end = end
        self._inflight = out.inflight
        self._kpending = out.pending
        self.rt.fold_mirror()

    def _pump_fast(self, until: Optional[float]) -> None:
        self._flush_batches()
        sim = self.rt.sim
        sim.run(until)
        sim.now = sim.last_event_time
        self._drain()

    # ---------------------------------------------------------------- ingest
    def create(self, proc: int, payload_bytes: int = 256) -> int:
        """Create a variable (value 0) now; returns its vid.

        Creation is local bookkeeping (zero messages, zero simulated
        time), exactly as in batch programs, and replay hoists creates --
        so executing it immediately keeps FIFO semantics: any read/write
        of the vid can only be submitted afterwards.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if not 0 <= proc < self.n_procs:
            raise ValueError(f"no such processor: {proc}")
        if self._mode == "fast" and self.recorder is not None and self.accepted:
            raise RuntimeError(
                "cannot create variables after requests were accepted on the "
                "kernel fast path with recording on (the reconstructed trace "
                "hoists creates); create everything up front, or open the "
                "session with record=False or fast=False"
            )
        var = self.rt.create_var(f"s{len(self.rt.registry)}", payload_bytes, proc, 0)
        self.created += 1
        return var.vid

    def try_submit(
        self,
        kind: str,
        proc: int,
        vid: int,
        *,
        value: int = 0,
        arrival: Optional[float] = None,
    ) -> bool:
        """Queue one read (``"r"``) or write (``"w"``); ``False`` =
        admission control rejected it (queue at ``max_queue``).

        An accepted request's id is its accept index (``accepted - 1``
        right after); :meth:`drain_completions` reports it when a pump
        completes the request.  ``value`` is what a write stores: an
        integer in int64 range (``ValueError`` otherwise, on either
        path).  ``arrival`` is the simulated arrival time; arrivals are
        clamped nondecreasing (``None`` = right after the previous one).
        """
        if self._closed:
            raise RuntimeError("session is closed")
        if kind not in ("r", "w"):
            raise ValueError(f"unknown request kind {kind!r} (use 'r'/'w')")
        if not 0 <= proc < self.n_procs:
            raise ValueError(f"no such processor: {proc}")
        if not 0 <= vid < len(self.rt.registry):
            raise ValueError(f"no such variable: {vid}")
        if value.__class__ is not int or not -_I64 <= value < _I64:
            value = _int64(value)
        if self.queue_depth >= self.max_queue:
            self.rejected += 1
            return False
        wall = time.perf_counter()
        if self._wall_start is None:
            self._wall_start = wall
        floor = self._arrival_floor
        if arrival is None or arrival < floor:
            arrival = floor
        self._arrival_floor = arrival
        self._ingest.append(_Item(kind, proc, vid, value, arrival, wall, self.accepted))
        self.accepted += 1
        return True

    def submit(self, kind: str, proc: int, vid: int, **kw: Any) -> int:
        """:meth:`try_submit` that returns the request id and raises
        :class:`QueueFull` on rejection."""
        if not self.try_submit(kind, proc, vid, **kw):
            raise QueueFull(f"ingest queue at capacity ({self.max_queue})")
        return self.accepted - 1

    def submit_batch(self, reads, procs, vids, arrivals) -> int:
        """Vectorized :meth:`try_submit`: queue a whole epoch of requests
        in one call (the load generator's path to the kernel's batched
        ingest).  ``reads`` is a boolean array (True = read), ``procs``/
        ``vids`` integer arrays, ``arrivals`` the simulated arrival
        times; all the same length.  Admission accepts the longest prefix
        the queue has room for (identical to per-item submission, since
        arrivals are nondecreasing) and returns the accepted count; their
        ids are the consecutive accept indices, and writes store 0.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        m = len(procs)
        if not m:
            return 0
        if self._mode == "classic":
            n_ok = 0
            for i in range(m):
                if self.try_submit(
                    "r" if reads[i] else "w", int(procs[i]), int(vids[i]),
                    arrival=float(arrivals[i]),
                ):
                    n_ok += 1
            return n_ok
        procs = np.ascontiguousarray(procs, dtype=np.int32)
        vids = np.ascontiguousarray(vids, dtype=np.int32)
        if procs.min(initial=0) < 0 or procs.max(initial=0) >= self.n_procs:
            raise ValueError("processor id out of range in batch")
        if vids.min(initial=0) < 0 or vids.max(initial=0) >= len(self.rt.registry):
            raise ValueError("variable id out of range in batch")
        room = self.max_queue - self.queue_depth
        k = m if m <= room else (room if room > 0 else 0)
        self.rejected += m - k
        if not k:
            return 0
        wall = time.perf_counter()
        if self._wall_start is None:
            self._wall_start = wall
        arr = np.maximum(np.asarray(arrivals[:k], dtype=np.float64),
                         self._arrival_floor)
        np.maximum.accumulate(arr, out=arr)
        self._arrival_floor = float(arr[-1])
        kinds = np.where(np.asarray(reads[:k], dtype=bool), 0, 1).astype(np.int32)
        # Scalar submissions precede this batch: pack them first so the
        # pending stream stays FIFO.
        self._pack_ingest()
        self._batches.append((kinds, procs[:k], vids[:k], arr,
                              np.full(k, wall, dtype=np.float64),
                              np.zeros(k, dtype=np.int64)))
        self._buffered += k
        self.accepted += k
        return k

    @property
    def queue_depth(self) -> int:
        return len(self._ingest) + self._buffered + self._kpending

    @property
    def arrival_floor(self) -> float:
        """Simulated arrival time of the most recently accepted request
        (new arrivals are clamped to at least this)."""
        return self._arrival_floor

    @property
    def inflight(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------ pump
    def _inject(self, it: _Item) -> None:
        rt = self.rt
        t = it.arrival
        # Deferred past its arrival (backpressure): issue asap, i.e. at
        # the last event the engine popped -- the clock the kernel's
        # serve_inject clamps to (sim.now lags it by the inline flow legs).
        now = rt.sim.last_event_time
        if t < now:
            t = now
        it.eff = t
        p = it.proc
        self._queues[p].append(it)
        if self._parked[p]:
            self._parked[p] = False
            rec = self.recorder
            if rec is not None:
                gap = t - self._park_time[p]
                if gap > 0.0:
                    rec.record_gap(p, gap)
            rt._deliver(p, _PARK, t, None)

    def pump(self, until: Optional[float] = None) -> None:
        """Inject eligible queued requests and advance the engine.

        ``until`` bounds both which arrivals inject and how far the
        engine runs (simulated run-ahead); ``None`` serves everything
        queued and runs the engine idle.  Completions free in-flight
        window slots, so injection and engine progress interleave until
        neither can advance.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        self._done_rows.clear()
        self._done_cols = None
        if self._mode is None:
            self._decide_mode()
        if self._mode == "fast":
            self._pump_fast(until)
            return
        sim = self.rt.sim
        ing = self._ingest
        while True:
            n = 0
            room = self.max_inflight - self._inflight - n
            while ing and room > 0:
                it = ing[0]
                if until is not None and it.arrival > until:
                    break
                ing.popleft()
                self._inject(it)
                n += 1
                room -= 1
            self._inflight += n
            sim.run(until)
            if not n:
                return

    def drain_completions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, done, values)``: the requests the most recent
        :meth:`pump` completed, in completion order -- request ids, simulated
        completion times, and each write's stored / read's returned value.
        The same records on both dispatch paths; held until the next pump
        starts."""
        if self._done_cols is not None:
            return self._done_cols
        rows = np.array(self._done_rows, dtype=_DONE)
        return rows["id"], rows["done"], rows["value"]

    # ------------------------------------------------------------- reporting
    def _dispatch_info(self) -> Dict[str, Any]:
        """The ``dispatch`` block: which path serves, why, and -- on the
        fast path -- which native flow is armed (``None``: misses and
        remote writes cross) and how many requests stayed in the kernel."""
        how = {"mode": self._mode, "reason": self._mode_reason}
        if self._mode == "fast":
            how["flow"] = self.rt.mirror_flow
            how.update(self.rt.mirror_counts)
        return how

    def snapshot(self) -> Dict[str, Any]:
        """Live metrics without stalling the loop: counters, hit rate,
        kernel-aware message totals and latency percentiles so far."""
        strat = self.rt.strategy
        hits, misses = strat.hits, strat.misses
        snap = {
            "sim_time": self.rt.sim.now,
            "completed": self.completed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "created": self.created,
            "queue_depth": self.queue_depth,
            "inflight": self.inflight,
            "hits": hits,
            "misses": misses,
            "hit_rate": MetricsBundle(hits=hits, misses=misses).hit_rate,
            "total_msgs": self.rt.sim.stats.total_msgs,
            "dispatch": self._dispatch_info(),
        }
        for k, v in latency_percentiles(self._lat_sim).items():
            snap[f"latency_{k}"] = v
        return snap

    def close(self) -> ServeReport:
        """Serve everything queued, stop the dispatchers, and report."""
        if self._closed:
            return self._report
        self.pump()  # unbounded: serves what the in-flight window admits
        while self.queue_depth and self._inflight < self.max_inflight:
            # The pump found the window full, so its last round injected
            # nothing and it stopped once the window drained.
            self.pump()
        rt = self.rt
        if self._mode == "fast":
            # The dispatchers never ran: close the parked generators.
            for p in range(self.n_procs):
                gen = rt._gens[p]
                if gen is not None:
                    gen.close()
                    rt._gens[p] = None
            end = self._sim_end
            # Hand the state back, so the strategy reads as after a
            # classic session.
            rt.release_mirror()
        else:
            for p in range(self.n_procs):
                if self._parked[p]:
                    self._parked[p] = False
                    rt._deliver(p, _PARK, rt.sim.now, _STOP)
            rt.sim.run()
            end = max(self._clock) if self.completed else 0.0
        self._closed = True
        wall_end = time.perf_counter()
        wall = wall_end - self._wall_start if self._wall_start is not None else 0.0
        stats = rt.sim.stats
        strat = rt.strategy
        # The serving latency sample is arrival -> completion (queueing
        # included), so the bundle is built from the session's own buffer;
        # everything else is the shared metric-suite accounting.
        bundle = MetricsBundle.from_run(
            hits=strat.hits,
            misses=strat.misses,
            evictions=rt.memory.total_evictions,
            total_bytes=stats.total_bytes,
            latencies=self._lat_sim,
            storage_cost=strat.storage_cost(end),
        )
        wall_pct = latency_percentiles(self._lat_wall)
        self._report = ServeReport(
            strategy=strat.name,
            network=rt.sim.topology.label,
            engine="ckern" if rt.sim._h is not None else "pure",
            requests=self.completed,
            accepted=self.accepted,
            rejected=self.rejected,
            created=self.created,
            sim_time=end,
            wall_seconds=wall,
            requests_per_sec=self.completed / wall if wall > 0 else 0.0,
            sim_requests_per_sec=self.completed / end if end > 0 else 0.0,
            latency_p50=bundle.latency_p50,
            latency_p95=bundle.latency_p95,
            latency_p99=bundle.latency_p99,
            wall_p50=wall_pct["p50"],
            wall_p95=wall_pct["p95"],
            wall_p99=wall_pct["p99"],
            hits=bundle.hits,
            misses=bundle.misses,
            hit_rate=bundle.hit_rate,
            evictions=bundle.evictions,
            storage_cost=bundle.storage_cost,
            effective_network_usage=bundle.effective_network_usage,
            total_bytes=stats.total_bytes,
            total_msgs=stats.total_msgs,
            congestion_bytes=stats.congestion_bytes,
            congestion_msgs=stats.congestion_msgs,
            extra={"dispatch": self._dispatch_info()},
        )
        return self._report

    def _reconstruct_trace(self) -> None:
        """Fold the fast path's completion records into the recorder's op
        streams: per processor, in completion order, the idle gap before
        each request (``eff`` minus the previous completion) becomes the
        think-time op the classic path would have recorded, then the
        request itself -- byte-identical to the live-recorded stream."""
        ops = self.recorder.ops
        if self._rec_prev is None:
            self._rec_prev = [0.0] * self.n_procs
        prev = self._rec_prev
        for procs, vids, kinds, effs, dones in self._rec_batches:
            procs = procs.tolist()
            vids = vids.tolist()
            kinds = kinds.tolist()
            effs = effs.tolist()
            dones = dones.tolist()
            for i in range(len(procs)):
                p = procs[i]
                e = effs[i]
                gap = e - prev[p]
                stream = ops[p]
                if gap > 0.0:
                    stream.append(["k", 0.0, gap])
                stream.append(["w" if kinds[i] else "r", vids[i]])
                prev[p] = dones[i]
        self._rec_batches.clear()

    def trace(self, params: Optional[Dict[str, Any]] = None) -> Trace:
        """The served access stream as a replayable :class:`Trace`."""
        if self.recorder is None:
            raise RuntimeError("session was opened with record=False")
        if self._rec_batches:
            self._reconstruct_trace()
        return self.recorder.to_trace(workload="serve", params=params)
