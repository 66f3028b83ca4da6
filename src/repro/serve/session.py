"""The serving session: request rings + continuous micro-batching.

How a request becomes engine events
-----------------------------------
Every processor has a *request ring*.  A processor with nothing queued is
*parked*; injecting a request for it pushes one wake-up stamped at the
request's simulated arrival, so it issues exactly when the request
arrives.  A busy processor just gets the request appended to its ring and
issues it after the current one completes (that wait *is* the queueing
delay the latency percentiles report); when the next request has not
arrived yet, the processor waits for it on a wake-up at its arrival.  A
request completes at its issue time or launches a flow, and the
processor blocks until the flow's completion resumes it.

Two implementations of the rings
--------------------------------
When the runtime can arm the kernel's residency mirror
(:meth:`~repro.runtime.launcher.Runtime.arm_mirror`: C kernel active, no
failure schedule, a strategy that declares a mirror), the rings live
*inside* the kernel (``serve_inject`` / ``serve_advance`` in
``sim/ckern/kernel.c``): wake-ups are native ``K_SREQ`` events, and each
request goes through the mirror a batch run uses -- a hit or a local
write completes without re-entering Python, a static family's (the
access tree without remapping, the fixed-home directory) read miss or
write replays in the kernel, and what the mirror cannot decide crosses
back (``R_SREQ``) into :meth:`~repro.runtime.launcher.Runtime.cross`.
This module knows the runtime's mirror, never the family behind it.

Everywhere else -- the pure engine, a refused mirror (a failure
schedule, a family that declares none), ``fast=False`` -- the session
runs its own rings: :meth:`ServeSession._inject` and
:meth:`ServeSession._resume` are a line-for-line Python twin of
``serve_inject`` / ``serve_advance`` (as the pure engine's loop twins
the kernel's flow legs), installed as the simulator's resume hook, and
they call the strategy's ``read`` / ``write`` for every request.  Both
consume event sequence numbers at the same points, so a served run is
**bit-identical** between them (pinned by the differential suite in
``tests/serve/test_replay.py``), and either one replays exactly through
the batch runtime.

The rings are chosen lazily at the first :meth:`ServeSession.pump`:
``fast=None`` (the default) picks the kernel's when eligible, the
session's otherwise.  Which ran, and why the kernel's were refused, is
in ``ServeReport.extra["dispatch"]`` and :meth:`ServeSession.snapshot`
(``mode`` ``fast`` or ``classic``); on the kernel's rings the block also
counts the requests the kernel completed natively and those that
crossed.

Ingest and completions
----------------------
Both rings take the same packed ingest -- ``(kind, proc, vid, arrival,
wall, value)`` arrays, one batch per :meth:`ServeSession.submit_batch`
and one for the scalar submissions of a pump -- and produce the same
completion records (``_REC``, the kernel's ``SReq``), folded in one
place into the latency sketches, :meth:`ServeSession.drain_completions`
and the trace.  A request's id is its accept index
(:meth:`ServeSession.submit` returns it).  Values are integers in int64
range.  A write stores its value and a read takes the variable's current
one when the request is *initiated*, so a read returns the last write
initiated before it, even one that completes later.  On the kernel's
rings the values live in the kernel's per-variable value cell, and the
registry is not authoritative for them: a request that crosses into the
strategy still writes 0 there.

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
The session records variable creations live and rebuilds the request
stream from the completion records: per processor, in completion order,
the idle gap before each request (its effective issue time minus the
previous completion) becomes a pure think-time op (``["k", 0.0, gap]``),
then the request itself.  Replaying the trace re-issues every operation
at the identical simulated time, so traffic totals, hit counters and end
time reproduce exactly.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import asdict, dataclass, field
from itertools import repeat
from typing import Any, Dict, Optional, Tuple, Union

import numpy as np

from ..core.registry import get_strategy
from ..metrics import MetricsBundle, StreamingQuantiles, latency_percentiles
from ..network.machine import GCEL, MachineModel
from ..network.stats import StatsSnapshot
from ..network.topology import Topology
from ..runtime.launcher import Runtime, late_completion
from ..runtime.results import AVAILABILITY
from ..workloads.trace import Trace, TraceRecorder

__all__ = ["QueueFull", "ServeReport", "ServeSession"]

#: One request on the rings and the completion record both produce
#: (``SReq`` in ``sim/ckern/abi.h``).  The session's rings hold each
#: request as a list in this field order: ``[proc, vid, kind, pad,
#: arrival, eff, done, wall, id, value]``.
_REC = np.dtype([
    ("proc", "i4"), ("vid", "i4"), ("kind", "i4"), ("pad", "i4"),
    ("arrival", "f8"), ("eff", "f8"), ("done", "f8"), ("wall", "f8"),
    ("id", "i8"), ("value", "i8"),
])

#: What :meth:`ServeSession.drain_completions` returns after a pump that
#: completed nothing.
_NO_DONE = (np.zeros(0, dtype=np.int64), np.zeros(0), np.zeros(0, dtype=np.int64))

_I64 = 1 << 63


def _int64(value: Any) -> int:
    """``value`` as a request carries it: an integer in int64 range (the
    kernel's value cell), on both rings alike."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        value = int(value)
        if -_I64 <= value < _I64:
            return value
    raise ValueError(f"value must be an integer in int64 range, not {value!r}")


class QueueFull(RuntimeError):
    """Admission control rejected a request (ingest queue at capacity)."""


@dataclass
class ServeReport:
    """Final metrics of one serving session, or of a fleet's merged
    sessions (``as_dict`` for JSON).

    :meth:`make` derives every field from raw accounting, for a session's
    :meth:`ServeSession.close` and the fleet's merge alike.  The
    metric-suite fields (latency percentiles, ``hit_rate``,
    ``evictions``, ``storage_cost``, ``effective_network_usage``) come
    from one :class:`~repro.metrics.MetricsBundle`, so a serving report
    and a batch result row speak the same schema-v7 vocabulary, and the
    availability counters (``requests_failed`` ... ``failure_events``,
    all zero without a failure schedule) are the batch row's too."""

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
    requests_failed: int    # availability counters (AVAILABILITY)
    requests_stalled: int
    requests_retried: int
    repairs: int
    failure_events: int
    extra: Dict[str, Any] = field(default_factory=dict)

    #: The fields that merge by addition across sessions: the raw
    #: counters :meth:`make` takes.
    ADDITIVE = ("requests", "accepted", "rejected", "created", "hits", "misses",
                "evictions", "storage_cost", *AVAILABILITY)

    @classmethod
    def make(cls, head: Tuple[str, str, str], counts: Dict[str, Any], sim_time: float,
             wall_seconds: float, lat_sim: StreamingQuantiles, lat_wall: StreamingQuantiles,
             links: StatsSnapshot, extra: Optional[Dict[str, Any]] = None) -> "ServeReport":
        """The one derivation of a report: ``head`` is ``(strategy,
        network, engine)``, ``counts`` the :attr:`ADDITIVE` fields,
        ``lat_sim`` / ``lat_wall`` the simulated and wall latency sketches
        and ``links`` the traffic snapshot; rates, percentiles, the metric
        suite and traffic totals are computed here."""
        strategy, network, engine = head
        bundle = MetricsBundle.from_run(
            hits=counts["hits"], misses=counts["misses"], evictions=counts["evictions"],
            total_bytes=links.total_bytes, latencies=lat_sim,
            storage_cost=counts["storage_cost"],
        )
        wall = latency_percentiles(lat_wall)
        n = counts["requests"]
        return cls(
            strategy=strategy, network=network, engine=engine,
            sim_time=sim_time, wall_seconds=wall_seconds,
            requests_per_sec=n / wall_seconds if wall_seconds > 0 else 0.0,
            sim_requests_per_sec=n / sim_time if sim_time > 0 else 0.0,
            wall_p50=wall["p50"], wall_p95=wall["p95"], wall_p99=wall["p99"],
            total_bytes=links.total_bytes, total_msgs=links.total_msgs,
            congestion_bytes=links.congestion_bytes, congestion_msgs=links.congestion_msgs,
            extra={} if extra is None else extra,
            **{**counts, **bundle.to_row()},
        )

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

    ``fast`` selects the request rings: ``None`` (default) uses the
    kernel's when eligible (C kernel active, no failure schedule, no
    memory capacity, a strategy that declares a residency mirror) and the
    session's own otherwise; ``False`` forces the session's; ``True``
    raises, naming the reason, if the kernel's are unavailable.  Results
    are bit-identical either way.
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
        self.recorder: Optional[TraceRecorder] = TraceRecorder() if record else None
        self.rt = Runtime(
            topology, strategy, machine, seed=seed, failures=failures,
            recorder=self.recorder,
        )
        self.max_queue = max_queue
        self.max_inflight = max_inflight
        n = topology.n_nodes
        self.n_procs = n
        self._ingest: list = []   # scalar submissions, packed at the next pump
        self._batches: list = []  # packed submissions awaiting the rings
        self._buffered = 0        # requests in _batches
        self._pending = 0         # requests in the rings' pending queue
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
        # Which rings serve: None = undecided (decided lazily at the first
        # pump), "fast" = the kernel's, "classic" = the session's own;
        # _mode_reason says why (reported as the "dispatch" block).
        self._mode: Optional[str] = None
        self._mode_reason = "undecided until the first pump"
        self._fast_opt = fast
        self._kdrain = None       # kernel rings: the ServeDrain drains fill
        # The session's rings (serve_inject / serve_advance in Python):
        # the pending queue and one queue per processor of list records
        # (_REC's field order), a state byte per processor -- 0 parked,
        # 1 waiting for its head's arrival, 2 blocked on the flow of
        # _cur[p] -- and the records completed since the last drain.
        self._pend: deque = deque()
        self._rings = [deque() for _ in range(n)]
        self._state = bytearray(n)
        self._cur: list = [None] * n
        self._done: list = []
        # Retry accounting, as in the batch loop: bound only under a
        # failure schedule (which always refuses the kernel's rings).
        self._retry = self.rt.note_retry if self.rt._failview is not None else None
        self._next_id = 0
        self._sim_end = 0.0       # max completion time seen
        self._rec_batches: list = []     # retained completion records
        self._rec_prev = [0.0] * n       # per-proc prev completion
        # What the most recent pump completed (drain_completions).
        self._done_cols: tuple = _NO_DONE

    # ------------------------------------------------------ ring selection
    def _decide_mode(self) -> None:
        rt = self.rt
        sim = rt.sim
        if self._fast_opt is False:
            reason = "fast=False was requested"
        else:
            reason = rt.arm_mirror(static_flow=False)
        if reason is None:
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
        sim.resume_hook = self._resume
        self._mode = "classic"
        self._mode_reason = reason

    # ------------------------------------------------------- kernel rings
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

    # ------------------------------------------------------ session rings
    def _inject(self, horizon: float) -> int:
        """One injection round (``serve_inject``): move pending requests
        that arrive within ``horizon`` onto their processor's ring while
        the in-flight window has room, and wake each parked processor at
        its request's issue floor.  Returns how many moved."""
        sim = self.rt.sim
        pend, rings, state = self._pend, self._rings, self._state
        # Deferred past its arrival (backpressure): issue asap, i.e. at
        # the last event the engine popped (sim.now lags it by the inline
        # flow legs).
        now = sim.last_event_time
        room = self.max_inflight - self._inflight
        n = 0
        while pend and n < room:
            rec = pend[0]
            if rec[4] > horizon:
                break
            pend.popleft()
            eff = rec[5] = now if rec[4] < now else rec[4]
            p = rec[0]
            rings[p].append(rec)
            if not state[p]:
                sim.resume_at(eff, p)
                state[p] = 1
            n += 1
        self._inflight += n
        return n

    def _resume(self, p: int) -> None:
        """The simulator's resume hook on the session's rings
        (``serve_advance``): record the request whose flow just finished
        (state 2), then issue queued requests through the strategy until
        one waits for its arrival or launches a flow, or the ring is
        empty."""
        rt = self.rt
        now = rt.sim.now
        state = self._state
        if state[p] == 2:
            self._record(self._cur[p], now)
        ring = self._rings[p]
        strategy = rt.strategy
        registry = rt.registry
        retry = self._retry
        while ring:
            rec = ring[0]
            if rec[5] > now:
                rt.sim.resume_at(rec[5], p)  # idle until the arrival
                state[p] = 1
                return
            ring.popleft()
            if retry is not None:
                retry(rec[1])
            var = registry.by_id(rec[1])
            # initiation: a write stores its value, a read takes the
            # current one
            if rec[2]:
                done = strategy.write(p, var, rec[9], now)
            else:
                rec[9] = registry.get(var)
                res = strategy.read(p, var, now)
                done = None if res is None else res[0]
            if done is None:  # the flow resumes us in state 2
                self._cur[p] = rec
                state[p] = 2
                return
            if done > now:
                raise late_completion(strategy, "write" if rec[2] else "read", done, now)
            self._record(rec, now)
        state[p] = 0

    def _record(self, rec: list, done: float) -> None:
        rec[6] = done
        self._done.append(tuple(rec))
        self._inflight -= 1

    # ------------------------------------------------------ both rings
    def _pack_ingest(self) -> None:
        """Pack the scalar submissions into one batch (kept FIFO with the
        vectorized ones)."""
        items = self._ingest
        if not items:
            return
        kinds, procs, vids, arr, walls, values = zip(*items)
        self._batches.append((
            np.array(kinds, dtype=np.int32), np.array(procs, dtype=np.int32),
            np.array(vids, dtype=np.int32), np.array(arr, dtype=np.float64),
            np.array(walls, dtype=np.float64), np.array(values, dtype=np.int64),
        ))
        self._buffered += len(items)
        items.clear()

    def _flush_batches(self) -> None:
        """Move the packed submissions into the rings' pending queue,
        numbered in ingest order."""
        self._pack_ingest()
        if self._mode == "fast":
            sim = self.rt.sim
            lib, h, cast = sim._lib, sim._h, sim._ffi.cast
            for kinds, procs, vids, arr, walls, values in self._batches:
                self._pending = lib.sim_serve_ingest(
                    h, len(kinds),
                    cast("const int *", procs.ctypes.data),
                    cast("const int *", vids.ctypes.data),
                    cast("const int *", kinds.ctypes.data),
                    cast("const double *", arr.ctypes.data),
                    cast("const double *", walls.ctypes.data),
                    cast("const i64 *", values.ctypes.data),
                )
        else:
            pend = self._pend
            for kinds, procs, vids, arr, walls, values in self._batches:
                first = self._next_id
                self._next_id += len(kinds)
                arr = arr.tolist()
                pend.extend(map(list, zip(
                    procs.tolist(), vids.tolist(), kinds.tolist(), repeat(0), arr, arr,
                    repeat(0.0), walls.tolist(), range(first, self._next_id),
                    values.tolist(),
                )))
        self._batches.clear()
        self._buffered = 0

    def _drain(self) -> None:
        """Fold what the pump completed -- completion records into the
        latency sketches, :meth:`drain_completions` and the trace -- and
        the queue gauges; on the kernel's rings also the mirror's
        counters."""
        if self._mode == "fast":
            sim = self.rt.sim
            out = self._kdrain
            sim._lib.sim_serve_drain(sim._h, out)
            n = out.n_rec
            if n:
                recs = np.frombuffer(
                    sim._ffi.buffer(out.recs, n * _REC.itemsize), dtype=_REC
                )
            self._inflight = out.inflight
            self._pending = out.pending
            self.rt.fold_mirror()
        else:
            n = len(self._done)
            if n:
                recs = np.array(self._done, dtype=_REC)
                self._done.clear()
            self._pending = len(self._pend)
        if not n:
            return
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
        integer in int64 range (``ValueError`` otherwise, on both
        rings).  ``arrival`` is the simulated arrival time; arrivals are
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
        self._ingest.append((kind == "w", proc, vid, arrival, wall, value))
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
        in one call (the load generator's path to the batched ingest).
        ``reads`` is a boolean array (True = read), ``procs``/``vids``
        integer arrays, ``arrivals`` the simulated arrival times; all the
        same length.  Admission accepts the longest prefix the queue has
        room for (identical to per-item submission, since arrivals are
        nondecreasing) and returns the accepted count; their ids are the
        consecutive accept indices, and writes store 0.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        m = len(procs)
        if not m:
            return 0
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
        return len(self._ingest) + self._buffered + self._pending

    @property
    def arrival_floor(self) -> float:
        """Simulated arrival time of the most recently accepted request
        (new arrivals are clamped to at least this)."""
        return self._arrival_floor

    @property
    def inflight(self) -> int:
        return self._inflight

    # ------------------------------------------------------------------ pump
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
        self._done_cols = _NO_DONE
        if self._mode is None:
            self._decide_mode()
        self._flush_batches()
        sim = self.rt.sim
        if self._mode == "fast":
            sim.run(until)  # the kernel interleaves its injection rounds
        else:
            horizon = float("inf") if until is None else until
            while True:  # do {inject; run} while (n), as the kernel does
                n = self._inject(horizon)
                sim.run(until)
                if not n:
                    break
        sim.now = sim.last_event_time
        self._drain()

    def drain_completions(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, done, values)``: the requests the most recent
        :meth:`pump` completed, in completion order -- request ids, simulated
        completion times, and each write's stored / read's returned value.
        The same records on both rings; held until the next pump
        starts."""
        return self._done_cols

    # ------------------------------------------------------------- reporting
    def _dispatch_info(self) -> Dict[str, Any]:
        """The ``dispatch`` block: which rings serve, why, and -- on the
        kernel's -- which native flow is armed (``None``: misses and
        remote writes cross) and how many requests stayed in the kernel."""
        how = {"mode": self._mode, "reason": self._mode_reason}
        if self._mode == "fast":
            how["flow"] = self.rt.mirror_flow
            how.update(self.rt.mirror_counts)
        return how

    def snapshot(self) -> Dict[str, Any]:
        """Live metrics without stalling the loop: counters, hit rate,
        kernel-aware message totals, the availability counters and latency
        percentiles so far."""
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
            **self.rt.availability(),
            "dispatch": self._dispatch_info(),
        }
        for k, v in latency_percentiles(self._lat_sim).items():
            snap[f"latency_{k}"] = v
        return snap

    def close(self) -> ServeReport:
        """Serve everything queued and report."""
        if self._closed:
            return self._report
        self.pump()  # unbounded: serves what the in-flight window admits
        while self.queue_depth and self._inflight < self.max_inflight:
            # The pump found the window full, so its last round injected
            # nothing and it stopped once the window drained.
            self.pump()
        rt = self.rt
        if self._mode == "fast":
            # Hand the state back, so the strategy reads as after a
            # session on the session's own rings.
            rt.release_mirror()
        end = self._sim_end
        self._closed = True
        wall = time.perf_counter() - self._wall_start if self._wall_start is not None else 0.0
        strat = rt.strategy
        # The serving latency sample is arrival -> completion (queueing
        # included): the session's own sketch.
        self._report = ServeReport.make(
            (strat.name, rt.sim.topology.label, rt.execution()["engine"]),
            dict(requests=self.completed, accepted=self.accepted, rejected=self.rejected,
                 created=self.created, hits=strat.hits, misses=strat.misses,
                 evictions=rt.memory.total_evictions, storage_cost=strat.storage_cost(end),
                 **rt.availability()),
            end, wall, self._lat_sim, self._lat_wall, rt.sim.stats.snapshot(),
            extra={"dispatch": self._dispatch_info()},
        )
        return self._report

    def _reconstruct_trace(self) -> None:
        """Fold the completion records into the recorder's op streams:
        per processor, in completion order, the idle gap before each
        request (``eff`` minus the previous completion) becomes a
        think-time op, then the request itself."""
        ops = self.recorder.ops
        prev = self._rec_prev
        for batch in self._rec_batches:
            for p, vid, kind, eff, done in zip(*(col.tolist() for col in batch)):
                gap = eff - prev[p]
                stream = ops[p]
                if gap > 0.0:
                    stream.append(["k", 0.0, gap])
                stream.append(["w" if kind else "r", vid])
                prev[p] = done
        self._rec_batches.clear()

    def trace(self, params: Optional[Dict[str, Any]] = None) -> Trace:
        """The served access stream as a replayable :class:`Trace`."""
        if self.recorder is None:
            raise RuntimeError("session was opened with record=False")
        if self._rec_batches:
            self._reconstruct_trace()
        return self.recorder.to_trace(workload="serve", params=params)
