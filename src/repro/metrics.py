"""The metric suite: one vocabulary for batch cells and serving sessions.

The paper evaluates on two numbers -- execution time and link congestion.
The data-grid literature ("Replication in Data Grids: Metrics and
Strategies", PAPERS.md) evaluates on a richer vocabulary this module
makes first-class, emitted identically by every batch cell (schema v7
result rows, :mod:`repro.exp.emit`) and every serving report
(:class:`repro.serve.session.ServeReport`):

simulated-latency percentiles (``latency_p50/p95/p99``)
    Per-request simulated seconds from issue to completion.  Batch runs
    measure issue -> completion inside the launcher's dispatch loop
    (cache hits are 0.0-latency requests, not omissions); serving
    sessions measure arrival -> completion, so queueing delay under
    load is part of the number.  Both engines resume a blocked request
    at the exact completion time of its flow, so the percentiles are
    engine-identical (pinned by the differential suite).

storage cost (``storage_cost``)
    The time integral of *excess* replica bytes: every copy beyond the
    one authoritative copy per variable contributes its payload for the
    time it exists (replica-bytes x seconds).  Strategies feed an O(1)
    accumulator at every copy add/drop/invalidate/evict event
    (:meth:`repro.core.strategy.DataManagementStrategy._storage_delta`);
    single-copy families (``migratory``, ``handopt``) cost exactly 0.

effective network usage (``effective_network_usage``)
    Bytes moved on links per read (``total_bytes`` over ``hits +
    misses``, which count the strategy's reads only): all traffic, the
    writes' included, charged to the reads.  0.0 when no read ran.

hit rate (``hit_rate``)
    Reads served from a local copy over all reads; 0.0 on zero traffic
    -- the **one** zero-division convention, replacing the two ad-hoc
    computations the launcher and the serve session used to carry.

Everything funnels through :class:`MetricsBundle`:
:meth:`MetricsBundle.to_row` is the emitter contract -- cells and
reports spread its dict instead of hand-merging counter fields -- and
:meth:`MetricsBundle.carry_row` projects the same columns into derived
rows (the per-phase Figure 9/10 breakdowns).  Adding a metric is one
field + one ``to_row`` entry here, plus whatever accounting feeds it
(see ARCHITECTURE.md "Adding a metric").
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Any, Dict

import numpy as np

__all__ = ["MetricsBundle", "StreamingQuantiles", "latency_percentiles"]

#: The percentile triple every surface reports, as quantiles.
LATENCY_QUANTILES = (0.5, 0.95, 0.99)


class StreamingQuantiles:
    """Fixed-size log-bucketed quantile sketch for latency samples.

    Serving a million requests used to retain every per-request latency
    sample just to compute three percentiles at close; this sketch folds
    samples into ``2 * HALF`` logarithmic buckets (~128 KiB, O(1) in the
    request count) with ``RESOLUTION`` buckets per octave -- a relative
    quantile error below ``2**(1/RESOLUTION) - 1`` (~0.55%).

    Deterministic and order-insensitive: the same multiset of samples
    produces the same bucket counts and therefore the same percentiles,
    whatever order the samples arrived in -- which is what lets the
    kernel fast path (completions drained in packed arrays) report the
    same numbers as the classic per-request path.  Mergeable by bucket
    addition (:meth:`merge`), which is what the serving fleet uses to
    combine per-worker sketches into fleet percentiles.
    """

    #: Buckets per octave (factor-of-two range of sample values).
    RESOLUTION = 128
    #: Bucket index range: [-HALF, HALF) covers 2**-64 .. 2**64 seconds.
    HALF = 8192

    __slots__ = ("buckets", "n", "zeros")

    def __init__(self):
        self.buckets = np.zeros(2 * self.HALF, dtype=np.int64)
        self.n = 0          # total samples, including non-positive ones
        self.zeros = 0      # samples <= 0.0 (sorted below every bucket)

    def __len__(self) -> int:
        return self.n

    def _indices(self, arr: np.ndarray) -> np.ndarray:
        with np.errstate(divide="ignore"):
            idx = np.floor(np.log2(arr) * self.RESOLUTION).astype(np.int64)
        return np.clip(idx + self.HALF, 0, 2 * self.HALF - 1)

    def add(self, value: float) -> None:
        self.add_many(np.asarray([value], dtype=np.float64))

    def add_many(self, values) -> None:
        arr = np.asarray(values, dtype=np.float64)
        if not arr.size:
            return
        pos = arr[arr > 0.0]
        self.zeros += int(arr.size - pos.size)
        self.n += int(arr.size)
        if pos.size:
            np.add.at(self.buckets, self._indices(pos), 1)

    def merge(self, other: "StreamingQuantiles") -> None:
        self.buckets += other.buckets
        self.n += other.n
        self.zeros += other.zeros

    def quantile(self, q: float) -> float:
        """The sketched ``q``-quantile: midpoint (in log space) of the
        bucket holding the rank-``q`` sample; 0.0 on an empty sketch."""
        if not self.n:
            return 0.0
        rank = q * (self.n - 1)
        if rank < self.zeros:
            return 0.0
        csum = np.cumsum(self.buckets)
        i = int(np.searchsorted(csum, rank - self.zeros, side="right"))
        if i >= 2 * self.HALF:
            i = 2 * self.HALF - 1
        return float(2.0 ** ((i - self.HALF + 0.5) / self.RESOLUTION))

    def percentiles(self) -> Dict[str, float]:
        csum = np.cumsum(self.buckets)
        out = {}
        for q, name in zip(LATENCY_QUANTILES, ("p50", "p95", "p99")):
            if not self.n:
                out[name] = 0.0
                continue
            rank = q * (self.n - 1)
            if rank < self.zeros:
                out[name] = 0.0
                continue
            i = int(np.searchsorted(csum, rank - self.zeros, side="right"))
            i = min(i, 2 * self.HALF - 1)
            out[name] = float(2.0 ** ((i - self.HALF + 0.5) / self.RESOLUTION))
        return out

    # ------------------------------------------------- fleet serialization
    def state(self) -> Dict[str, Any]:
        """Picklable state (worker -> parent transport); the bucket array
        ships sparse (indices + counts) because it is mostly zeros."""
        nz = np.nonzero(self.buckets)[0]
        return {
            "n": self.n,
            "zeros": self.zeros,
            "idx": nz.tolist(),
            "cnt": self.buckets[nz].tolist(),
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "StreamingQuantiles":
        sk = cls()
        sk.n = int(state["n"])
        sk.zeros = int(state["zeros"])
        if state["idx"]:
            sk.buckets[np.asarray(state["idx"], dtype=np.int64)] = np.asarray(
                state["cnt"], dtype=np.int64
            )
        return sk


def latency_percentiles(latencies) -> Dict[str, float]:
    """``{"p50": ..., "p95": ..., "p99": ...}`` of a latency sample.

    ``latencies`` is any float sequence (the hot paths pass an
    ``array('d')``, read zero-copy) or a :class:`StreamingQuantiles`
    sketch; an empty sample reports 0.0s rather than NaNs so
    zero-traffic rows stay valid JSON.
    """
    if isinstance(latencies, StreamingQuantiles):
        return latencies.percentiles()
    if not len(latencies):
        return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
    if isinstance(latencies, array):
        lat = np.frombuffer(latencies, dtype=np.float64)
    else:
        lat = np.asarray(latencies, dtype=np.float64)
    p50, p95, p99 = np.quantile(lat, LATENCY_QUANTILES)
    return {"p50": float(p50), "p95": float(p95), "p99": float(p99)}


@dataclass(frozen=True)
class MetricsBundle:
    """The per-run metric suite, identical for batch and serving.

    Constructed once per finished run (from a :class:`~repro.runtime
    .results.RunResult` via its ``metrics`` property, or inside
    :meth:`~repro.serve.session.ServeReport.make` for a session and a
    fleet) and consumed through
    :meth:`to_row` -- the one place the metric columns of a result row
    are defined.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Total bytes moved on links inside the measured window.
    total_bytes: float = 0.0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    #: Time integral of excess replica bytes (replica-bytes x seconds).
    storage_cost: float = 0.0

    @property
    def requests(self) -> int:
        """Completed strategy reads (``hits + misses``; writes are not
        counted)."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Reads served locally over all reads; 0.0 on zero traffic
        (the unified zero-request convention)."""
        n = self.requests
        return self.hits / n if n else 0.0

    @property
    def effective_network_usage(self) -> float:
        """Bytes moved (by reads and writes) per read; 0.0 on zero
        traffic."""
        n = self.requests
        return self.total_bytes / n if n else 0.0

    @classmethod
    def from_run(cls, hits: int, misses: int, evictions: int,
                 total_bytes: float, latencies, storage_cost: float,
                 ) -> "MetricsBundle":
        """Bundle raw accounting: percentiles are computed here so every
        surface uses the one quantile definition."""
        pct = latency_percentiles(latencies)
        return cls(
            hits=hits,
            misses=misses,
            evictions=evictions,
            total_bytes=total_bytes,
            latency_p50=pct["p50"],
            latency_p95=pct["p95"],
            latency_p99=pct["p99"],
            storage_cost=storage_cost,
        )

    #: The metric columns of a schema-v7 result row, in emission order.
    ROW_KEYS = (
        "hits", "misses", "hit_rate", "evictions",
        "latency_p50", "latency_p95", "latency_p99",
        "storage_cost", "effective_network_usage",
    )

    def to_row(self) -> Dict[str, Any]:
        """The emitter contract: the metric columns every result row
        carries (schema v7).  Cells spread this dict -- there is no other
        place these keys are assembled."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "evictions": self.evictions,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "storage_cost": self.storage_cost,
            "effective_network_usage": self.effective_network_usage,
        }

    @staticmethod
    def carry_row(row: Dict[str, Any]) -> Dict[str, Any]:
        """Project the metric columns out of an existing row, for derived
        rows (per-phase breakdowns) that inherit their source row's
        metrics."""
        return {k: row[k] for k in MetricsBundle.ROW_KEYS}
