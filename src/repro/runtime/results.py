"""Run results: the measured quantities of one simulated execution."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..metrics import MetricsBundle
from ..network.stats import PhaseStats, StatsSnapshot

__all__ = ["AVAILABILITY", "RunResult"]

#: The availability counters (schema v6), in row order: every batch result
#: and every serving report carries them (all zero without a failure
#: schedule); :meth:`repro.runtime.launcher.Runtime.availability` reads them.
AVAILABILITY = ("requests_failed", "requests_stalled", "requests_retried", "repairs",
                "failure_events")


@dataclass
class RunResult:
    """Everything the paper measures, for one application run.

    Attributes
    ----------
    time:
        Virtual execution time of the measured window (seconds).  For most
        runs the window is the whole execution; Barnes-Hut resets the
        window after its warm-up steps, like the paper.
    stats:
        Traffic snapshot of the measured window; ``stats.congestion_bytes``
        and ``stats.congestion_msgs`` are the paper's congestion in data
        volume and in messages.
    phases:
        Per-phase congestion/time breakdown (Figures 9/10); phases with the
        same label accumulate across time-steps.
    compute_time:
        Virtual seconds charged as local computation inside the window,
        summed per processor and maximized (the "local computation time"
        line of Figure 10 reports the per-phase variant).
    hits / misses:
        Strategy cache statistics (reads served from a local copy vs reads
        that needed communication).
    latency_p50 / latency_p95 / latency_p99 / storage_cost:
        The schema-v7 metric suite (see :mod:`repro.metrics`): simulated
        issue->completion latency percentiles over every read/write in
        the measured window, and the time integral of excess replica
        bytes.  :attr:`metrics` bundles them (plus the derived hit rate
        and effective network usage) for emission.
    requests_failed / requests_stalled / requests_retried / repairs /
    failure_events:
        Availability accounting under a failure schedule (schema v6; all
        zero without one).  ``requests_failed`` counts route resolutions
        that found the pair unreachable, ``requests_stalled`` counts
        resolutions detoured around down links (each distinct
        ``(src, dst)`` pair counted once per failure epoch),
        ``requests_retried`` counts requests that were the first to touch
        a variable after a repair hook fixed it, ``repairs`` the repaired
        variables, and ``failure_events`` the schedule events applied.
    extra:
        Application-specific outputs (verification data etc.).
    """

    strategy: str
    mesh: str
    time: float
    end_time: float
    stats: StatsSnapshot
    phases: List[PhaseStats] = field(default_factory=list)
    compute_time: float = 0.0
    hits: int = 0
    misses: int = 0
    latency_p50: float = 0.0
    latency_p95: float = 0.0
    latency_p99: float = 0.0
    storage_cost: float = 0.0
    lock_acquisitions: int = 0
    evictions: int = 0
    barrier_episodes: int = 0
    requests_failed: int = 0
    requests_stalled: int = 0
    requests_retried: int = 0
    repairs: int = 0
    failure_events: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def congestion_bytes(self) -> float:
        return self.stats.congestion_bytes

    @property
    def congestion_msgs(self) -> int:
        return self.stats.congestion_msgs

    @property
    def total_bytes(self) -> float:
        return self.stats.total_bytes

    @property
    def metrics(self) -> MetricsBundle:
        """The metric suite of this run (schema v7): the bundle cells
        spread into result rows via ``metrics.to_row()``."""
        return MetricsBundle(
            hits=self.hits,
            misses=self.misses,
            evictions=self.evictions,
            total_bytes=self.total_bytes,
            latency_p50=self.latency_p50,
            latency_p95=self.latency_p95,
            latency_p99=self.latency_p99,
            storage_cost=self.storage_cost,
        )

    @property
    def hit_ratio(self) -> float:
        return self.metrics.hit_rate

    def phase(self, name: str) -> Optional[PhaseStats]:
        for ph in self.phases:
            if ph.name == name:
                return ph
        return None

    def as_dict(self) -> Dict[str, Any]:
        return {
            "strategy": self.strategy,
            "mesh": self.mesh,
            "time": self.time,
            "congestion_bytes": self.congestion_bytes,
            "congestion_msgs": self.congestion_msgs,
            "total_bytes": self.total_bytes,
            "total_msgs": self.stats.total_msgs,
            "max_startups": self.stats.max_startups,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "latency_p50": self.latency_p50,
            "latency_p95": self.latency_p95,
            "latency_p99": self.latency_p99,
            "storage_cost": self.storage_cost,
            "effective_network_usage": self.metrics.effective_network_usage,
            "lock_acquisitions": self.lock_acquisitions,
            "evictions": self.evictions,
            "compute_time": self.compute_time,
            "requests_failed": self.requests_failed,
            "requests_stalled": self.requests_stalled,
            "requests_retried": self.requests_retried,
            "repairs": self.repairs,
            "failure_events": self.failure_events,
            "phases": [p.as_dict() for p in self.phases],
        }
