"""Threshold-based dynamic replication with write-invalidation.

The classic threshold scheme from the data-grid replication literature,
layered on the fixed-home directory: a variable's home tracks its copies
and its owner exactly as in :class:`~repro.core.fixed_home.FixedHomeStrategy`,
but a reader only *earns* a local replica after ``threshold`` remote
reads of the variable -- below the threshold the read is served by the
home round trip and the reader keeps nothing.

* **threshold = 1** replicates on the first remote read: behaviorally
  identical to fixed home (pinned by ``tests/core/test_dynrep.py``).
* **Larger thresholds** trade read latency for invalidation traffic: a
  variable that is written between a processor's reads never becomes a
  replica there, so the write's invalidation multicast stays small -- the
  scheme's advantage on mixed read/write workloads, where fixed home
  pays one invalidation per reader-of-record.

A **write** invalidates all replicas through the home (star multicast +
acks, inherited) and makes the writer the owner of the sole copy; it
also resets the variable's replication counters -- destroyed replicas
must re-earn their place, which is what keeps write-heavy variables from
re-replicating.  LRU eviction of a replica (bounded memory) likewise
restarts that processor's count on the next miss.

Locks are the home-FIFO service, inherited.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from ..network.topology import Topology
from ..runtime.variables import GlobalVariable
from .fixed_home import FixedHomeStrategy
from .strategy import ResidencyMirror

__all__ = ["DynRepStrategy"]


class DynRepStrategy(FixedHomeStrategy):
    """Fixed-home directory + replicate-after-``threshold``-remote-reads."""

    def __init__(self, topology: Topology, seed: int = 0, threshold: int = 2):
        if threshold < 1:
            raise ValueError(
                f"dynrep threshold must be >= 1 (1 replicates on the first "
                f"remote read, i.e. fixed-home), got {threshold}"
            )
        super().__init__(topology, seed=seed)
        self.threshold = threshold
        self.name = f"dynrep:threshold={threshold}"
        #: vid -> proc -> remote reads since the variable's last
        #: invalidation (or since the proc's replica was evicted).
        self._read_counts: Dict[int, Dict[int, int]] = {}
        self.replications = 0

    def _mirror(self) -> ResidencyMirror:
        """Hit path and owner-write rule are fixed home's.  Whether a
        miss replicates depends on ``threshold`` and a remote write
        resets the read counts, so neither flow is static: both cross."""
        return ResidencyMirror.over_processors(self.topology.n_nodes)

    # ------------------------------------------------------------------ API
    def _read_replicates(self, st, proc: int, var: GlobalVariable) -> bool:
        """The one divergence from fixed home: a read miss leaves a copy
        at the reader only once ``proc`` has accumulated ``threshold``
        remote reads of the variable (hit path and miss flow are fully
        inherited)."""
        counts = self._read_counts.setdefault(var.vid, {})
        count = counts.get(proc, 0) + 1
        if count >= self.threshold:
            counts.pop(proc, None)
            self.replications += 1
            return True
        counts[proc] = count
        return False

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> Optional[float]:
        """Fixed-home write (invalidate all, writer becomes owner) plus a
        replication-counter reset: destroyed replicas re-earn their place."""
        done = super().write(proc, var, value, t)
        if done is None:
            # Remote write: all replicas were invalidated.
            self._read_counts.pop(var.vid, None)
        return done

    def reset_counters(self) -> None:
        super().reset_counters()
        self.replications = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynRepStrategy(threshold={self.threshold}, seed={self.seed}, "
            f"{self.topology!r})"
        )
