"""Online-adaptive replication driven by a decaying popularity estimator.

Where :class:`~repro.core.dynrep.DynRepStrategy` counts raw remote reads
and *resets* its counters on every invalidation, the adaptive strategy
keeps a per-``(variable, processor)`` **access score** that decays with
the variable's access clock and -- crucially -- survives writes:

* every read of a variable advances the variable's access clock ``n``;
  the reader's score is first decayed by ``0.5 ** (dn / halflife)``
  (``dn`` = clock ticks since the reader's last access) and then
  incremented by one, so a score approximates the reader's share of the
  variable's recent accesses;
* a read **miss** leaves a replica at the reader once its score reaches
  ``promote`` (fixed-home hit path and miss flow are fully inherited);
* on a read miss the home also **demotes** copy holders whose decayed
  score has fallen below ``demote`` (one control message each), never
  touching the authoritative copy (the owner's, or the home's while main
  memory owns);
* a **write** invalidates all replicas exactly as fixed home does, but
  the scores persist -- a processor that was hot before the write
  re-earns its replica on the *first* miss afterwards, which is the
  scheme's edge over ``dynrep`` when the working set drifts
  (``xadapt`` in :mod:`repro.exp.registry`).

Spec: ``adaptive[:halflife=H][:promote=P][:demote=D]`` via the shared
grammar (:mod:`repro.core.specs`), e.g. ``adaptive:halflife=50:promote=3``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..network.topology import Topology
from ..runtime.variables import GlobalVariable
from .fixed_home import HOME, FixedHomeStrategy
from .strategy import ResidencyMirror

__all__ = ["AdaptiveStrategy"]


class AdaptiveStrategy(FixedHomeStrategy):
    """Fixed-home directory + decayed-score promotion/demotion."""

    def __init__(
        self,
        topology: Topology,
        seed: int = 0,
        halflife: float = 50.0,
        promote: float = 3.0,
        demote: float = 0.5,
    ):
        if halflife <= 0:
            raise ValueError(f"adaptive halflife must be > 0, got {halflife}")
        if promote <= 0:
            raise ValueError(f"adaptive promote must be > 0, got {promote}")
        if not 0 <= demote < promote:
            raise ValueError(
                f"adaptive demote must satisfy 0 <= demote < promote, got {demote}"
            )
        super().__init__(topology, seed=seed)
        self.halflife = float(halflife)
        self.promote = float(promote)
        self.demote = float(demote)
        self.name = f"adaptive:halflife={self.halflife:g}:promote={self.promote:g}"
        #: vid -> access clock (number of reads of the variable so far).
        self._n_access: Dict[int, int] = {}
        #: vid -> proc -> (score at last access, clock at last access).
        self._scores: Dict[int, Dict[int, Tuple[float, int]]] = {}
        self.replications = 0
        self.demotions = 0

    def _mirror(self) -> ResidencyMirror:
        """Every read advances the popularity estimator, so reads always
        cross; owner writes are fixed home's."""
        return ResidencyMirror.over_processors(self.topology.n_nodes, native_reads=False)

    # ----------------------------------------------------------- estimator
    def _decayed(self, entry: Optional[Tuple[float, int]], n: int) -> float:
        if entry is None:
            return 0.0
        score, last_n = entry
        if n == last_n:
            return score
        return score * 0.5 ** ((n - last_n) / self.halflife)

    # ------------------------------------------------------------------ API
    def read(self, proc: int, var: GlobalVariable, t: float):
        """Advance the variable's clock, credit the reader's score, demote
        cold holders on a miss, then serve the read as fixed home does."""
        vid = var.vid
        n = self._n_access.get(vid, 0) + 1
        self._n_access[vid] = n
        scores = self._scores.setdefault(vid, {})
        scores[proc] = (self._decayed(scores.get(proc), n) + 1.0, n)
        st = self._states[vid]
        if proc not in st.copies:
            self._demote_cold(st, var, t)
        return super().read(proc, var, t)

    def _read_replicates(self, st, proc: int, var: GlobalVariable) -> bool:
        """The promotion decision: replicate once the reader's (already
        credited) score reaches ``promote``."""
        n = self._n_access.get(var.vid, 0)
        if self._decayed(self._scores.get(var.vid, {}).get(proc), n) >= self.promote:
            self.replications += 1
            return True
        return False

    def _demote_cold(self, st, var: GlobalVariable, t: float) -> None:
        """Drop replicas whose decayed score fell below ``demote``: the
        home knows every holder, so each demotion is one control message
        (holder memory and copy set updated at initiation, like writes).
        The authoritative copy -- the owner's, or the home's while main
        memory owns -- is never demoted."""
        vid = var.vid
        n = self._n_access.get(vid, 0)
        scores = self._scores.get(vid, {})
        payload = var.payload_bytes
        for q in sorted(st.copies):
            if q == st.owner:
                continue
            if st.owner == HOME and q == st.home:
                continue
            if self._decayed(scores.get(q), n) < self.demote:
                st.copies.discard(q)
                if self._track_mem and vid in self.memory[q]:
                    self.memory[q].remove(vid)
                self._storage_delta(-payload, t)
                self.sim.send_leg(st.home, q, 0, t, is_data=False)
                scores.pop(q, None)
                self.demotions += 1

    def reset_counters(self) -> None:
        super().reset_counters()
        self.replications = 0
        self.demotions = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"AdaptiveStrategy(halflife={self.halflife:g}, "
            f"promote={self.promote:g}, demote={self.demote:g}, "
            f"seed={self.seed}, {self.topology!r})"
        )
