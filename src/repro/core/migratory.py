"""The migratory strategy: single-copy owner migration.

The migration scheme from the data-grid replication taxonomy, adapted to
the paper's machine model: every global variable has exactly **one** copy
at all times, held by its current *owner*.

* A **write** by a non-owner *migrates* the copy: the request travels to
  the owner (via the variable's directory, below) and the copy travels
  back to the writer, who becomes the new owner.  Owner writes are free.
* A **read** by a non-owner is *forwarded*: the request travels to the
  owner and the value travels back, but the copy stays put -- the reader
  keeps nothing, so repeated reads keep paying the round trip.  Owner
  reads are local hits.

Owner lookup is served by a **directory** at the variable's creator (the
copy's birthplace): requests hop requester -> directory -> owner as
control messages and the value returns along the same path, so the
traffic shape matches the fixed-home round trip with the home pinned at
the creator.  Locks are a FIFO queue at the directory
(:class:`~repro.runtime.locks.HomeLock`), like fixed home.

Under bounded memory the sole copy is the authoritative value and is
therefore never evictable; the strategy still registers it with the
:class:`~repro.runtime.memory.MemoryBook` so capacity accounting sees it.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Set, Tuple

from ..network.topology import Topology
from ..runtime.locks import HomeLock
from ..runtime.variables import GlobalVariable
from .strategy import DataManagementStrategy, ResidencyMirror, next_live_node

__all__ = ["MigratoryStrategy"]


def _never_evictable(key) -> bool:
    return False


class _VarState:
    __slots__ = ("directory", "owner")

    def __init__(self, directory: int, owner: int):
        self.directory = directory
        self.owner = owner


class MigratoryStrategy(DataManagementStrategy):
    """Single-copy owner migration with read forwarding."""

    name = "migratory"

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self.seed = seed
        self._states: Dict[int, _VarState] = {}
        self.migrations = 0
        self.forwards = 0

    def attach(self, runtime) -> None:
        super().attach(runtime)
        self._locks = HomeLock(self.sim, self.directory_of)
        self._track_mem = self.memory.capacity is not None

    # ----------------------------------------------------------- inspection
    def directory_of(self, vid: int) -> int:
        return self._states[vid].directory

    def owner_of(self, var: GlobalVariable) -> int:
        return self._states[var.vid].owner

    def copy_procs(self, var: GlobalVariable) -> Set[int]:
        return {self._states[var.vid].owner}

    # ------------------------------------------------------------- plumbing
    def _mem_insert(self, var: GlobalVariable, proc: int) -> None:
        if self._track_mem:
            # The sole copy is authoritative: never evictable.
            self.memory[proc].insert(var.vid, var.payload_bytes, _never_evictable)

    def _hosts(self, proc: int, st: _VarState) -> list:
        """Request path ``proc -> directory -> owner`` with consecutive
        duplicates collapsed (the directory may be the requester or the
        owner)."""
        hosts = [proc]
        if st.directory != proc:
            hosts.append(st.directory)
        if st.owner != hosts[-1]:
            hosts.append(st.owner)
        return hosts

    # ------------------------------------------------------------------ API
    def register(self, var: GlobalVariable) -> None:
        self._states[var.vid] = _VarState(var.creator, var.creator)
        self._leg_costs[var.vid] = self.sim.leg_costs(var.payload_bytes)
        self._mem_insert(var, var.creator)

    def read(self, proc: int, var: GlobalVariable, t: float) -> Optional[Tuple[float, Any]]:
        """Owner reads are local hits; everything else is forwarded to the
        owner and back (no replication)."""
        st = self._states[var.vid]
        if proc == st.owner:
            self.hits += 1
            if self._track_mem and var.vid in self.memory[proc]:
                self.memory[proc].touch(var.vid)
            return t, self.registry.get(var)
        self.misses += 1
        self.forwards += 1
        ctrl, data = self._leg_costs[var.vid]
        return self._launch(
            proc, t, self._hosts(proc, st), ctrl, data, self.registry.get(var)
        )

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> Optional[float]:
        """Owner writes are free; a non-owner write migrates the copy to
        the writer (request up to the owner, the copy back down)."""
        st = self._states[var.vid]
        if proc == st.owner:
            self.write_local += 1
            self.registry.set(var, value)
            if self._track_mem and var.vid in self.memory[proc]:
                self.memory[proc].touch(var.vid)
            return t
        self.write_remote += 1
        self.migrations += 1
        hosts = self._hosts(proc, st)
        old_owner = st.owner
        # --- state update (atomic at initiation) ---
        st.owner = proc
        self.registry.set(var, value)
        if self._track_mem:
            old_mem = self.memory[old_owner]
            if var.vid in old_mem:
                old_mem.remove(var.vid)
            self._mem_insert(var, proc)
        # --- timing flow: control request up, the migrating copy down ---
        ctrl, data = self._leg_costs[var.vid]
        return self._launch(proc, t, hosts, ctrl, data)

    # ----------------------------------------------------- residency mirror
    def _mirror(self) -> ResidencyMirror:
        """The owner holds the only copy: it reads and writes locally."""
        return ResidencyMirror.over_processors(self.topology.n_nodes)

    def residency(self, vid: int):
        owner = self._states[vid].owner
        return owner, (owner,), -1

    # --------------------------------------------------------------- repair
    def on_node_down(self, proc, t, down=frozenset()):
        """Fail-stop repair: a dead directory moves to the next live
        processor (control message); a dead owner hands the sole copy
        off -- it is never dropped -- to the (repaired) directory when
        live, else to the next live processor (data message)."""
        n = self.topology.n_nodes
        repaired = []
        for vid in sorted(self._states):
            st = self._states[vid]
            touched = False
            if st.directory == proc:
                st.directory = next_live_node(proc, n, down)
                self.sim.send_leg(proc, st.directory, 0, t, is_data=False)
                touched = True
            if st.owner == proc:
                var = self.registry.by_id(vid)
                target = st.directory if st.directory not in down else (
                    next_live_node(proc, n, down)
                )
                if self._track_mem and vid in self.memory[proc]:
                    self.memory[proc].remove(vid)
                st.owner = target
                self._mem_insert(var, target)
                self.sim.send_leg(proc, target, var.payload_bytes, t, is_data=True)
                touched = True
            if touched:
                repaired.append(vid)
        return repaired

    def reset_counters(self) -> None:
        super().reset_counters()
        # migrations tracks write_remote and forwards tracks misses; they
        # must cover the same measured window as their counterparts.
        self.migrations = 0
        self.forwards = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"MigratoryStrategy(seed={self.seed}, {self.topology!r})"
