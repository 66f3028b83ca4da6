"""The fixed home strategy (the paper's CC-NUMA-like baseline).

Each global variable is assigned a *home* processor chosen uniformly at
random; the home keeps track of the variable's copies using the classical
**ownership scheme**:

* at any time either some processor or the home ("main memory") is the
  owner;
* a **write** by a non-owner invalidates all existing copies (the home
  sends one invalidation per copy holder and collects acknowledgements)
  and makes the writer the owner holding the sole copy; writes by the
  owner are free;
* a **read** by a processor without a valid copy asks the home; if a
  processor owns the variable, the home first fetches the value (moving
  ownership back to the home, the previous owner keeping a non-owner
  copy), then answers with a data message.

If every write is preceded by a read of the same processor -- true for all
three applications -- this behaves like a P-ary access tree, which is why
the paper considers it the right baseline.

Locks are served by a FIFO queue at the variable's home.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional, Set, Tuple

from ..network.topology import Topology
from ..runtime.locks import HomeLock
from ..runtime.variables import GlobalVariable
from .strategy import DataManagementStrategy, ResidencyMirror, next_live_node

__all__ = ["FixedHomeStrategy"]

#: Owner sentinel: the home/main-memory is the owner.
HOME = -1


class _VarState:
    __slots__ = ("home", "copies", "owner")

    def __init__(self, home: int, creator: int):
        self.home = home
        # The creator initialized the variable: it holds the sole copy and
        # the ownership, exactly as after a write (matching the paper's
        # matrix-multiplication initial configuration).
        self.copies: Set[int] = {creator}
        self.owner = creator


class FixedHomeStrategy(DataManagementStrategy):
    """Fixed home + ownership scheme."""

    name = "fixed-home"

    def __init__(self, topology: Topology, seed: int = 0):
        self.topology = topology
        self.seed = seed
        self._states: Dict[int, _VarState] = {}

    def attach(self, runtime) -> None:
        super().attach(runtime)
        self._locks = HomeLock(self.sim, self.home_of)
        # LRU bookkeeping is only needed under bounded memory.
        self._track_mem = self.memory.capacity is not None

    # ----------------------------------------------------------- inspection
    def home_of(self, vid: int) -> int:
        return self._states[vid].home

    def copy_procs(self, var: GlobalVariable) -> Set[int]:
        return set(self._states[var.vid].copies)

    def owner_of(self, var: GlobalVariable) -> int:
        """Current owner processor, or ``HOME`` (-1)."""
        return self._states[var.vid].owner

    # ------------------------------------------------------------- plumbing
    def _mem_insert(self, st: _VarState, var: GlobalVariable, proc: int, t: float) -> None:
        if not self._track_mem:
            return
        mem = self.memory[proc]

        def evictable(vid2) -> bool:
            st2 = self._states[vid2]
            if st2.owner == proc:
                return False  # the owner's copy is authoritative
            if st2.owner == HOME and proc == st2.home:
                return False  # ditto for the home's copy
            return True

        def on_evict(vid2) -> None:
            st2 = self._states[vid2]
            if proc in st2.copies:
                st2.copies.discard(proc)
                self._storage_delta(-self.registry.by_id(vid2).payload_bytes, t)
            # Dropping a cached copy must be announced to the home, which
            # tracks all copies for invalidation.
            self.sim.send_leg(proc, st2.home, 0, t, is_data=False)

        mem.insert(var.vid, var.payload_bytes, evictable, on_evict)

    # ------------------------------------------------------------------ API
    def register(self, var: GlobalVariable) -> None:
        rng = random.Random((self.seed * 1000003 + var.vid) ^ 0x5EED)
        home = rng.randrange(self.topology.n_nodes)
        st = _VarState(home, var.creator)
        self._states[var.vid] = st
        self._leg_costs[var.vid] = self.sim.leg_costs(var.payload_bytes)
        if self._track_mem:
            self._mem_insert(st, var, var.creator, 0.0)

    def read(self, proc: int, var: GlobalVariable, t: float) -> Optional[Tuple[float, Any]]:
        """Serve a read.  Returns ``(t, value)`` for a local hit; otherwise
        launches the home round-trip flow and returns ``None``."""
        st = self._states[var.vid]
        if proc in st.copies:
            self.hits += 1
            if self._track_mem:
                mem = self.memory[proc]
                if var.vid in mem:
                    mem.touch(var.vid)
            return t, self.registry.get(var)
        self.misses += 1
        self._read_miss_flow(st, proc, var, t, replicate=self._read_replicates(st, proc, var))
        return None

    def _read_replicates(self, st: _VarState, proc: int, var: GlobalVariable) -> bool:
        """Whether this read miss leaves a copy at the reader: always for
        the fixed home scheme; :class:`~repro.core.dynrep.DynRepStrategy`
        overrides *only* this decision, inheriting hit path and miss flow,
        so the two protocols can never drift apart."""
        return True

    def _read_miss_flow(
        self, st: _VarState, proc: int, var: GlobalVariable, t: float, replicate: bool
    ) -> None:
        """The home round-trip of a read miss: request up ``proc -> home
        [-> owner]`` as control messages, the value back down as data."""
        payload = var.payload_bytes
        hosts: List[int] = [proc, st.home]
        if st.owner != HOME:
            # The home first fetches the value from the current owner,
            # moving the ownership back to the main memory.
            hosts.append(st.owner)
            st.owner = HOME
            if st.home not in st.copies:
                st.copies.add(st.home)
                self._storage_delta(payload, t)
            self._mem_insert(st, var, st.home, t)
        if replicate:
            st.copies.add(proc)
            self._storage_delta(payload, t)
            self._mem_insert(st, var, proc, t)
        ctrl, data = self._leg_costs[var.vid]
        self._launch(proc, t, hosts, ctrl, data, self.registry.get(var))

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> Optional[float]:
        """Serve a write.  Owner writes are free; otherwise the home
        invalidates all copies (serializing at its NIC -- the hotspot the
        paper attributes to this strategy), collects acknowledgements and
        grants ownership to the writer."""
        st = self._states[var.vid]
        if st.owner == proc:
            self.write_local += 1
            self.registry.set(var, value)
            if self._track_mem:
                mem = self.memory[proc]
                if var.vid in mem:
                    mem.touch(var.vid)
            return t
        self.write_remote += 1
        home = st.home
        holders = sorted(st.copies - {proc})
        # --- state update (atomic at initiation) ---
        if self._track_mem:
            for q in holders:
                mem = self.memory[q]
                if var.vid in mem:
                    mem.remove(var.vid)
        self._storage_delta((1 - len(st.copies)) * var.payload_bytes, t)
        st.copies = {proc}
        st.owner = proc
        self.registry.set(var, value)
        self._mem_insert(st, var, proc, t)

        # --- timing flow: request; star-multicast invalidations + acks
        # through the home (local id 0; holder i is local id i + 1);
        # ownership grant back to the writer.  All control messages. ---
        k = len(holders)
        ctrl = self._leg_costs[var.vid][0]
        return self._launch(
            proc, t, [proc, home], ctrl, ctrl,
            fanout=([home, *holders], [k] + [0] * k, [0] * (k + 1), range(1, k + 1)),
        )

    # ----------------------------------------------------- residency mirror
    def _mirror(self) -> ResidencyMirror:
        """A read hits iff the reader holds a copy; the owner writes
        locally.  The home never moves and every miss replicates, so the
        miss round trip and the invalidating write are static: the
        directory flow."""
        return ResidencyMirror.over_processors(self.topology.n_nodes, directory=True)

    def residency(self, vid: int):
        st = self._states[vid]
        return st.owner, st.copies, -1

    def flow_row(self, vid: int):
        return (
            [self._states[vid].home],
            float(self.registry.by_id(vid).payload_bytes),
            self._leg_costs[vid][1][:3],
        )

    def adopt(self, vid: int, members, top: int) -> None:
        st = self._states[vid]
        st.copies = set(members)
        st.owner = top

    # --------------------------------------------------------------- repair
    def on_node_down(self, proc, t, down=frozenset()):
        """Fail-stop repair: re-home directories whose home died (the
        next live processor takes over, announced by a control message),
        return ownership held by the dead node to main memory (the home
        re-materializes the authoritative copy), and drop dead cached
        copies from the copy sets.

        Repair messages sourced at the dead node resolve to zero-link
        routes (its links are already down), so repair costs NIC/local
        overhead but no link traffic -- deterministic and identical in
        both engines."""
        repaired = []
        for vid in sorted(self._states):
            st = self._states[vid]
            touched = False
            var = self.registry.by_id(vid)
            n_before = len(st.copies)
            if st.home == proc:
                # The directory died with its node: the next live
                # processor becomes the new home.
                new_home = next_live_node(proc, self.topology.n_nodes, down)
                self.sim.send_leg(proc, new_home, 0, t, is_data=False)
                if st.owner == HOME and proc in st.copies:
                    # Main memory's authoritative copy moves with the home.
                    st.copies.discard(proc)
                    if self._track_mem and vid in self.memory[proc]:
                        self.memory[proc].remove(vid)
                    st.copies.add(new_home)
                    st.home = new_home
                    self._mem_insert(st, var, new_home, t)
                    self.sim.send_leg(proc, new_home, var.payload_bytes, t, is_data=True)
                else:
                    st.home = new_home
                touched = True
            if st.owner == proc:
                # The owner died holding the sole authoritative copy:
                # ownership reverts to main memory at the (live) home.
                st.owner = HOME
                st.copies.discard(proc)
                if self._track_mem and vid in self.memory[proc]:
                    self.memory[proc].remove(vid)
                st.copies.add(st.home)
                self._mem_insert(st, var, st.home, t)
                self.sim.send_leg(proc, st.home, var.payload_bytes, t, is_data=True)
                touched = True
            if proc in st.copies:
                # A plain cached copy needs no message: the home simply
                # forgets the dead holder.
                st.copies.discard(proc)
                if self._track_mem and vid in self.memory[proc]:
                    self.memory[proc].remove(vid)
                touched = True
            if touched:
                delta = (len(st.copies) - n_before) * var.payload_bytes
                if delta:
                    self._storage_delta(delta, t)
                repaired.append(vid)
        return repaired

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixedHomeStrategy(seed={self.seed}, {self.topology!r})"
