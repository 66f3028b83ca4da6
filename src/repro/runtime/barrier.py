"""Barrier synchronization.

The DIVA library "provides routines for barrier synchronization ... these
routines are implementations of elegant algorithms that use access trees".
We implement the natural such algorithm: a combining tree over the mesh
decomposition tree.  Every processor's leaf sends an *arrive* message to
its parent; an interior node forwards one arrive upward once all of its
children have arrived; the root then broadcasts a *release* downward.  All
traffic follows tree edges, so barrier congestion is small and balanced.

A *central* barrier (one coordinator collects P-1 arrivals and sends P-1
releases, serializing at its NIC) is provided for ablations; it shows the
hotspot behaviour that a fixed central service exhibits on large meshes.

Timing note: the combining pass is computed when the last processor
arrives -- by then the arrival times of all processors are known and the
leg times can be computed in one post-order sweep
(:meth:`repro.sim.engine.Simulator.combine`, one call into the C kernel).
Barrier messages are control-sized, so acquiring their link reservations
slightly late has no measurable effect on the surrounding traffic.

Contract: ``arrive(proc, t)`` records an arrival.  The one that completes
an episode runs the pass, which wakes every processor at its release time
through :meth:`~repro.sim.engine.Simulator.resume_at` (the tree barrier
in leaf order, the central one in arrival order), and returns the
episode's boundary, the latest release; every other arrival returns
``None``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

from ..core.decomposition import DecompositionTree, build_tree
from ..core.embedding import ModifiedEmbedding
from ..sim.engine import CombineTables, Simulator

__all__ = ["TreeBarrier", "CentralBarrier", "make_barrier"]

#: Sentinel vid for the (single, shared) barrier tree embedding.
_BARRIER_VID = -1


class TreeBarrier:
    """Combining-tree barrier over a decomposition tree."""

    kind = "tree"

    def __init__(self, sim: Simulator, tree: Optional[DecompositionTree] = None, seed: int = 0):
        self.sim = sim
        self.tree = tree if tree is not None else build_tree(sim.topology, stride=2, terminal=1)
        self.embedding = ModifiedEmbedding(self.tree, seed=seed ^ 0xBA221E2)
        self.tables = self._tables()
        self._arrivals: List[float] = [0.0] * self.n_procs
        self._arrived: Set[int] = set()
        self.episodes = 0

    @property
    def n_procs(self) -> int:
        return self.sim.topology.n_nodes

    def _tables(self) -> CombineTables:
        """The combining tree, dense, in the pass's pre-order: a node is
        listed before its subtree, its last child's subtree first."""
        tree = self.tree
        order: List[int] = []
        stack = [tree.root]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(tree.nodes[n].children)
        local = {n: i for i, n in enumerate(order)}
        host = [self.embedding.host(_BARRIER_VID, n) for n in order]
        kid_off, kids, leaf_proc = [0], [], []
        for n in order:
            node = tree.nodes[n]
            kids.extend(local[c] for c in node.children)
            kid_off.append(len(kids))
            leaf_proc.append(tree.mesh.node(node.row0, node.col0) if node.is_leaf else -1)
        return CombineTables(host, kid_off, kids, leaf_proc)

    def arrive(self, proc: int, t: float) -> Optional[float]:
        """Processor ``proc`` reaches the barrier at time ``t``; the last
        arrival runs the pass and returns the boundary (module docstring)."""
        arrived = self._arrived
        if proc in arrived:
            raise RuntimeError(f"processor {proc} arrived twice at the same barrier")
        self._arrivals[proc] = t
        arrived.add(proc)
        if len(arrived) < len(self._arrivals):
            return None
        arrived.clear()
        self.episodes += 1
        return self.sim.combine(self.tables, self._arrivals)


class CentralBarrier:
    """Central-coordinator barrier (ablation baseline): every processor
    sends an arrive message to one coordinator, which replies to each."""

    kind = "central"

    def __init__(self, sim: Simulator, coordinator: int = 0):
        self.sim = sim
        self.coordinator = coordinator
        self._arrivals: Dict[int, float] = {}
        self.episodes = 0

    @property
    def n_procs(self) -> int:
        return self.sim.topology.n_nodes

    def arrive(self, proc: int, t: float) -> Optional[float]:
        """As :meth:`TreeBarrier.arrive`; releases go out in arrival order."""
        if proc in self._arrivals:
            raise RuntimeError(f"processor {proc} arrived twice at the same barrier")
        self._arrivals[proc] = t
        if len(self._arrivals) < self.n_procs:
            return None
        sim, coord = self.sim, self.coordinator
        arrivals = self._arrivals
        self._arrivals = {}
        self.episodes += 1
        t_all = 0.0
        for p, t_p in arrivals.items():
            t_arr = t_p if p == coord else sim.send_leg(p, coord, 0, t_p, is_data=False)
            if t_arr > t_all:
                t_all = t_arr
        latest = 0.0
        for p in arrivals:
            rel = t_all if p == coord else sim.send_leg(coord, p, 0, t_all, is_data=False)
            sim.resume_at(rel, p)
            if rel > latest:
                latest = rel
        return latest


def make_barrier(kind: str, sim: Simulator, seed: int = 0):
    """Factory: ``"tree"`` (DIVA default) or ``"central"`` (ablation)."""
    if kind == "tree":
        return TreeBarrier(sim, seed=seed)
    if kind == "central":
        return CentralBarrier(sim)
    raise ValueError(f"unknown barrier kind {kind!r}; expected 'tree' or 'central'")
