"""Embeddings of access trees into the network.

For each global variable the access tree (a copy of the decomposition tree)
is embedded into the topology: every tree node is hosted by a processor of
the region (submesh / subring / subcube) it represents.  Two embeddings are
implemented for the paper's mesh:

* :class:`RandomEmbedding` -- the theoretical version analysed in Maggs et
  al.: each node is mapped *independently and uniformly at random* to a
  processor of its submesh.
* :class:`ModifiedEmbedding` -- the paper's practical improvement
  ("Practical improvements to the access tree strategy"): the root is
  mapped at random; every other node ``v`` with parent ``v'`` inherits the
  parent's submesh-local coordinates modulo its own submesh size:
  if ``v'`` sits in row ``i`` / column ``j`` *of its submesh* ``M'``, then
  ``v`` is hosted at row ``i mod m1``, column ``j mod m2`` of its submesh
  ``M`` (``m1 x m2``).  This shortens the expected distance between
  neighbouring tree nodes at the price of correlated placements (the paper
  saw no bad effects, and neither do our ablations).

Both embeddings are deterministic functions of ``(seed, variable id)`` and
are computed lazily, node by node: Barnes-Hut creates hundreds of thousands
of variables, and only the tree nodes actually touched by the protocol ever
need a host.  :meth:`Embedding.host_row` hands out a variable's whole row
at once (what the kernel's residency mirror replays flows from); under the
modified embedding a row is a function of the root's host alone, so it is
one lookup into a table built once per embedding.

Per-topology variants (selected by :func:`make_embedding` from the tree's
topology; the mesh classes above are untouched so mesh results stay
byte-identical):

* :class:`TorusModifiedEmbedding` -- the modified embedding with
  **wrap-aware subtree placement**: the child is hosted at the position of
  its box nearest to the parent's host around each ring (wrap included),
  so parent-child tree edges are as short as the torus allows instead of
  inheriting the mesh's reflection a half-box away.
* :class:`SubcubeEmbedding` -- the hypercube's **subcube-recursive**
  analogue of the modified embedding: a child subcube's host agrees with
  its parent's host on all free (low-order) address bits of the child;
  only the newly fixed dimensions change, so the parent-child hop count is
  at most the number of dimensions fixed between the two tree levels.

A leaf's region is a single processor, so every leaf is hosted by "its"
processor under every embedding -- requests enter and answers leave the
tree at the requesting processor, as the protocol requires.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Set

import numpy as np

from .decomposition import DecompositionTree

__all__ = [
    "Embedding",
    "RandomEmbedding",
    "ModifiedEmbedding",
    "TorusModifiedEmbedding",
    "SubcubeEmbedding",
    "make_embedding",
]

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 1000003

#: Largest ``processors x tree nodes`` row table :meth:`ModifiedEmbedding.
#: host_row` builds (16 MiB of int32); larger machines walk the nodes.
_ROW_TABLE_LIMIT = 1 << 22


def _key(seed: int, vid: int, node: int) -> int:
    """Stable scalar seed for (run seed, variable, tree node)."""
    return (seed * _MIX2 + vid + 1) * _MIX2 + node ^ _MIX1


class Embedding:
    """Base class: lazy per-variable ``host(vid, node) -> processor`` map.

    The per-variable memo is a flat ``None``-filled list indexed by tree
    node id (trees are small and shared, and list indexing is the protocol
    hot path) rather than a dict.
    """

    name = "abstract"

    def __init__(self, tree: DecompositionTree, seed: int = 0):
        self.tree = tree
        self.seed = seed
        self._n_tree_nodes = len(tree.nodes)
        self._cache: Dict[int, List[Optional[int]]] = {}
        self._pinned: Set[int] = set()  # vids with an overridden host

    def host(self, vid: int, node: int) -> int:
        """Processor hosting tree ``node`` of variable ``vid``'s access tree."""
        per_var = self._cache.get(vid)
        if per_var is None:
            per_var = self._cache[vid] = [None] * self._n_tree_nodes
        h = per_var[node]
        if h is None:
            h = self._compute(vid, node, per_var)
            per_var[node] = h
        return h

    def per_var_hosts(self, vid: int) -> List[Optional[int]]:
        """The variable's mutable host memo (hot-path accessor: strategies
        index it directly and fall back to :meth:`host` on ``None``)."""
        per_var = self._cache.get(vid)
        if per_var is None:
            per_var = self._cache[vid] = [None] * self._n_tree_nodes
        return per_var

    def override(self, vid: int, node: int, host: int) -> None:
        """Pin ``node``'s host (the node-remapping feature)."""
        self.per_var_hosts(vid)[node] = host
        self._pinned.add(vid)

    def host_row(self, vid: int) -> np.ndarray:
        """The host of every tree node of ``vid``'s access tree, indexed by
        node id (int32)."""
        host = self.host
        return np.fromiter(
            (host(vid, node) for node in range(self._n_tree_nodes)),
            dtype=np.int32, count=self._n_tree_nodes,
        )

    def _compute(self, vid: int, node: int, per_var: List[Optional[int]]) -> int:
        raise NotImplementedError

    def forget(self, vid: int) -> None:
        """Drop the lazy cache of a variable (used when variables die)."""
        self._cache.pop(vid, None)
        self._pinned.discard(vid)


class RandomEmbedding(Embedding):
    """Theoretical embedding: independent uniform host per tree node."""

    name = "random"

    def _compute(self, vid: int, node: int, per_var: List[Optional[int]]) -> int:
        n = self.tree.nodes[node]
        if n.size == 1:
            return self.tree.mesh.node(n.row0, n.col0)
        rng = random.Random(_key(self.seed, vid, node))
        r = n.row0 + rng.randrange(n.rows)
        c = n.col0 + rng.randrange(n.cols)
        return self.tree.mesh.node(r, c)


class ModifiedEmbedding(Embedding):
    """The paper's regular embedding: child inherits parent's submesh-local
    coordinates modulo its own submesh size; only the root is random."""

    name = "modified"

    _row_table: Optional[np.ndarray] = None

    def host_row(self, vid: int) -> np.ndarray:
        """A child's host depends only on its parent's, so the row is the
        root host's row of one table (not for a pinned variable)."""
        if vid in self._pinned or self.tree.mesh.n_nodes * self._n_tree_nodes > _ROW_TABLE_LIMIT:
            return super().host_row(vid)
        if self._row_table is None:
            self._row_table = self._build_row_table()
        root = self.tree.root
        return self._row_table[self._compute(vid, root, None)]

    def _build_row_table(self) -> np.ndarray:
        """``table[r, node]``: the host of ``node`` when the root sits on
        processor ``r`` -- :meth:`_compute`'s rule, level by level over
        every root at once (a leaf's one-processor region gives it its
        own processor)."""
        tree = self.tree
        topo = tree.mesh
        coord = np.array([topo.coord(x) for x in range(topo.n_nodes)])
        node_at = np.array(
            [[topo.node(r, c) for c in range(topo.cols)] for r in range(topo.rows)],
            dtype=np.int32,
        )
        row0, col0, rows, cols = (
            np.array([getattr(n, f) for n in tree.nodes]) for f in ("row0", "col0", "rows", "cols")
        )
        depth, parent = np.array(tree.depth), np.array(tree.parent)
        table = np.empty((topo.n_nodes, len(tree.nodes)), dtype=np.int32)
        table[:, tree.root] = np.arange(topo.n_nodes)
        for d in range(1, tree.height + 1):
            idx = np.flatnonzero(depth == d)
            par = parent[idx]
            hosts = table[:, par]
            r = row0[idx] + (coord[hosts, 0] - row0[par]) % rows[idx]
            c = col0[idx] + (coord[hosts, 1] - col0[par]) % cols[idx]
            table[:, idx] = node_at[r, c]
        return table

    def _compute(self, vid: int, node: int, per_var: List[Optional[int]]) -> int:
        tree = self.tree
        n = tree.nodes[node]
        if n.size == 1:
            return tree.mesh.node(n.row0, n.col0)
        if n.parent is None:  # root: random in the whole mesh
            rng = random.Random(_key(self.seed, vid, node))
            r = n.row0 + rng.randrange(n.rows)
            c = n.col0 + rng.randrange(n.cols)
            return tree.mesh.node(r, c)
        parent_host = self.host(vid, n.parent)  # memoized recursion
        p = tree.nodes[n.parent]
        pr, pc = tree.mesh.coord(parent_host)
        li, lj = pr - p.row0, pc - p.col0  # parent's submesh-local coords
        r = n.row0 + (li % n.rows)
        c = n.col0 + (lj % n.cols)
        return tree.mesh.node(r, c)


def _nearest_in_ring(p: int, lo: int, size: int, ring: int) -> int:
    """The coordinate of ``[lo, lo + size)`` nearest to ``p`` around a ring
    of circumference ``ring`` (``p`` itself when it lies inside; ties go to
    the low edge)."""
    off = (p - lo) % ring
    if off < size:
        return lo + off
    # Outside the box: the low edge is (ring - off) away going one way
    # around, the high edge (off - size + 1) the other way.
    return lo if (ring - off) <= (off - size + 1) else lo + size - 1


class TorusModifiedEmbedding(ModifiedEmbedding):
    """The modified embedding with wrap-aware subtree placement.

    The mesh's modified embedding inherits the parent's *submesh-local
    coordinates* modulo the child's box size.  On a torus that formula
    ignores the wraparound: a parent hosted in the far half of its box is
    reflected a half-box away from the child's boundary even when the
    child's box is one wrap hop from the parent.  Here the child is
    instead hosted at the position of its box **nearest to the parent's
    host around each ring** -- a parent inside the child's box keeps its
    exact position, a parent outside maps to the nearer box edge, wrap
    included.  Parent-child tree edges are therefore as short as the torus
    allows given the decomposition, at the price of edge positions being
    favoured for faraway parents (the same correlated-placement trade the
    paper accepts for the mesh embedding).
    """

    name = "modified"

    # the row table encodes the mesh rule, not this one
    host_row = Embedding.host_row

    def _compute(self, vid: int, node: int, per_var: List[Optional[int]]) -> int:
        tree = self.tree
        n = tree.nodes[node]
        if n.size == 1:
            return tree.mesh.node(n.row0, n.col0)
        if n.parent is None:  # root: random in the whole torus
            rng = random.Random(_key(self.seed, vid, node))
            r = n.row0 + rng.randrange(n.rows)
            c = n.col0 + rng.randrange(n.cols)
            return tree.mesh.node(r, c)
        parent_host = self.host(vid, n.parent)  # memoized recursion
        topo = tree.mesh
        pr, pc = topo.coord(parent_host)
        r = _nearest_in_ring(pr, n.row0, n.rows, topo.rows)
        c = _nearest_in_ring(pc, n.col0, n.cols, topo.cols)
        return topo.node(r, c)


class SubcubeEmbedding(Embedding):
    """Subcube-recursive embedding for hypercubes.

    Decomposition-tree nodes are aligned subcubes ``[base, base + size)``
    (see :mod:`repro.core.decomposition`); the child's host keeps the
    parent host's low ``log2(size)`` address bits and adopts the child's
    fixed high bits: ``host = base | (parent_host & (size - 1))``.  The
    parent-child distance is therefore the Hamming weight of the newly
    fixed bits alone -- the hypercube analogue of the paper's "child
    inherits the parent's submesh-local coordinates".  Only the root is
    random.
    """

    name = "subcube"

    def _compute(self, vid: int, node: int, per_var: List[Optional[int]]) -> int:
        tree = self.tree
        n = tree.nodes[node]
        if n.size == 1:
            return tree.mesh.node(n.row0, n.col0)
        if n.parent is None:  # root: random in the whole cube
            rng = random.Random(_key(self.seed, vid, node))
            return tree.mesh.node(n.row0 + rng.randrange(n.rows), 0)
        parent_host = self.host(vid, n.parent)  # memoized recursion
        # Grid view: the subcube is the id range [row0, row0 + rows).
        return n.row0 + ((parent_host - n.row0) % n.rows)


def make_embedding(
    kind: str, tree: DecompositionTree, seed: int = 0, shared: bool = False
) -> Embedding:
    """Factory: ``"modified"`` (paper default) or ``"random"`` (theoretical).

    ``"modified"`` resolves to the topology-appropriate variant -- the
    paper's mesh embedding (unchanged), the wrap-aware torus embedding, or
    the hypercube's subcube-recursive embedding.  ``"random"`` is
    topology-agnostic (uniform over the region's grid view).

    ``shared=True`` returns one instance per ``(kind, seed)`` memoized on
    the (itself memoized) tree, so repeated runs and sweep cells reuse the
    warmed host memo.  Hosts are pure functions of ``(seed, vid, node)``,
    so sharing is invisible -- callers that *mutate* placements
    (:meth:`Embedding.override`, the remapping feature) must request a
    private instance.
    """
    if kind not in ("random", "modified"):
        raise ValueError(f"unknown embedding {kind!r}; expected 'modified' or 'random'")
    if shared:
        memo = tree._embedding_memo
        hit = memo.get((kind, seed))
        if hit is None:
            hit = memo[(kind, seed)] = make_embedding(kind, tree, seed, shared=False)
        return hit
    if kind == "random":
        return RandomEmbedding(tree, seed)
    topo_kind = getattr(tree.mesh, "kind", "mesh")
    if topo_kind == "torus":
        return TorusModifiedEmbedding(tree, seed)
    if topo_kind == "hypercube":
        return SubcubeEmbedding(tree, seed)
    return ModifiedEmbedding(tree, seed)
