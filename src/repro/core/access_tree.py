"""The access tree strategy (the paper's Section 2).

For every global variable ``x`` an *access tree* -- a copy of the mesh
decomposition tree -- is embedded into the mesh.  A simple caching protocol
runs on the tree:

* the tree nodes holding a copy of ``x`` always form a **connected
  component** of the tree;
* **read** from node ``v``: a request hops along tree edges from ``v``'s
  leaf to the nearest tree node ``u`` holding a copy; the value hops back,
  and a copy is created on every tree node of the path;
* **write** from node ``v``: the new value hops to the nearest copy holder
  ``u``; ``u`` multicasts invalidations over the copy component (which
  acknowledges back along tree edges), modifies its copy, and sends it back
  to ``v``, leaving copies exactly on the tree path ``u .. v``.

All messages between neighbouring tree nodes travel along the
dimension-order mesh path between their host processors; every intermediate
tree node pays startup cost (the motivation for flatter, higher-arity
trees).

The connected copy component is tracked with its node set plus the
*topmost* node (the unique member of minimum depth).  The request path from
a leaf ``l`` is the prefix of the tree path ``l -> top`` up to its first
member of the component; connectivity makes that member the closest one:
walking up from ``l``, the first node whose subtree intersects the
component must itself hold a copy, because the component hangs together
under ``top``.

LRU replacement under bounded memory may silently drop copies whose tree
node is a *leaf of the component* (degree <= 1 inside it) -- dropping any
other node would disconnect the component; the last copy is never dropped
(it is the authoritative value).  A control message notifies the tree
neighbour so its direction information stays sound.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Set, Tuple

from ..network.topology import Topology
from ..runtime.locks import RaymondTreeLock
from ..runtime.variables import GlobalVariable
from .decomposition import DecompositionTree, build_tree, parse_arity
from .embedding import make_embedding
from .strategy import DataManagementStrategy, ResidencyMirror

__all__ = ["AccessTreeStrategy"]


class _CopySet:
    """Connected copy component of one variable: node set + topmost node."""

    __slots__ = ("nodes", "top")

    def __init__(self, leaf: int):
        self.nodes: Set[int] = {leaf}
        self.top = leaf


class AccessTreeStrategy(DataManagementStrategy):
    """The access tree strategy in any of its arity variants.

    Parameters
    ----------
    topology:
        Any :class:`~repro.network.topology.Topology` (fixes the
        decomposition tree: submeshes on mesh/torus, subcubes on the
        hypercube).
    arity:
        ``"2-ary"``, ``"4-ary"``, ``"16-ary"`` or the terminated
        ``"<l>-<k>-ary"`` variants (see
        :func:`repro.core.decomposition.parse_arity`).
    embedding:
        ``"modified"`` (the paper's practical embedding, default;
        per-topology variant selected automatically) or ``"random"``
        (the theoretical analysis).
    """

    def __init__(
        self,
        topology: Topology,
        arity: str = "4-ary",
        seed: int = 0,
        embedding: str = "modified",
        remap_threshold: Optional[int] = None,
    ):
        stride, terminal = parse_arity(arity)
        self.topology = topology
        self.mesh = topology  # historic alias
        self.tree: DecompositionTree = build_tree(topology, stride=stride, terminal=terminal)
        # The embedding memo is shared across runs (hosts are pure in
        # (seed, vid, node)) unless remapping may mutate placements.
        self.embedding = make_embedding(
            embedding, self.tree, seed=seed, shared=remap_threshold is None
        )
        self._embed_kind = embedding
        self.name = arity
        self.arity = arity
        self.seed = seed
        self._copies: Dict[int, _CopySet] = {}
        # Optional remapping (the theoretical strategy's feature the paper
        # omits): after `remap_threshold` protocol messages have stopped at
        # the same tree node, its host is re-randomized within its submesh.
        self.remap_threshold = remap_threshold
        self._access_counts: Dict[Tuple[int, int], int] = {}
        self._remap_serial: Dict[Tuple[int, int], int] = {}
        self.remaps = 0

    def attach(self, runtime) -> None:
        super().attach(runtime)
        # Under a failure schedule repair overrides tree-node hosts; the
        # process-wide shared embedding memo must never see those, so
        # failure runs get a private instance (same hosts pre-override).
        if (
            getattr(runtime, "_failview", None) is not None
            and self.remap_threshold is None
        ):
            self.embedding = make_embedding(
                self._embed_kind, self.tree, seed=self.seed, shared=False
            )
        self._locks = RaymondTreeLock(self.sim, self.tree, self.embedding)
        # LRU bookkeeping is only needed under bounded memory; the common
        # unbounded case (the paper's default) skips it on the hot paths.
        self._track_mem = self.memory.capacity is not None
        self._leaf_of_proc = self.tree.leaf_of_proc

    # ----------------------------------------------------------- inspection
    def copy_nodes(self, var: GlobalVariable) -> Set[int]:
        """Tree node ids currently holding a copy (for tests/analysis)."""
        return set(self._copies[var.vid].nodes)

    def copy_procs(self, var: GlobalVariable) -> Set[int]:
        """Processors hosting at least one copy."""
        emb = self.embedding
        return {emb.host(var.vid, n) for n in self._copies[var.vid].nodes}

    # ------------------------------------------------------------- plumbing
    def _host(self, vid: int, node: int) -> int:
        return self.embedding.host(vid, node)

    def _note_accesses(self, vid: int, path: List[int], t: float) -> None:
        """Remapping bookkeeping ("the embedding of an access tree node is
        changed when too many accesses are directed to the same node"):
        every internal node of the path served one stop; over-threshold
        nodes are re-randomized within their submesh.  The copy (if any)
        migrates with the node: one data message to the new host."""
        threshold = self.remap_threshold
        counts = self._access_counts
        tree = self.tree
        for node in path:
            tn = tree.nodes[node]
            if tn.size == 1:
                continue  # leaves are pinned to their processor
            key = (vid, node)
            c = counts.get(key, 0) + 1
            if c >= threshold:
                counts[key] = 0
                self._remap_node(vid, node, t)
            else:
                counts[key] = c

    def _remap_node(self, vid: int, node: int, t: float) -> None:
        """Move the host of ``(vid, node)`` to a fresh random processor of
        its submesh (deterministic in the remap serial number)."""
        import random as _random

        serial = self._remap_serial.get((vid, node), 0) + 1
        self._remap_serial[(vid, node)] = serial
        tn = self.tree.nodes[node]
        old_host = self._host(vid, node)
        rng = _random.Random((self.seed * 1_000_003 + vid) * 131 + node * 31 + serial)
        r = tn.row0 + rng.randrange(tn.rows)
        c = tn.col0 + rng.randrange(tn.cols)
        new_host = self.tree.mesh.node(r, c)
        self.embedding.override(vid, node, new_host)
        self.remaps += 1
        if new_host != old_host:
            var = self.registry.by_id(vid)
            cs = self._copies[vid]
            payload = var.payload_bytes if node in cs.nodes else 0
            # Migrate the node's state (and its copy, if it holds one).
            self.sim.send_leg(old_host, new_host, payload, t, is_data=payload > 0)
            if self._track_mem and node in cs.nodes:
                key = (vid, node)
                old_mem = self.memory[old_host]
                if key in old_mem:
                    old_mem.remove(key)
                self._mem_insert(var, cs, node, t)

    # --------------------------------------------------------------- repair
    def on_node_down(self, proc, t, down=frozenset()):
        """Fail-stop repair: re-embed every internal tree node hosted at
        the dead processor.

        For each registered variable, every internal node whose host
        resolves to ``proc`` moves to the first live processor of its own
        submesh region (deterministic row-major scan; if the whole region
        is dead, the next live processor globally).  A copy held at a
        moving node migrates with it -- copies are never dropped, so the
        tree component stays connected and the last-copy invariant holds
        structurally.  Leaves are pinned to their processor by definition
        and never move."""
        from .strategy import next_live_node

        tree = self.tree
        emb = self.embedding
        repaired = []
        for vid in sorted(self._copies):
            cs = self._copies[vid]
            moved = False
            for node, tn in enumerate(tree.nodes):
                if tn.size == 1:
                    continue  # leaves are pinned
                if emb.host(vid, node) != proc:
                    continue
                new_host = None
                for r in range(tn.rows):
                    for c in range(tn.cols):
                        cand = tree.mesh.node(tn.row0 + r, tn.col0 + c)
                        if cand not in down:
                            new_host = cand
                            break
                    if new_host is not None:
                        break
                if new_host is None:
                    new_host = next_live_node(proc, self.topology.n_nodes, down)
                emb.override(vid, node, new_host)
                payload = 0
                if node in cs.nodes:
                    var = self.registry.by_id(vid)
                    payload = var.payload_bytes
                    if self._track_mem:
                        key = (vid, node)
                        old_mem = self.memory[proc]
                        if key in old_mem:
                            old_mem.remove(key)
                        self._mem_insert(var, cs, node, t)
                self.sim.send_leg(proc, new_host, payload, t, is_data=payload > 0)
                moved = True
            if moved:
                repaired.append(vid)
        return repaired

    def _request_path(self, cs: _CopySet, leaf: int) -> List[int]:
        """Tree nodes from ``leaf`` to the nearest copy holder (inclusive)."""
        path = self.tree.path_between(leaf, cs.top)
        nodes = cs.nodes
        out: List[int] = []
        for n in path:
            out.append(n)
            if n in nodes:
                return out
        raise AssertionError("copy component unreachable from leaf (broken invariant)")

    def _add_copies(self, var: GlobalVariable, cs: _CopySet, path: List[int], t: float) -> None:
        """Insert copies for every node of ``path`` (memory + component).

        ``path`` runs from the requesting leaf to a node already in the
        component; nodes are added in *reverse* (component side outward) so
        the component stays connected after every single insertion -- the
        LRU eviction triggered by an insert inspects component degrees and
        relies on that invariant.
        """
        depth = self.tree.depth
        track = self._track_mem
        payload = var.payload_bytes
        for n in reversed(path):
            if n not in cs.nodes:
                cs.nodes.add(n)
                self._storage_delta(payload, t)
                if depth[n] < depth[cs.top]:
                    cs.top = n
                if track:
                    self._mem_insert(var, cs, n, t)
            elif track:
                mem = self.memory[self._host(var.vid, n)]
                key = (var.vid, n)
                if key in mem:
                    mem.touch(key)

    def _mem_insert(self, var: GlobalVariable, cs: _CopySet, node: int, t: float) -> None:
        host = self._host(var.vid, node)
        mem = self.memory[host]

        def evictable(key) -> bool:
            vid2, node2 = key
            cs2 = self._copies[vid2]
            if len(cs2.nodes) <= 1:
                return False  # never drop the last (authoritative) copy
            return self._component_degree(cs2, node2) <= 1

        def on_evict(key) -> None:
            vid2, node2 = key
            self._drop_copy(vid2, node2, host, t)

        mem.insert((var.vid, node), var.payload_bytes, evictable, on_evict)

    def _component_degree(self, cs: _CopySet, node: int) -> int:
        deg = 0
        tn = self.tree.nodes[node]
        if tn.parent is not None and tn.parent in cs.nodes:
            deg += 1
        for c in tn.children:
            if c in cs.nodes:
                deg += 1
        return deg

    def _drop_copy(self, vid: int, node: int, host: int, t: float) -> None:
        """Evict the copy at ``node``; notify its component neighbour so the
        tree's direction information stays consistent (one control leg)."""
        cs = self._copies[vid]
        cs.nodes.discard(node)
        self._storage_delta(-self.registry.by_id(vid).payload_bytes, t)
        tn = self.tree.nodes[node]
        neighbour: Optional[int] = None
        if tn.parent is not None and tn.parent in cs.nodes:
            neighbour = tn.parent
        else:
            for c in tn.children:
                if c in cs.nodes:
                    neighbour = c
                    break
        if neighbour is None:
            raise AssertionError(
                f"evicted copy of var {vid} at node {node} had no component "
                f"neighbour (component {sorted(cs.nodes)[:8]}...): the "
                "connectivity invariant is broken"
            )
        if node == cs.top:
            # The unique component neighbour of a dropped degree-1 top is the
            # new top (it is the shallowest remaining node of the component).
            cs.top = neighbour
        self.sim.send_leg(host, self._host(vid, neighbour), 0, t, is_data=False)

    # ------------------------------------------------------------------ API
    def register(self, var: GlobalVariable) -> None:
        leaf = self.tree.leaf_of_proc[var.creator]
        cs = _CopySet(leaf)
        self._copies[var.vid] = cs
        self._leg_costs[var.vid] = self.sim.leg_costs(var.payload_bytes)
        if self._track_mem:
            self._mem_insert(var, cs, leaf, 0.0)

    def read(self, proc: int, var: GlobalVariable, t: float) -> Optional[Tuple[float, Any]]:
        """Serve a read.  Returns ``(t, value)`` for a local hit; otherwise
        launches the request/reply flow and returns ``None`` (the runtime is
        resumed at completion time with the value)."""
        cs = self._copies[var.vid]
        leaf = self._leaf_of_proc[proc]
        if leaf in cs.nodes:
            self.hits += 1
            if self._track_mem:
                mem = self.memory[proc]
                key = (var.vid, leaf)
                if key in mem:
                    mem.touch(key)
            return t, self.registry.get(var)
        self.misses += 1
        vid = var.vid
        path = self._request_path(cs, leaf)
        if self.remap_threshold is not None:
            self._note_accesses(vid, path, t)
        emb = self.embedding
        per_var = emb.per_var_hosts(vid)
        hosts = []
        for n in path:
            h = per_var[n]
            hosts.append(h if h is not None else emb.host(vid, n))
        value = self.registry.get(var)  # the value the fetched copy carries
        self._add_copies(var, cs, path, t)
        # The request climbs as control messages, the value descends as
        # data -- the two cost shapes precomputed at registration.
        ctrl, data = self._leg_costs[vid]
        return self._launch(proc, t, hosts, ctrl, data, value)

    def write(self, proc: int, var: GlobalVariable, value: Any, t: float) -> Optional[float]:
        """Serve a write.  Returns ``t`` for a purely local write (sole copy
        at the writer); otherwise launches the invalidation flow and returns
        ``None``."""
        cs = self._copies[var.vid]
        leaf = self._leaf_of_proc[proc]
        if leaf in cs.nodes and len(cs.nodes) == 1:
            self.write_local += 1
            self.registry.set(var, value)
            if self._track_mem:
                mem = self.memory[proc]
                key = (var.vid, leaf)
                if key in mem:
                    mem.touch(key)
            return t
        self.write_remote += 1
        vid = var.vid

        if leaf in cs.nodes:
            u = leaf
            path = [leaf]
        else:
            path = self._request_path(cs, leaf)
            u = path[-1]
        if self.remap_threshold is not None:
            self._note_accesses(vid, path, t)
        emb = self.embedding
        per_var = emb.per_var_hosts(vid)
        hosts = []
        for n in path:
            h = per_var[n]
            hosts.append(h if h is not None else emb.host(vid, n))
        payload = var.payload_bytes

        # Snapshot the component (rooted at u, local id 0) as the fanout
        # of the invalidation multicast before the state collapses: each
        # node's kids are its member parent, then its member children.
        members = cs.nodes
        tree_nodes = self.tree.nodes
        reached = [(u, -1)]  # by local id: (node, the neighbour it came from)
        mc_hosts: List[int] = []
        kid_cnt: List[int] = []
        kid_off: List[int] = []
        kids: List[int] = []
        for n, frm in reached:  # grows as it runs: breadth-first
            h = per_var[n]
            mc_hosts.append(h if h is not None else emb.host(vid, n))
            tn = tree_nodes[n]
            kid_off.append(len(kids))
            for k in (tn.parent, *tn.children):
                if k in members and k != frm:
                    kids.append(len(reached))
                    reached.append((k, n))
            kid_cnt.append(len(kids) - kid_off[-1])

        # --- state update (atomic at initiation) ---
        if self._track_mem:
            for n in cs.nodes - set(path):
                mem = self.memory[self._host(vid, n)]
                key = (vid, n)
                if key in mem:
                    mem.remove(key)
        self._storage_delta((1 - len(cs.nodes)) * payload, t)
        cs.nodes = {u}
        cs.top = u
        self._add_copies(var, cs, path, t)
        self.registry.set(var, value)

        # --- timing flow ---
        # Both ways carry the value ("a message including the new value"
        # to u; the modified copy back, leaving copies on the path): the
        # data cost shape precomputed at registration.  A writer already
        # at u has a one-host path: only the multicast runs.
        data = self._leg_costs[vid][1]
        return self._launch(
            proc, t, hosts, data, data, fanout=(mc_hosts, kid_cnt, kid_off, kids)
        )

    # ----------------------------------------------------- residency mirror
    def _mirror(self) -> ResidencyMirror:
        """Sites are tree nodes; a read hits iff the reader's leaf holds a
        copy, a write is local iff that leaf holds the *sole* copy.  With
        remapping off, hosts and path geometry never change, so both flows
        (read miss; write with its invalidation multicast, which walks the
        child lists) are static."""
        tree = self.tree
        static = None
        if self.remap_threshold is None:
            static = (tree.parent, tree.depth, [tn.children for tn in tree.nodes])
        return ResidencyMirror(
            self._leaf_of_proc, len(tree.nodes), True, True, True, tree=static
        )

    def residency(self, vid: int):
        cs = self._copies[vid]
        return -1, cs.nodes, cs.top

    def flow_row(self, vid: int):
        return (
            self.embedding.host_row(vid),
            float(self.registry.by_id(vid).payload_bytes),
            self._leg_costs[vid][1][:3],
        )

    def adopt(self, vid: int, members, top: int) -> None:
        cs = self._copies[vid]
        cs.nodes = set(members)
        cs.top = top

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"AccessTreeStrategy({self.arity}, {self.embedding.name}, {self.topology!r})"
