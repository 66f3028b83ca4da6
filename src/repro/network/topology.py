"""Topology abstraction: the combinatorial network interface.

The paper evaluates the access tree strategy on the Parsytec GCel's 2-D
mesh, but the strategy itself -- and everything this package builds on top
of it (routing-timed simulation, per-link traffic statistics, decomposition
trees, access-tree embeddings) -- only needs a small combinatorial
interface.  :class:`Topology` names that interface so new interconnects can
be studied without touching the simulator or the strategies:

* **nodes** -- processors numbered ``0 .. P-1``;
* **dense directed-link ids** -- every directed link has an integer id in
  ``0 .. n_links-1`` so traffic counters and link-availability times live
  in flat arrays;
* **deterministic routing** -- :meth:`compute_route` returns the unique
  link path the machine's router would use (dimension-order on meshes and
  tori, e-cube on hypercubes); the whole package obtains routes through the
  cached :func:`repro.network.routing.route_links`;
* **metadata** -- :attr:`diameter` and :attr:`bisection_links` summarize
  the network for result tables and sanity checks.

Grid view
---------
The mesh decomposition of Section 2 (recursively halving the longer side)
is reused verbatim for every topology through a *grid view*: each topology
exposes ``rows x cols`` coordinates with ``node(r, c)`` / ``coord(n)`` /
``submesh_nodes(...)``.  For :class:`repro.network.mesh.Mesh2D` and
:class:`repro.network.torus.Torus2D` the view is the physical grid.  For
:class:`Hypercube` the view is the degenerate ``P x 1`` column of node ids:
halving a power-of-two id range ``[base, base + size)`` is exactly fixing
the next-highest address bit, so the paper's binary decomposition
specializes to the classic subcube recursion -- every decomposition-tree
node is an aligned subcube.

Concrete topologies: :class:`repro.network.mesh.Mesh2D`,
:class:`repro.network.torus.Torus2D`, :class:`Hypercube` (here).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Tuple

__all__ = [
    "Topology",
    "Hypercube",
    "make_topology",
    "make_topology_nodes",
    "TOPOLOGY_KINDS",
]


class Topology:
    """Abstract network: nodes, dense directed links, deterministic routes.

    Subclasses must provide ``n_nodes``, ``n_links``, ``kind``, ``label``,
    ``distance``, ``compute_route``, ``link_endpoints``, ``neighbors`` and
    the grid view (``rows``, ``cols``, ``node``, ``coord``,
    ``submesh_nodes``); everything else has generic defaults.
    """

    #: Topology family name (``"mesh"``, ``"torus"``, ``"hypercube"``).
    kind: str = "abstract"

    # ------------------------------------------------------------------ nodes
    @property
    def n_nodes(self) -> int:
        """Number of processors ``P``."""
        raise NotImplementedError

    def nodes(self) -> range:
        """All node ids."""
        return range(self.n_nodes)

    def distance(self, a: int, b: int) -> int:
        """Hop distance between two nodes under the topology's routing."""
        raise NotImplementedError

    def neighbors(self, node: int) -> List[int]:
        """Nodes one link away from ``node`` (deterministic order)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ links
    @property
    def n_links(self) -> int:
        """Total number of *directed* links."""
        raise NotImplementedError

    def link_endpoints(self, link: int) -> Tuple[int, int]:
        """``(src_node, dst_node)`` of a directed link id."""
        raise NotImplementedError

    def iter_links(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(link_id, src, dst)`` for every directed link."""
        for link in range(self.n_links):
            src, dst = self.link_endpoints(link)
            yield link, src, dst

    def compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        """Directed link ids of the deterministic route ``src -> dst``.

        Uncached; production code goes through the memoizing
        :func:`repro.network.routing.route_links`.
        """
        raise NotImplementedError

    # --------------------------------------------------------------- metadata
    @property
    def label(self) -> str:
        """Short human-readable identity used in result tables/JSON."""
        raise NotImplementedError

    @property
    def diameter(self) -> int:
        """Maximum hop distance between any two nodes."""
        raise NotImplementedError

    @property
    def bisection_links(self) -> int:
        """Directed links crossing the canonical halving cut."""
        raise NotImplementedError


@dataclass(frozen=True)
class Hypercube(Topology):
    """A ``dim``-dimensional binary hypercube of ``2^dim`` processors.

    Node ids are the natural binary addresses: nodes ``a`` and ``b`` are
    neighbours iff ``a ^ b`` has exactly one bit set.  Every node has
    ``dim`` outgoing directed links, one per dimension, with the dense id
    layout ``link(node, d) = node * dim + d``.

    Routing is **e-cube** (dimension-order): address bits are corrected
    from dimension 0 upwards, the deterministic oblivious routing of real
    hypercube machines and the analogue of the mesh's x-first paths.

    Grid view: the ``P x 1`` column of node ids (see the module docstring);
    ``submesh_nodes`` therefore only ever describes aligned subcubes when
    called by the decomposition builder.

    >>> h = Hypercube(3)
    >>> h.n_nodes, h.n_links, h.diameter
    (8, 24, 3)
    >>> h.compute_route(0b000, 0b101)  # dim 0 from node 0, dim 2 from node 1
    (0, 5)
    """

    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"hypercube dimension must be >= 1, got {self.dim}")

    kind = "hypercube"

    # ------------------------------------------------------------------ nodes
    @property
    def n_nodes(self) -> int:
        return 1 << self.dim

    def distance(self, a: int, b: int) -> int:
        """Hamming distance of the two addresses."""
        self._check_node(a)
        self._check_node(b)
        return bin(a ^ b).count("1")

    def neighbors(self, node: int) -> List[int]:
        self._check_node(node)
        return [node ^ (1 << d) for d in range(self.dim)]

    def _check_node(self, node: int) -> None:
        if not (0 <= node < self.n_nodes):
            raise ValueError(f"node {node} outside hypercube of {self.n_nodes} nodes")

    # ---------------------------------------------------------------- grid view
    @property
    def rows(self) -> int:
        return self.n_nodes

    @property
    def cols(self) -> int:
        return 1

    def node(self, row: int, col: int) -> int:
        if col != 0 or not (0 <= row < self.n_nodes):
            raise ValueError(
                f"coordinate ({row},{col}) outside the {self.n_nodes}x1 "
                "grid view of the hypercube"
            )
        return row

    def coord(self, node: int) -> Tuple[int, int]:
        self._check_node(node)
        return node, 0

    def submesh_nodes(self, row0: int, col0: int, rows: int, cols: int) -> List[int]:
        if rows < 1 or cols != 1 or col0 != 0:
            raise ValueError("hypercube regions are id ranges: need cols == 1")
        if row0 < 0 or row0 + rows > self.n_nodes:
            raise ValueError("region exceeds hypercube bounds")
        return list(range(row0, row0 + rows))

    # ------------------------------------------------------------------ links
    @property
    def n_links(self) -> int:
        return self.dim * self.n_nodes

    def link_endpoints(self, link: int) -> Tuple[int, int]:
        if not (0 <= link < self.n_links):
            raise ValueError(f"link {link} outside 0..{self.n_links - 1}")
        node, d = divmod(link, self.dim)
        return node, node ^ (1 << d)

    def compute_route(self, src: int, dst: int) -> Tuple[int, ...]:
        """E-cube route: correct differing address bits lowest dimension
        first; exactly ``distance(src, dst)`` links."""
        self._check_node(src)
        self._check_node(dst)
        links: List[int] = []
        cur = src
        diff = src ^ dst
        for d in range(self.dim):
            if diff & (1 << d):
                links.append(cur * self.dim + d)
                cur ^= 1 << d
        return tuple(links)

    # --------------------------------------------------------------- metadata
    @property
    def label(self) -> str:
        return f"hypercube-{self.dim}"

    @property
    def diameter(self) -> int:
        return self.dim

    @property
    def bisection_links(self) -> int:
        # Cutting the highest dimension: every node crosses via exactly one
        # directed link per direction.
        return self.n_nodes

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Hypercube(dim={self.dim}, P={self.n_nodes})"


#: Topology families accepted by :func:`make_topology` (and the CLI axis).
TOPOLOGY_KINDS = ("mesh", "torus", "hypercube")


def make_topology(kind: str, side: int) -> Topology:
    """Build a topology of ``side * side`` processors by family name.

    ``side`` is the mesh/torus side length; the matched-node-count
    hypercube has dimension ``2 * log2(side)`` (``side`` must be a power
    of two for ``"hypercube"``).  This is the resolution step behind the
    CLI's ``--topology`` axis and the cross-topology experiments, which
    compare strategies at equal ``P``.
    """
    if kind == "mesh":
        from .mesh import Mesh2D

        return Mesh2D(side, side)
    if kind == "torus":
        from .torus import Torus2D

        return Torus2D(side, side)
    if kind == "hypercube":
        n = side * side
        dim = n.bit_length() - 1
        if n < 2 or (1 << dim) != n:
            raise ValueError(
                f"hypercube needs a power-of-two node count, got side={side} (P={n})"
            )
        return Hypercube(dim)
    raise ValueError(
        f"unknown topology {kind!r}; expected one of {', '.join(TOPOLOGY_KINDS)}"
    )


def make_topology_nodes(kind: str, nodes: int) -> Topology:
    """Build a topology with exactly ``nodes`` processors (power of two).

    This is the resolution step behind the ``xscale`` experiment, which
    sweeps node counts (1024/2048/4096) rather than grid sides.  Odd
    powers of two become the paper's 2:1 rectangles (``32x64``); even
    powers become squares; the hypercube takes ``log2(nodes)`` dimensions.
    """
    if nodes < 2 or nodes & (nodes - 1):
        raise ValueError(f"node count must be a power of two >= 2, got {nodes}")
    dim = nodes.bit_length() - 1
    if kind == "hypercube":
        return Hypercube(dim)
    rows = 1 << (dim // 2)
    cols = nodes // rows
    if kind == "mesh":
        from .mesh import Mesh2D

        return Mesh2D(rows, cols)
    if kind == "torus":
        from .torus import Torus2D

        return Torus2D(rows, cols)
    raise ValueError(
        f"unknown topology {kind!r}; expected one of {', '.join(TOPOLOGY_KINDS)}"
    )
