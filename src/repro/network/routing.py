"""Deterministic routing: per-topology route tables, one entry point.

The GCel's wormhole router transmits messages along *dimension-order*
paths: the unique shortest path that first travels along dimension 1 and
then along dimension 2.  The theoretical analysis of the access tree
strategy assumes exactly these deterministic oblivious paths, and both the
DIVA protocols and the hand-optimized baselines route every message this
way.  The topology-generic analogues keep that discipline: shortest-wrap
dimension-order on the torus, e-cube on the hypercube.

Each :class:`~repro.network.topology.Topology` implements the raw path
computation (:meth:`~repro.network.topology.Topology.compute_route`); this
module adds the caching and is the single source of routes for the whole
package -- simulations route the same processor pairs over and over (tree
edges, home round-trips), and path computation dominated the profile
before caching.

Caching lives in per-topology :class:`RouteTable` objects rather than one
global ``lru_cache``: the simulator grabs its topology's table once and
then resolves every route with a single integer-keyed dict lookup, instead
of hashing the topology dataclass on every message leg (which was the
second-largest cost of ``send_leg`` before the overhaul).  Tables for
node counts up to :data:`DENSE_NODE_LIMIT` are unbounded (at most ``P**2``
routed pairs ever materialize, and only pairs actually routed are stored).

Above :data:`DENSE_NODE_LIMIT` a table stops being the right trade: route
tuples average ``diameter / 3`` links, so at ``2^17`` nodes a populated
cache measures in gigabytes, and any bound on it thrashes on revisited
routes.  All shipped topologies have *closed-form* dimension-order /
e-cube routing, so large machines use an :class:`AlgebraicRouter`
instead: the same ``lookup`` surface, but every route is recomputed on
demand from the coordinates -- O(1) memory, no eviction cliff.
:func:`get_route_table` picks the representation; the simulator's C
kernel keys its own route cache off the same threshold.
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Union

from .topology import Topology

__all__ = [
    "DENSE_NODE_LIMIT",
    "AlgebraicRouter",
    "RouteTable",
    "Router",
    "get_route_table",
    "path_length",
    "route_links",
    "route_nodes",
]

#: Up to this many nodes a topology's table is unbounded ("dense"): every
#: routed pair is kept for the life of the process.  Above it
#: :func:`get_route_table` switches to the :class:`AlgebraicRouter`, and
#: the C kernel stops caching the routes it computes.
DENSE_NODE_LIMIT = 4096


class RouteTable:
    """Route cache of one topology: ``(src, dst) -> directed link ids``.

    Keys are the dense scalars ``src * n_nodes + dst`` so lookups stay a
    single int-keyed dict access on the simulator's hot path (the
    :class:`~repro.sim.engine.Simulator` reads :attr:`routes` directly).
    Unbounded: every routed pair is kept, which is why
    :func:`get_route_table` hands one out only up to
    :data:`DENSE_NODE_LIMIT` nodes.
    """

    __slots__ = ("topology", "routes", "_n")

    def __init__(self, topology: Topology):
        self.topology = topology
        #: The raw cache; hot-path readers index it with ``src * n + dst``
        #: and fall back to :meth:`lookup` on a miss.
        self.routes: Dict[int, Tuple[int, ...]] = {}
        self._n = topology.n_nodes

    def __len__(self) -> int:
        return len(self.routes)

    def key(self, src: int, dst: int) -> int:
        """Dense scalar cache key of the pair ``(src, dst)``."""
        return src * self._n + dst

    def lookup(self, src: int, dst: int) -> Tuple[int, ...]:
        """Directed link ids of the path ``src -> dst`` (cached)."""
        routes = self.routes
        key = src * self._n + dst
        route = routes.get(key)
        if route is None:
            route = routes[key] = self.topology.compute_route(src, dst)
        return route


class AlgebraicRouter:
    """Route source that *computes* instead of storing: same ``lookup``
    surface as :class:`RouteTable`, O(1) memory at any machine size.

    All shipped topologies route in closed form (dimension-order on the
    mesh, shortest-wrap dimension-order on the torus, e-cube on the
    hypercube), so above :data:`DENSE_NODE_LIMIT` recomputing a route on
    demand beats caching it: route tuples average hundreds of links at
    ``2^17`` nodes, and any bounded cache either explodes or thrashes.

    ``routes`` is a permanently empty dict so the simulator's hot-path
    probe (``routes.get(key)`` then ``lookup`` on miss) works unchanged;
    when the C kernel is active it never consults this object at all --
    the same closed forms are mirrored natively (:mod:`repro.sim._ckern`).
    """

    __slots__ = ("topology", "routes", "_n", "_compute")

    def __init__(self, topology: Topology):
        self.topology = topology
        #: Always empty; present so hot-path readers can probe it exactly
        #: like a :class:`RouteTable`'s cache before calling :meth:`lookup`.
        self.routes: Dict[int, Tuple[int, ...]] = {}
        self._n = topology.n_nodes
        self._compute = topology.compute_route

    def __len__(self) -> int:
        return 0

    def key(self, src: int, dst: int) -> int:
        """Dense scalar key of the pair (kept for API parity)."""
        return src * self._n + dst

    def lookup(self, src: int, dst: int) -> Tuple[int, ...]:
        """Directed link ids of the path ``src -> dst`` (computed fresh)."""
        return self._compute(src, dst)


#: Either route source, by the shared ``lookup``/``routes`` surface.
Router = Union[RouteTable, AlgebraicRouter]

#: One router per topology value (equal topologies share; a torus never
#: shares with the equal-sided mesh -- dataclass equality is class-exact).
_TABLES: Dict[Topology, Router] = {}


def get_route_table(topology: Topology) -> Router:
    """The process-wide route source of ``topology``.

    Dense :class:`RouteTable` up to :data:`DENSE_NODE_LIMIT` nodes, the
    computing :class:`AlgebraicRouter` above it.  This is the one place
    that still hashes the topology; the simulator calls it once at
    construction and keeps the router.
    """
    table = _TABLES.get(topology)
    if table is None:
        if topology.n_nodes > DENSE_NODE_LIMIT:
            table = AlgebraicRouter(topology)
        else:
            table = RouteTable(topology)
        _TABLES[topology] = table
    return table


def path_length(topology: Topology, src: int, dst: int) -> int:
    """Number of links on the deterministic path (== routing distance)."""
    return topology.distance(src, dst)


def route_links(topology: Topology, src: int, dst: int) -> Tuple[int, ...]:
    """Directed link ids of the deterministic path ``src -> dst``.

    >>> from .mesh import Mesh2D
    >>> m = Mesh2D(2, 3)
    >>> len(route_links(m, m.node(0, 0), m.node(1, 2)))
    3
    >>> route_links(m, 4, 4)
    ()
    """
    return get_route_table(topology).lookup(src, dst)


def route_nodes(topology: Topology, src: int, dst: int) -> List[int]:
    """Node ids visited by the deterministic path, endpoints included."""
    nodes = [src]
    for link in route_links(topology, src, dst):
        nodes.append(topology.link_endpoints(link)[1])
    return nodes
