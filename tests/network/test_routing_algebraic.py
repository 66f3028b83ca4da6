"""Algebraic (closed-form) routing vs the cached route table.

Above ``DENSE_NODE_LIMIT`` the package routes with an
:class:`AlgebraicRouter` that recomputes every path on demand; below it
the dense :class:`RouteTable` memoizes.  These tests pin the two
representations bit-identical -- same directed link ids, same lengths --
across all three topology families, for random pairs, and across the
threshold crossover, so the representation switch can never change a
simulated result.
"""

import random

import pytest

from repro.network.mesh import Mesh2D
from repro.network.routing import (
    DENSE_NODE_LIMIT,
    AlgebraicRouter,
    RouteTable,
    get_route_table,
)
from repro.network.topology import Hypercube
from repro.network.torus import Torus2D


def sample_pairs(topo, k=200, seed=7):
    """Random node pairs plus the corners and the self-pair."""
    rng = random.Random(seed)
    n = topo.n_nodes
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(k)]
    pairs += [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]
    return pairs


# Sizes straddle DENSE_NODE_LIMIT=4096; rectangles and degenerate shapes
# exercise the coordinate arithmetic, not just the square cases.
SMALL = [Mesh2D(4, 5), Mesh2D(1, 9), Mesh2D(7, 3), Torus2D(4, 4), Torus2D(3, 7),
         Hypercube(1), Hypercube(4)]
LARGE = [Mesh2D(128, 64), Torus2D(64, 128), Hypercube(13)]  # 8192 nodes each


class TestAlgebraicEqualsTable:
    @pytest.mark.parametrize("topo", SMALL + LARGE, ids=lambda t: t.label)
    def test_routes_identical_to_table_and_compute(self, topo):
        alg = AlgebraicRouter(topo)
        table = RouteTable(topo)
        for src, dst in sample_pairs(topo):
            route = alg.lookup(src, dst)
            assert route == table.lookup(src, dst) == topo.compute_route(src, dst)
            assert len(route) == topo.distance(src, dst)
            for link in route:
                assert 0 <= link < topo.n_links

    @pytest.mark.parametrize("topo", SMALL, ids=lambda t: t.label)
    def test_paths_connect_src_to_dst(self, topo):
        """Walking the algebraic route's link endpoints reaches dst."""
        alg = AlgebraicRouter(topo)
        for src, dst in sample_pairs(topo, k=50):
            cur = src
            for link in alg.lookup(src, dst):
                a, b = topo.link_endpoints(link)
                assert a == cur
                cur = b
            assert cur == dst

    def test_repeated_lookups_are_stable_and_store_nothing(self):
        topo = Torus2D(64, 128)
        alg = AlgebraicRouter(topo)
        first = alg.lookup(3, 7777)
        assert alg.lookup(3, 7777) == first
        assert alg.routes == {} and len(alg) == 0

    def test_key_parity_with_route_table(self):
        topo = Mesh2D(4, 4)
        assert AlgebraicRouter(topo).key(3, 9) == RouteTable(topo).key(3, 9)


class TestThresholdCrossover:
    """The representation switch at DENSE_NODE_LIMIT must be invisible:
    the sizes just below and just above the limit route the same way."""

    def test_selection_by_node_count(self):
        assert isinstance(get_route_table(Mesh2D(64, 64)), RouteTable)  # == limit
        assert isinstance(get_route_table(Mesh2D(128, 64)), AlgebraicRouter)
        assert isinstance(get_route_table(Hypercube(12)), RouteTable)
        assert isinstance(get_route_table(Hypercube(13)), AlgebraicRouter)

    def test_limit_is_the_shared_constant(self):
        assert Mesh2D(64, 64).n_nodes == DENSE_NODE_LIMIT

    @pytest.mark.parametrize("make", [
        pytest.param(lambda d: Hypercube(d), id="hypercube"),
    ])
    def test_same_pairs_route_consistently_across_the_crossover(self, make):
        """At 2^12 (cached) and 2^13 (algebraic) nodes, pairs that exist
        in both machines get routes that agree on the shared prefix of
        dimensions -- and within each machine cached == computed ==
        algebraic."""
        below, above = make(12), make(13)
        assert below.n_nodes <= DENSE_NODE_LIMIT < above.n_nodes
        for topo in (below, above):
            router = get_route_table(topo)
            alg = AlgebraicRouter(topo)
            for src, dst in sample_pairs(topo, k=100, seed=13):
                expect = topo.compute_route(src, dst)
                assert router.lookup(src, dst) == expect
                assert alg.lookup(src, dst) == expect
        # Pairs within the smaller machine's id range use identical
        # e-cube link *structure* in both (lowest differing dim first).
        for src, dst in sample_pairs(below, k=50, seed=17):
            assert len(below.compute_route(src, dst)) == len(
                above.compute_route(src, dst)
            )

