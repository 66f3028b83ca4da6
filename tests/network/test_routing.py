"""Dimension-order routing and route-table tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.mesh import Mesh2D
from repro.network.routing import (
    RouteTable,
    get_route_table,
    path_length,
    route_links,
    route_nodes,
)
from repro.network.topology import Hypercube
from repro.network.torus import Torus2D

small_mesh = st.builds(
    Mesh2D, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)


@st.composite
def mesh_and_pair(draw):
    m = draw(small_mesh)
    src = draw(st.integers(min_value=0, max_value=m.n_nodes - 1))
    dst = draw(st.integers(min_value=0, max_value=m.n_nodes - 1))
    return m, src, dst


class TestRoutes:
    def test_self_route_empty(self):
        m = Mesh2D(3, 3)
        assert route_links(m, 4, 4) == ()
        assert route_nodes(m, 4, 4) == [4]

    @given(mesh_and_pair())
    def test_path_is_connected_and_shortest(self, mp):
        m, src, dst = mp
        nodes = route_nodes(m, src, dst)
        assert nodes[0] == src and nodes[-1] == dst
        for a, b in zip(nodes, nodes[1:]):
            assert m.manhattan(a, b) == 1
        assert len(nodes) - 1 == m.manhattan(src, dst) == path_length(m, src, dst)

    @given(mesh_and_pair())
    def test_x_first_order(self, mp):
        """The path exhausts column movement before any row movement."""
        m, src, dst = mp
        nodes = route_nodes(m, src, dst)
        switched = False
        for a, b in zip(nodes, nodes[1:]):
            ra, ca = m.coord(a)
            rb, cb = m.coord(b)
            if ra != rb:  # vertical move
                switched = True
            else:  # horizontal move
                assert not switched, "horizontal move after vertical move"

    @given(mesh_and_pair())
    def test_links_valid(self, mp):
        m, src, dst = mp
        for link in route_links(m, src, dst):
            assert 0 <= link < m.n_links

    def test_known_route(self):
        m = Mesh2D(3, 3)
        # (0,0) -> (2,2): east, east, south, south
        nodes = route_nodes(m, m.node(0, 0), m.node(2, 2))
        assert nodes == [0, 1, 2, 5, 8]

    def test_route_west_then_north(self):
        m = Mesh2D(3, 3)
        nodes = route_nodes(m, m.node(2, 2), m.node(0, 0))
        assert nodes == [8, 7, 6, 3, 0]

    def test_caching_returns_same_tuple(self):
        m = Mesh2D(4, 4)
        a = route_links(m, 0, 15)
        b = route_links(m, 0, 15)
        assert a is b  # route-table identity

    @given(mesh_and_pair())
    def test_opposite_routes_use_disjoint_links(self, mp):
        """x-first routing in opposite directions uses opposite link
        directions, never the same directed link."""
        m, src, dst = mp
        fwd = set(route_links(m, src, dst))
        rev = set(route_links(m, dst, src))
        assert not (fwd & rev)


TOPOLOGIES = [Mesh2D(4, 5), Torus2D(4, 4), Hypercube(4)]


class TestRouteTable:
    """The per-topology route cache must be a transparent memo of
    ``compute_route`` -- for every topology family and without
    cross-topology leakage."""

    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.label)
    def test_cached_matches_uncached_for_all_pairs(self, topo):
        table = RouteTable(topo)
        for src in topo.nodes():
            for dst in topo.nodes():
                assert table.lookup(src, dst) == topo.compute_route(src, dst)
        # Second pass: every answer now comes from the cache.
        assert len(table) == topo.n_nodes**2
        for src in topo.nodes():
            for dst in topo.nodes():
                assert table.lookup(src, dst) == topo.compute_route(src, dst)

    def test_cross_topology_isolation(self):
        """A torus and the equal-sided mesh must not share a table: their
        routes differ (wrap links) even though their grids look alike."""
        mesh = Mesh2D(4, 4)
        torus = Torus2D(4, 4)
        tm = get_route_table(mesh)
        tt = get_route_table(torus)
        assert tm is not tt
        # (0,0) -> (0,3): three mesh hops, one torus wrap hop.
        assert len(route_links(mesh, 0, 3)) == 3
        assert len(route_links(torus, 0, 3)) == 1
        # The lookups above must not have polluted each other.
        assert tm.lookup(0, 3) == mesh.compute_route(0, 3)
        assert tt.lookup(0, 3) == torus.compute_route(0, 3)

    def test_equal_topologies_share_one_table(self):
        assert get_route_table(Mesh2D(4, 4)) is get_route_table(Mesh2D(4, 4))

    def test_simulator_uses_the_shared_table(self):
        from repro.network.machine import GCEL
        from repro.sim.engine import Simulator

        m = Mesh2D(3, 3)
        s = Simulator(m, GCEL)
        s.send_leg(0, 8, 100, ready=0.0, is_data=True)
        assert get_route_table(m).key(0, 8) in get_route_table(m).routes
