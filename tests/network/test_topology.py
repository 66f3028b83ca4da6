"""Topology abstraction tests: torus, hypercube, and the routing
invariants every topology shares."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.network.mesh import Mesh2D
from repro.network.routing import path_length, route_links, route_nodes
from repro.network.topology import Hypercube, make_topology
from repro.network.torus import Torus2D

# ---------------------------------------------------------------- strategies
meshes = st.builds(
    Mesh2D, st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)
tori = st.builds(
    Torus2D, st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8)
)
hypercubes = st.builds(Hypercube, st.integers(min_value=1, max_value=6))
topologies = st.one_of(meshes, tori, hypercubes)


@st.composite
def topology_and_pair(draw, topos=topologies):
    t = draw(topos)
    src = draw(st.integers(min_value=0, max_value=t.n_nodes - 1))
    dst = draw(st.integers(min_value=0, max_value=t.n_nodes - 1))
    return t, src, dst


# ------------------------------------------------------- structural: torus
class TestTorusStructure:
    def test_link_count(self):
        t = Torus2D(3, 4)
        assert t.n_links == Mesh2D(3, 4).n_links + 2 * 3 + 2 * 4

    def test_mesh_link_ids_are_preserved(self):
        """Interior links keep the mesh's ids, so mesh tooling transfers."""
        m, t = Mesh2D(4, 5), Torus2D(4, 5)
        for link in range(m.n_links):
            assert t.link_endpoints(link) == m.link_endpoints(link)

    def test_wrap_endpoints(self):
        t = Torus2D(3, 4)
        assert t.link_endpoints(t.h_wrap(1, True)) == (t.node(1, 3), t.node(1, 0))
        assert t.link_endpoints(t.h_wrap(1, False)) == (t.node(1, 0), t.node(1, 3))
        assert t.link_endpoints(t.v_wrap(2, True)) == (t.node(2, 2), t.node(0, 2))
        assert t.link_endpoints(t.v_wrap(2, False)) == (t.node(0, 2), t.node(2, 2))

    def test_every_link_id_roundtrips(self):
        t = Torus2D(3, 3)
        seen = set()
        for link, src, dst in t.iter_links():
            assert dst in t.neighbors(src)
            seen.add(link)
        assert seen == set(range(t.n_links))

    def test_degenerate_sides_rejected(self):
        with pytest.raises(ValueError):
            Torus2D(1, 4)

    def test_distance_wraps(self):
        t = Torus2D(4, 6)
        assert t.distance(t.node(0, 0), t.node(0, 5)) == 1
        assert t.distance(t.node(0, 0), t.node(3, 0)) == 1
        assert t.distance(t.node(0, 0), t.node(2, 3)) == 5
        assert t.diameter == 5

    def test_label_and_kind(self):
        t = Torus2D(4, 4)
        assert t.kind == "torus" and t.label == "torus-4x4"
        # The mesh keeps its historic label (byte-identical tables).
        assert Mesh2D(4, 4).label == "4x4" and Mesh2D(4, 4).kind == "mesh"


# --------------------------------------------------- structural: hypercube
class TestHypercubeStructure:
    def test_counts(self):
        h = Hypercube(3)
        assert h.n_nodes == 8
        assert h.n_links == 24
        assert h.diameter == 3
        assert h.bisection_links == 8

    def test_neighbors_differ_in_one_bit(self):
        h = Hypercube(4)
        for n in h.nodes():
            for nb in h.neighbors(n):
                assert bin(n ^ nb).count("1") == 1

    def test_ecube_route_fixes_low_dimensions_first(self):
        h = Hypercube(3)
        nodes = route_nodes(h, 0b000, 0b110)
        assert nodes == [0b000, 0b010, 0b110]

    def test_every_link_id_roundtrips(self):
        h = Hypercube(3)
        seen = set()
        for link, src, dst in h.iter_links():
            assert dst in h.neighbors(src)
            seen.add(link)
        assert seen == set(range(h.n_links))

    def test_grid_view_is_the_id_column(self):
        h = Hypercube(3)
        assert (h.rows, h.cols) == (8, 1)
        assert h.node(5, 0) == 5 and h.coord(5) == (5, 0)
        assert h.submesh_nodes(2, 0, 4, 1) == [2, 3, 4, 5]
        with pytest.raises(ValueError):
            h.node(0, 1)

    def test_make_topology_matched_node_counts(self):
        assert make_topology("mesh", 16) == Mesh2D(16, 16)
        assert make_topology("torus", 16) == Torus2D(16, 16)
        assert make_topology("hypercube", 16) == Hypercube(8)
        with pytest.raises(ValueError):
            make_topology("hypercube", 6)  # 36 nodes: not a power of two
        with pytest.raises(ValueError):
            make_topology("ring", 4)


# ----------------------------------------------- shared routing invariants
class TestRoutingInvariants:
    """The invariants every topology's deterministic routing must satisfy
    (the simulator and the congestion accounting rely on all three)."""

    @given(topology_and_pair())
    def test_route_length_equals_distance(self, tp):
        t, src, dst = tp
        assert len(route_links(t, src, dst)) == t.distance(src, dst) == path_length(t, src, dst)

    @given(topology_and_pair())
    def test_route_links_within_bounds_and_connected(self, tp):
        t, src, dst = tp
        links = route_links(t, src, dst)
        assert all(0 <= link < t.n_links for link in links)
        cur = src
        for link in links:
            a, b = t.link_endpoints(link)
            assert a == cur
            cur = b
        assert cur == dst

    @given(topology_and_pair())
    def test_route_is_deterministic(self, tp):
        t, src, dst = tp
        assert route_links(t, src, dst) == t.compute_route(src, dst)

    @given(topology_and_pair(tori))
    def test_torus_route_never_longer_than_mesh_route(self, tp):
        """Wraparound may only help: for the same endpoint pair the torus
        route is never longer than the mesh route."""
        t, src, dst = tp
        m = Mesh2D(t.rows, t.cols)
        assert len(route_links(t, src, dst)) <= len(route_links(m, src, dst))

    @given(topology_and_pair(tori))
    def test_wrap_free_torus_routes_match_mesh(self, tp):
        """When no wrap direction is strictly shorter, the torus picks the
        mesh's dimension-order path link for link."""
        t, src, dst = tp
        m = Mesh2D(t.rows, t.cols)
        (r1, c1), (r2, c2) = m.coord(src), m.coord(dst)
        dr, dc = abs(r1 - r2), abs(c1 - c2)
        if 2 * dc < t.cols and 2 * dr < t.rows:  # direct way strictly shorter
            assert route_links(t, src, dst) == route_links(m, src, dst)


class TestMakeTopologyNodes:
    """Node-count-based construction behind the xscale sweep."""

    def test_square_power_of_two(self):
        from repro.network.topology import make_topology_nodes

        topo = make_topology_nodes("mesh", 1024)
        assert (topo.rows, topo.cols) == (32, 32)
        assert topo.n_nodes == 1024

    def test_odd_power_becomes_2to1_rectangle(self):
        from repro.network.topology import make_topology_nodes

        topo = make_topology_nodes("torus", 2048)
        assert (topo.rows, topo.cols) == (32, 64)
        assert topo.kind == "torus"

    def test_hypercube_dimension(self):
        from repro.network.topology import make_topology_nodes

        topo = make_topology_nodes("hypercube", 4096)
        assert topo.dim == 12
        assert topo.n_nodes == 4096

    def test_every_kind_at_every_xscale_count(self):
        from repro.network.topology import TOPOLOGY_KINDS, make_topology_nodes

        for kind in TOPOLOGY_KINDS:
            for nodes in (1024, 2048, 4096):
                assert make_topology_nodes(kind, nodes).n_nodes == nodes

    def test_non_power_of_two_rejected(self):
        import pytest

        from repro.network.topology import make_topology_nodes

        with pytest.raises(ValueError, match="power of two"):
            make_topology_nodes("mesh", 1000)
        with pytest.raises(ValueError, match="power of two"):
            make_topology_nodes("mesh", 0)

    def test_unknown_kind_rejected(self):
        import pytest

        from repro.network.topology import make_topology_nodes

        with pytest.raises(ValueError, match="unknown topology"):
            make_topology_nodes("ring", 1024)
