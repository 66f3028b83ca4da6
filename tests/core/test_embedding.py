"""Access tree embedding tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.decomposition import build_tree
from repro.core.embedding import (
    ModifiedEmbedding,
    RandomEmbedding,
    SubcubeEmbedding,
    TorusModifiedEmbedding,
    make_embedding,
)
from repro.network.mesh import Mesh2D
from repro.network.routing import path_length
from repro.network.topology import Hypercube
from repro.network.torus import Torus2D

mesh_shapes = st.tuples(
    st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=8)
)


def in_submesh(mesh, node, host) -> bool:
    r, c = mesh.coord(host)
    return node.row0 <= r < node.row0 + node.rows and node.col0 <= c < node.col0 + node.cols


class TestFactory:
    def test_make(self):
        tree = build_tree(Mesh2D(4, 4))
        assert isinstance(make_embedding("modified", tree), ModifiedEmbedding)
        assert isinstance(make_embedding("random", tree), RandomEmbedding)
        with pytest.raises(ValueError):
            make_embedding("weird", tree)


@pytest.mark.parametrize("kind", ["random", "modified"])
class TestBothEmbeddings:
    @given(shape=mesh_shapes, vid=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_host_inside_submesh(self, kind, shape, vid):
        """Every tree node is hosted by a processor of its own submesh --
        the defining property of the embedding."""
        mesh = Mesh2D(*shape)
        tree = build_tree(mesh, stride=2)
        emb = make_embedding(kind, tree, seed=1)
        for node in tree.nodes:
            host = emb.host(vid, node.idx)
            assert in_submesh(mesh, node, host)

    def test_leaf_hosts_itself(self, kind):
        mesh = Mesh2D(4, 4)
        tree = build_tree(mesh, stride=1)
        emb = make_embedding(kind, tree, seed=3)
        for p in range(16):
            assert emb.host(7, tree.leaf_of_proc[p]) == p

    def test_deterministic_per_seed_and_vid(self, kind):
        mesh = Mesh2D(4, 4)
        tree = build_tree(mesh, stride=2)
        a = make_embedding(kind, tree, seed=5)
        b = make_embedding(kind, tree, seed=5)
        for node in tree.nodes:
            assert a.host(3, node.idx) == b.host(3, node.idx)

    def test_different_vars_embed_differently(self, kind):
        mesh = Mesh2D(8, 8)
        tree = build_tree(mesh, stride=2)
        emb = make_embedding(kind, tree, seed=5)
        roots = {emb.host(v, tree.root) for v in range(40)}
        assert len(roots) > 5  # randomized across variables

    def test_forget_clears_cache(self, kind):
        mesh = Mesh2D(4, 4)
        tree = build_tree(mesh, stride=2)
        emb = make_embedding(kind, tree, seed=5)
        emb.host(3, tree.root)
        assert 3 in emb._cache
        emb.forget(3)
        assert 3 not in emb._cache


class TestModifiedRule:
    def test_child_coordinates_follow_parent_mod_rule(self):
        """The paper's rule: child's submesh-local coordinates are the
        parent's submesh-local coordinates mod the child's side lengths."""
        mesh = Mesh2D(8, 8)
        tree = build_tree(mesh, stride=1)
        emb = ModifiedEmbedding(tree, seed=9)
        for vid in range(5):
            for node in tree.nodes:
                if node.parent is None:
                    continue
                parent = tree.nodes[node.parent]
                pr, pc = mesh.coord(emb.host(vid, parent.idx))
                li, lj = pr - parent.row0, pc - parent.col0
                hr, hc = mesh.coord(emb.host(vid, node.idx))
                assert hr == node.row0 + (li % node.rows)
                assert hc == node.col0 + (lj % node.cols)

    def test_modified_embedding_shortens_tree_edges(self):
        """The motivation for the modified embedding: smaller expected
        distance between neighbouring tree nodes than random placement."""
        mesh = Mesh2D(16, 16)
        tree = build_tree(mesh, stride=2)

        def total_edge_distance(emb, vids):
            total = 0
            for vid in vids:
                for node in tree.nodes:
                    if node.parent is not None:
                        total += path_length(
                            mesh, emb.host(vid, node.parent), emb.host(vid, node.idx)
                        )
            return total

        vids = range(20)
        mod = total_edge_distance(ModifiedEmbedding(tree, seed=4), vids)
        rnd = total_edge_distance(RandomEmbedding(tree, seed=4), vids)
        assert mod < rnd

    def test_many_parent_child_pairs_colocated(self):
        """Under the modified rule, a parent in the child's quadrant hosts
        the child on the same processor (zero-distance edge)."""
        mesh = Mesh2D(8, 8)
        tree = build_tree(mesh, stride=2)
        emb = ModifiedEmbedding(tree, seed=2)
        colocated = 0
        edges = 0
        for vid in range(10):
            for node in tree.nodes:
                if node.parent is not None:
                    edges += 1
                    if emb.host(vid, node.idx) == emb.host(vid, node.parent):
                        colocated += 1
        assert colocated > edges // 10


#: Every embedding class, on the topologies it is built for.
EMBEDDINGS = [
    (RandomEmbedding, Mesh2D(6, 4)),
    (ModifiedEmbedding, Mesh2D(8, 8)),
    (ModifiedEmbedding, Mesh2D(5, 3)),
    (ModifiedEmbedding, Hypercube(5)),  # the tree barrier's grid view
    (TorusModifiedEmbedding, Torus2D(4, 8)),
    (SubcubeEmbedding, Hypercube(5)),
]


@pytest.mark.parametrize("cls, topology", EMBEDDINGS,
                         ids=lambda x: getattr(x, "__name__", None) or x.label)
@pytest.mark.parametrize("stride, terminal", [(1, 1), (2, 1), (4, 1), (1, 4), (2, 8)])
def test_host_row_equals_the_host_loop(cls, topology, stride, terminal):
    """``host_row`` (a table lookup on the modified embedding) hands out
    exactly what asking ``host`` node by node would."""
    tree = build_tree(topology, stride=stride, terminal=terminal)
    rows, loop = cls(tree, seed=7), cls(tree, seed=7)
    for vid in [-1, *range(30)]:
        assert rows.host_row(vid).tolist() == [
            loop.host(vid, n) for n in range(len(tree.nodes))
        ]


def test_host_row_follows_an_overridden_host():
    tree = build_tree(Mesh2D(8, 8), stride=2)
    emb = ModifiedEmbedding(tree, seed=1)
    emb.host_row(3)  # builds the table
    node = tree.nodes[tree.root].children[0]
    emb.override(3, node, 63)
    assert emb.host_row(3)[node] == 63
    assert emb.host_row(3).tolist() == [emb.host(3, n) for n in range(len(tree.nodes))]
