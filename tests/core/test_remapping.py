"""Access-tree node remapping tests.

The theoretical strategy re-randomizes a tree node's host "when too many
accesses are directed to the same node"; the paper omits this in DIVA
("we omit this remapping as we believe that the constant overhead ... will
not be retained in practice").  We implement it as an opt-in so the claim
can be tested; these tests check the mechanism, and the ablation bench
measures its cost/benefit.
"""

import pytest

from repro.core.registry import get_strategy
from repro.network.machine import GCEL, ZERO_COST
from repro.network.mesh import Mesh2D
from repro.runtime.launcher import Runtime

from test_access_tree import (
    Driver,
    capture_completions,
    component_is_connected,
    top_is_unique_shallowest,
)


def make_driver(threshold, **kw):
    mesh = Mesh2D(4, 4)
    strategy = get_strategy("4-ary", mesh, seed=1, remap_threshold=threshold)
    rt = Runtime(mesh, strategy, ZERO_COST, seed=1, **kw)
    d = Driver.__new__(Driver)
    d.mesh = mesh
    d.strategy = strategy
    d.rt = rt
    d.completions = []
    capture_completions(d)
    return d


class TestRemapping:
    def test_disabled_by_default(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=1)
        for _ in range(50):
            d.read(15, var)
            d.write(0, var, 1)
        assert d.strategy.remaps == 0

    def test_hot_node_gets_remapped(self):
        d = make_driver(threshold=5)
        var = d.create("x", 64, creator=0, value=0)
        # Hammer the same remote path: the shared interior nodes heat up.
        for i in range(40):
            d.read(15, var)
            d.write(0, var, i)
        assert d.strategy.remaps > 0

    def test_remapped_host_stays_in_submesh(self):
        d = make_driver(threshold=3)
        var = d.create("x", 64, creator=0, value=0)
        for i in range(30):
            d.read(15, var)
            d.write(0, var, i)
        tree = d.strategy.tree
        for node in range(len(tree.nodes)):
            host = d.strategy._host(var.vid, node)
            tn = tree.nodes[node]
            r, c = d.mesh.coord(host)
            assert tn.row0 <= r < tn.row0 + tn.rows
            assert tn.col0 <= c < tn.col0 + tn.cols

    def test_invariants_hold_with_remapping(self):
        d = make_driver(threshold=2)
        variables = [d.create(f"v{i}", 64, creator=i, value=i) for i in range(3)]
        for i in range(30):
            p = (i * 7) % 16
            vi = i % 3
            if i % 3 == 0:
                d.write(p, variables[vi], i)
            else:
                d.read(p, variables[vi])
            for var in variables:
                assert component_is_connected(d.strategy, var)
                assert top_is_unique_shallowest(d.strategy, var)

    def test_values_stay_correct_with_remapping(self):
        d = make_driver(threshold=2)
        var = d.create("x", 64, creator=0, value=0)
        for i in range(25):
            d.write(i % 16, var, i)
            val, _ = d.read((i + 5) % 16, var)
            assert val == i

    def test_end_to_end_application_with_remapping(self):
        from repro.apps import matmul

        mesh = Mesh2D(4, 4)
        strat = get_strategy("4-ary", mesh, remap_threshold=3)
        res = matmul.run_diva(mesh, strat, block_entries=16)
        assert res.extra["verified"]
        assert strat.remaps > 0

    def test_remap_migrates_copy_with_traffic(self):
        d = make_driver(threshold=3)
        # Use GCEL so migration legs show in stats.
        d.rt.sim.machine = GCEL
        var = d.create("x", 256, creator=0, value=0)
        before = d.rt.sim.stats.data_msgs
        for i in range(30):
            d.read(15, var)
            d.write(0, var, i)
        # Migration of copy-holding nodes sends data messages beyond the
        # plain protocol's (request+reply / invalidation) pattern.
        assert d.strategy.remaps > 0
