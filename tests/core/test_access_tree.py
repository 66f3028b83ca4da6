"""Access tree strategy: protocol semantics and invariants.

The central invariant from the paper: "For each object x, the nodes that
hold a copy of x always build a connected component in the access tree."
The hypothesis tests drive random read/write sequences and check the
component's connectivity, the topmost pointer, and nearest-copy routing
after every operation.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.access_tree import AccessTreeStrategy
from repro.core.registry import get_strategy
from repro.network.machine import GCEL, ZERO_COST
from repro.network.mesh import Mesh2D
from repro.runtime.launcher import Runtime


def capture_completions(driver):
    """Point the runtime's resume hook (``Simulator.resume_hook``) at the
    driver: a finished flow is recorded, no generator is resumed."""
    rt = driver.rt
    rt.sim.resume_hook = lambda p: driver.completions.append(
        (p, rt.sim.now, rt.flow_value[p])
    )


class Driver:
    """Drives raw strategy operations without SPMD programs: flow
    completions are captured instead of resuming generators."""

    def __init__(self, strategy_name="4-ary", mesh=None, machine=ZERO_COST, seed=0, **kw):
        self.mesh = mesh or Mesh2D(4, 4)
        self.strategy = get_strategy(strategy_name, self.mesh, seed=seed)
        self.rt = Runtime(self.mesh, self.strategy, machine, seed=seed, **kw)
        self.completions = []
        capture_completions(self)

    def create(self, name, size, creator, value):
        return self.rt.create_var(name, size, creator, value)

    def read(self, p, var):
        res = self.strategy.read(p, var, self.rt.sim.now)
        if res is not None:
            return res[1], True  # (value, was_hit)
        self.rt.sim.run()
        _, _, value = self.completions.pop()
        return value, False

    def write(self, p, var, value):
        res = self.strategy.write(p, var, value, self.rt.sim.now)
        if res is None:
            self.rt.sim.run()
            self.completions.pop()
            return False  # remote write
        return True  # local write


def component_is_connected(strategy: AccessTreeStrategy, var) -> bool:
    nodes = strategy.copy_nodes(var)
    if not nodes:
        return False
    tree = strategy.tree
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        n = stack.pop()
        tn = tree.nodes[n]
        for nb in ([tn.parent] if tn.parent is not None else []) + tn.children:
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == nodes


def top_is_unique_shallowest(strategy: AccessTreeStrategy, var) -> bool:
    nodes = strategy.copy_nodes(var)
    cs = strategy._copies[var.vid]
    depths = [strategy.tree.depth[n] for n in nodes]
    return (
        cs.top in nodes
        and strategy.tree.depth[cs.top] == min(depths)
        and depths.count(min(depths)) == 1
    )


class TestBasicSemantics:
    def test_initial_copy_at_creator_leaf(self):
        d = Driver()
        var = d.create("x", 64, creator=5, value=1)
        assert d.strategy.copy_nodes(var) == {d.strategy.tree.leaf_of_proc[5]}
        assert d.strategy.copy_procs(var) == {5}

    def test_read_by_creator_is_hit(self):
        d = Driver()
        var = d.create("x", 64, creator=5, value=42)
        value, hit = d.read(5, var)
        assert value == 42 and hit
        assert d.strategy.hits == 1 and d.strategy.misses == 0

    def test_remote_read_creates_path_copies(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=7)
        value, hit = d.read(15, var)
        assert value == 7 and not hit
        nodes = d.strategy.copy_nodes(var)
        tree = d.strategy.tree
        assert tree.leaf_of_proc[15] in nodes
        assert tree.leaf_of_proc[0] in nodes
        # Copies are exactly the tree path between the two leaves.
        path = set(tree.tree_path(tree.leaf_of_proc[15], tree.leaf_of_proc[0]))
        assert nodes == path

    def test_second_read_is_hit(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=7)
        d.read(15, var)
        _, hit = d.read(15, var)
        assert hit

    def test_write_collapses_to_writer_leaf(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=7)
        for p in (3, 9, 15):
            d.read(p, var)
        d.write(9, var, 100)
        # Writer had a copy, so the component collapses to its leaf only.
        assert d.strategy.copy_nodes(var) == {d.strategy.tree.leaf_of_proc[9]}
        assert d.read(2, var)[0] == 100

    def test_local_write_when_sole_copy(self):
        d = Driver()
        var = d.create("x", 64, creator=4, value=0)
        assert d.write(4, var, 9) is True  # purely local
        assert d.strategy.write_local == 1
        assert d.rt.sim.stats.total_msgs == 0

    def test_write_by_non_holder_leaves_path(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=7)
        d.write(15, var, 50)
        tree = d.strategy.tree
        path = set(tree.tree_path(tree.leaf_of_proc[15], tree.leaf_of_proc[0]))
        assert d.strategy.copy_nodes(var) == path
        assert d.read(15, var)[1] is True  # writer holds a copy

    def test_invalidation_reaches_all_copies(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=1)
        readers = [3, 5, 10, 12, 15]
        for p in readers:
            d.read(p, var)
        d.write(0, var, 2)
        # All reader leaves lost their copies: next reads are misses.
        for p in readers:
            _, hit = d.read(p, var)
            assert not hit
            break  # first one suffices (others now may hit new copies)

    def test_read_your_own_write(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=1)
        d.write(7, var, 123)
        assert d.read(7, var) == (123, True)


class TestRouting:
    def test_request_path_finds_nearest_copy(self):
        """The request path endpoint is the true nearest component member
        (brute force over all members)."""
        d = Driver("2-ary")
        tree = d.strategy.tree
        var = d.create("x", 64, creator=0, value=1)
        for p in (1, 2, 3, 7, 11):
            d.read(p, var)
        cs = d.strategy._copies[var.vid]
        for p in range(16):
            leaf = tree.leaf_of_proc[p]
            path = d.strategy._request_path(cs, leaf)
            u = path[-1]
            assert u in cs.nodes
            best = min(tree.tree_distance(leaf, n) for n in cs.nodes)
            assert tree.tree_distance(leaf, u) == best

    def test_messages_follow_tree_hosts(self):
        """Read traffic only moves between hosts of adjacent tree nodes."""
        d = Driver("4-ary", machine=GCEL)
        var = d.create("x", 256, creator=0, value=1)
        d.read(15, var)
        assert d.rt.sim.stats.total_msgs > 0


ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=15),  # processor
        st.integers(min_value=0, max_value=2),  # variable index
    ),
    min_size=1,
    max_size=40,
)


@given(ops=ops, arity=st.sampled_from(["2-ary", "4-ary", "16-ary", "2-4-ary", "4-16-ary"]))
@settings(max_examples=60, deadline=None)
def test_component_invariants_hold_under_random_ops(ops, arity):
    """After every operation: the copy set is a connected subtree, the
    topmost pointer is the unique shallowest member, and reads return the
    last written value."""
    d = Driver(arity)
    variables = [d.create(f"v{i}", 64, creator=i * 5, value=("init", i)) for i in range(3)]
    last = {i: ("init", i) for i in range(3)}
    for n, (kind, p, vi) in enumerate(ops):
        var = variables[vi]
        if kind == "read":
            value, _ = d.read(p, var)
            assert value == last[vi]
        else:
            d.write(p, var, ("w", n))
            last[vi] = ("w", n)
        assert component_is_connected(d.strategy, var)
        assert top_is_unique_shallowest(d.strategy, var)


@given(ops=ops)
@settings(max_examples=30, deadline=None)
def test_invariants_hold_under_bounded_memory(ops):
    """Same invariants with tight memory: evictions must never disconnect
    a component or drop a last copy."""
    d = Driver("2-ary", capacity_bytes=200)
    variables = [d.create(f"v{i}", 64, creator=i * 5, value=i) for i in range(3)]
    last = {i: i for i in range(3)}
    for n, (kind, p, vi) in enumerate(ops):
        var = variables[vi]
        if kind == "read":
            value, _ = d.read(p, var)
            assert value == last[vi]
        else:
            d.write(p, var, n)
            last[vi] = n
        for v2 in variables:
            assert component_is_connected(d.strategy, v2)
            assert top_is_unique_shallowest(d.strategy, v2)


class TestCounters:
    def test_hit_miss_accounting(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=1)
        d.read(0, var)  # hit
        d.read(5, var)  # miss
        d.read(5, var)  # hit
        assert d.strategy.hits == 2
        assert d.strategy.misses == 1

    def test_reset_counters(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=1)
        d.read(5, var)
        d.write(5, var, 2)
        d.strategy.reset_counters()
        assert d.strategy.hits == 0
        assert d.strategy.misses == 0
        assert d.strategy.write_local == 0
        assert d.strategy.write_remote == 0

    def test_repr(self):
        d = Driver()
        assert "4-ary" in repr(d.strategy)
