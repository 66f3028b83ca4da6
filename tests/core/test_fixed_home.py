"""Fixed home strategy: ownership scheme semantics."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fixed_home import HOME, FixedHomeStrategy
from repro.core.registry import get_strategy
from repro.network.machine import GCEL, ZERO_COST
from repro.network.mesh import Mesh2D
from repro.runtime.launcher import Runtime


class Driver:
    def __init__(self, machine=ZERO_COST, seed=0, **kw):
        self.mesh = Mesh2D(4, 4)
        self.strategy = get_strategy("fixed-home", self.mesh, seed=seed)
        self.rt = Runtime(self.mesh, self.strategy, machine, seed=seed, **kw)
        self.completions = []
        sim = self.rt.sim  # flow completions are captured, no generator resumes
        sim.resume_hook = lambda p: self.completions.append((p, sim.now, self.rt.flow_value[p]))

    def create(self, name, size, creator, value):
        return self.rt.create_var(name, size, creator, value)

    def read(self, p, var):
        res = self.strategy.read(p, var, self.rt.sim.now)
        if res is not None:
            return res[1], True
        self.rt.sim.run()
        _, _, value = self.completions.pop()
        return value, False

    def write(self, p, var, value):
        res = self.strategy.write(p, var, value, self.rt.sim.now)
        if res is None:
            self.rt.sim.run()
            self.completions.pop()
            return False
        return True


class TestOwnership:
    def test_creator_starts_as_owner_with_sole_copy(self):
        d = Driver()
        var = d.create("x", 64, creator=3, value=1)
        assert d.strategy.owner_of(var) == 3
        assert d.strategy.copy_procs(var) == {3}

    def test_home_is_deterministic_random(self):
        d1 = Driver(seed=7)
        d2 = Driver(seed=7)
        v1 = d1.create("x", 64, 0, 1)
        v2 = d2.create("x", 64, 0, 1)
        assert d1.strategy.home_of(v1.vid) == d2.strategy.home_of(v2.vid)
        # Different seeds spread homes differently.
        d3 = Driver(seed=8)
        homes7 = [d1.create(f"a{i}", 8, 0, 0) for i in range(20)]
        homes8 = [d3.create(f"a{i}", 8, 0, 0) for i in range(20)]
        h7 = [d1.strategy.home_of(v.vid) for v in homes7]
        h8 = [d3.strategy.home_of(v.vid) for v in homes8]
        assert h7 != h8

    def test_read_moves_ownership_to_home(self):
        d = Driver()
        var = d.create("x", 64, creator=3, value=10)
        value, hit = d.read(9, var)
        assert value == 10 and not hit
        assert d.strategy.owner_of(var) == HOME
        # Previous owner keeps a copy; home and reader gained copies.
        copies = d.strategy.copy_procs(var)
        assert {3, 9} <= copies
        assert d.strategy.home_of(var.vid) in copies

    def test_owner_write_is_free(self):
        d = Driver()
        var = d.create("x", 64, creator=3, value=10)
        assert d.write(3, var, 11) is True
        assert d.rt.sim.stats.total_msgs == 0
        assert d.strategy.write_local == 1

    def test_non_owner_write_invalidates_everything(self):
        d = Driver()
        var = d.create("x", 64, creator=3, value=10)
        for p in (1, 5, 9):
            d.read(p, var)
        assert d.write(7, var, 99) is False
        assert d.strategy.owner_of(var) == 7
        assert d.strategy.copy_procs(var) == {7}
        assert d.read(1, var) == (99, False)

    def test_write_read_write_cycle(self):
        """The paper's condition: every write preceded by the writer's own
        read => behaves like a P-ary access tree."""
        d = Driver()
        var = d.create("x", 64, creator=0, value=0)
        for step, p in enumerate((4, 9, 2)):
            v, _ = d.read(p, var)
            assert v == step
            d.write(p, var, step + 1)
            assert d.strategy.owner_of(var) == p

    def test_read_after_read_is_hit(self):
        d = Driver()
        var = d.create("x", 64, creator=0, value=5)
        d.read(8, var)
        assert d.read(8, var) == (5, True)

    def test_owner_read_is_hit(self):
        d = Driver()
        var = d.create("x", 64, creator=6, value=5)
        assert d.read(6, var) == (5, True)


class TestTraffic:
    def test_read_miss_from_owner_counts_fetch(self):
        """First remote read fetches from the owner through the home:
        control request + control fetch + two data messages."""
        d = Driver(machine=GCEL)
        var = d.create("x", 256, creator=0, value=1)
        d.read(15, var)
        s = d.rt.sim.stats
        assert s.data_msgs == 2
        assert s.ctrl_msgs == 2

    def test_read_miss_from_home_is_single_data(self):
        d = Driver(machine=GCEL)
        var = d.create("x", 256, creator=0, value=1)
        d.read(15, var)  # moves ownership to home
        d.rt.sim.stats = type(d.rt.sim.stats)(d.mesh)  # fresh counters
        d.read(3, var)
        s = d.rt.sim.stats
        assert s.data_msgs == 1
        assert s.ctrl_msgs == 1

    def test_write_sends_one_invalidation_per_copy(self):
        d = Driver(machine=GCEL)
        var = d.create("x", 256, creator=0, value=1)
        readers = [3, 7, 11]
        for p in readers:
            d.read(p, var)
        before = d.rt.sim.stats.ctrl_msgs
        d.write(5, var, 2)
        # copies: {0, home, 3, 7, 11}; request + grant + (inv+ack) per copy.
        holders = len({0, d.strategy.home_of(var.vid), 3, 7, 11})
        assert d.rt.sim.stats.ctrl_msgs - before == 2 + 2 * holders
        # Data total unchanged by the write: the first read fetched from the
        # owner (2 data messages), the other two reads one data message each.
        assert d.rt.sim.stats.data_msgs == 4


ops = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(min_value=0, max_value=15),
        st.integers(min_value=0, max_value=2),
    ),
    min_size=1,
    max_size=40,
)


@given(ops=ops)
@settings(max_examples=60, deadline=None)
def test_ownership_invariants_under_random_ops(ops):
    """Invariants of the ownership scheme: the owner (processor or home)
    always holds a valid copy; after a write the writer is the sole holder;
    reads always return the last written value."""
    d = Driver()
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
            assert d.strategy.owner_of(var) == p
            assert d.strategy.copy_procs(var) == {p}
        st_ = d.strategy._states[var.vid]
        if st_.owner == HOME:
            assert st_.home in st_.copies
        else:
            assert st_.owner in st_.copies


def test_reset_counters():
    d = Driver()
    var = d.create("x", 64, creator=0, value=1)
    d.read(5, var)
    d.write(5, var, 2)
    d.strategy.reset_counters()
    assert d.strategy.hits == d.strategy.misses == 0
    assert d.strategy.write_local == d.strategy.write_remote == 0
