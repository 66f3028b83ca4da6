"""Barrier component tests (tree-combining and central)."""

import pytest

from repro.network.machine import GCEL, ZERO_COST
from repro.network.mesh import Mesh2D
from repro.runtime.barrier import CentralBarrier, TreeBarrier, make_barrier
from repro.sim.engine import Simulator


def record_releases(sim):
    """Point the resume hook at a dict: processor -> release time."""
    releases = {}
    sim.resume_hook = lambda proc: releases.__setitem__(proc, sim.now)
    return releases


def run_barrier(barrier_cls, machine=GCEL, arrivals=None, rows=4, cols=4, **kw):
    sim = Simulator(Mesh2D(rows, cols), machine)
    barrier = barrier_cls(sim, **kw)
    p = sim.topology.n_nodes
    arrivals = arrivals or {i: float(i) * 1e-4 for i in range(p)}
    releases = record_releases(sim)
    boundaries = [barrier.arrive(proc, t) for proc, t in arrivals.items()]
    sim.run()
    assert boundaries[:-1] == [None] * (p - 1)
    assert boundaries[-1] == max(releases.values())
    return sim, arrivals, releases


@pytest.mark.parametrize("cls", [TreeBarrier, CentralBarrier])
class TestBothBarriers:
    def test_all_released_after_everyone_arrives(self, cls):
        sim, arrivals, releases = run_barrier(cls)
        assert set(releases) == set(arrivals)
        last_arrival = max(arrivals.values())
        for proc, t in releases.items():
            assert t >= last_arrival - 1e-12

    def test_release_not_before_any_arrival(self, cls):
        sim, arrivals, releases = run_barrier(cls)
        assert min(releases.values()) >= max(arrivals.values()) - 1e-12

    def test_double_arrival_rejected(self, cls):
        sim = Simulator(Mesh2D(2, 2), GCEL)
        barrier = cls(sim)
        assert barrier.arrive(0, 0.0) is None
        with pytest.raises(RuntimeError, match="arrived twice"):
            barrier.arrive(0, 0.0)

    def test_reusable_for_next_episode(self, cls):
        sim, arrivals, releases = run_barrier(cls)
        # second episode on the same object
        barrier = cls(sim)
        rel2 = record_releases(sim)
        for proc in range(sim.topology.n_nodes):
            barrier.arrive(proc, 1.0)
        sim.run()
        assert len(rel2) == sim.topology.n_nodes
        assert barrier.episodes == 1

    def test_traffic_recorded(self, cls):
        sim, _, _ = run_barrier(cls)
        assert sim.stats.total_msgs > 0
        assert sim.stats.data_msgs == 0  # barriers are control-only


class TestTreeSpecific:
    def test_tree_barrier_traffic_is_distributed(self):
        """Tree combining: no processor handles more than O(degree * levels)
        messages, unlike the central barrier's O(P) coordinator."""
        sim_t, _, _ = run_barrier(TreeBarrier, rows=8, cols=8)
        sim_c, _, _ = run_barrier(CentralBarrier, rows=8, cols=8)
        p = 64
        assert max(sim_c.stats.startups) >= p - 1  # coordinator replies to all
        assert max(sim_t.stats.startups) < p // 2

    def test_tree_congestion_below_central(self):
        sim_t, _, _ = run_barrier(TreeBarrier, rows=8, cols=8)
        sim_c, _, _ = run_barrier(CentralBarrier, rows=8, cols=8)
        assert sim_t.stats.congestion_msgs <= sim_c.stats.congestion_msgs

    def test_barrier_message_count(self):
        """2(P-1) tree-edge messages for a full combining tree episode
        (arrive + release per edge), counting same-host edges as local."""
        sim, _, _ = run_barrier(TreeBarrier, machine=ZERO_COST, rows=4, cols=4)
        n_edges = len(TreeBarrier(Simulator(Mesh2D(4, 4), ZERO_COST)).tree.nodes) - 1
        assert sim.stats.total_msgs == 2 * n_edges


class TestFactory:
    def test_make_barrier(self):
        sim = Simulator(Mesh2D(2, 2), GCEL)
        assert isinstance(make_barrier("tree", sim), TreeBarrier)
        assert isinstance(make_barrier("central", sim), CentralBarrier)
        with pytest.raises(ValueError):
            make_barrier("ring", sim)
