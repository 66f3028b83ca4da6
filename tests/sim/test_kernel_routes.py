"""The C kernel's native routing must mirror Python's closed forms.

Above ``DENSE_NODE_LIMIT`` the kernel stops caching routes and computes
each one in C (``sim_set_topology`` with ``cache=0``); below it computed
routes are interned in the kernel's hash.  Either way the link ids must
be bit-identical to ``Topology.compute_route`` -- these tests drive the
kernel's debug surface (``sim_compute_route``, which stages the links)
directly, then pin whole-simulation equivalence across the engines at a
beyond-the-limit machine size.
"""

import random

import pytest

from repro.network.machine import GCEL
from repro.network.mesh import Mesh2D
from repro.network.routing import DENSE_NODE_LIMIT
from repro.network.topology import Hypercube
from repro.network.torus import Torus2D
from repro.sim import _ckern
from repro.sim.engine import Simulator

kernel_only = pytest.mark.skipif(
    _ckern.load_kernel() is None,
    reason="C kernel unavailable; only the pure engine runs here",
)

# Rectangles, degenerate shapes, and sizes on both sides of the limit.
TOPOLOGIES = [
    Mesh2D(3, 7),
    Mesh2D(1, 9),
    Mesh2D(8, 8),
    Mesh2D(128, 64),     # 8192 > DENSE_NODE_LIMIT: uncached C routing
    Torus2D(4, 4),
    Torus2D(3, 5),
    Torus2D(64, 128),
    Hypercube(1),
    Hypercube(4),
    Hypercube(13),
]


def kernel_route(sim, src, dst):
    n = sim._lib.sim_compute_route(sim._h, src, dst)
    assert n >= 0, "kernel has no native topology bound"
    return tuple(sim._stage_i[0:n])


@kernel_only
class TestKernelRoutesMatchPython:
    @pytest.mark.parametrize("topo", TOPOLOGIES, ids=lambda t: t.label)
    def test_random_pairs_identical(self, topo):
        sim = Simulator(topo, GCEL)
        assert sim._h is not None
        rng = random.Random(11)
        n = topo.n_nodes
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(400)]
        pairs += [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1)]
        for src, dst in pairs:
            route = kernel_route(sim, src, dst)
            assert route == topo.compute_route(src, dst)
            assert len(route) == topo.distance(src, dst)

    def test_small_machines_exhaustively(self):
        for topo in (Mesh2D(3, 4), Torus2D(3, 3), Hypercube(3)):
            sim = Simulator(topo, GCEL)
            for src in range(topo.n_nodes):
                for dst in range(topo.n_nodes):
                    assert kernel_route(sim, src, dst) == topo.compute_route(src, dst)

    def test_probe_is_side_effect_free_above_the_limit(self):
        """Uncached mode recomputes into scratch; computing many routes
        must leave no per-route residue in the Python router."""
        topo = Torus2D(64, 128)
        sim = Simulator(topo, GCEL)
        for dst in range(0, topo.n_nodes, 997):
            kernel_route(sim, 0, dst)
        assert sim._routes == {}


@kernel_only
class TestArenaGrowth:
    def test_cached_native_routes_survive_arena_reallocs(self, monkeypatch):
        """Storing thousands of distinct computed routes grows the
        kernel's arena through several reallocs; every leg must still
        read its just-stored route (regression: the store's realloc once
        left the leg reading through the pre-realloc arena pointer)."""
        topo = Mesh2D(16, 16)

        def drive():
            sim = Simulator(topo, GCEL)
            t = 0.0
            for src in range(topo.n_nodes):
                for dst in range(0, topo.n_nodes, 7):
                    t = sim.send_leg(src, dst, 64, ready=t, is_data=True)
            return t, sim.stats.snapshot()

        kernel = drive()
        monkeypatch.setattr(Simulator, "force_pure", True)
        assert kernel == drive()


@kernel_only
class TestEngineEquivalenceAboveTheLimit:
    def test_kernel_matches_pure_python_at_8192_nodes(self, monkeypatch):
        """One small zipf cell on an 8192-node machine (algebraic router
        active) must produce field-identical rows under the C
        kernel and the pure-Python loop."""
        from repro.analysis.experiments import workload_cell

        assert Hypercube(13).n_nodes > DENSE_NODE_LIMIT
        cell = dict(workload="zipf", nodes=8192, topology="hypercube",
                    strategy="2-4-ary",
                    params={"n_vars": 8, "ops": 2, "alpha": 0.8, "read_frac": 0.9})
        kernel_rows = workload_cell(**cell)
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure_rows = workload_cell(**cell)
        assert kernel_rows == pure_rows  # exact equality, field by field
