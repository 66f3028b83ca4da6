"""The tree barrier's combining pass: one ``sim_combine`` call on the C
kernel, the pure loop of ``Simulator.combine`` otherwise, and a walk of
the decomposition tree as the reference.  All three must send the same
legs in the same order: same release times, same link reservations, same
traffic.  The pass wakes every processor itself, in leaf order, so the
releases are what the resume hook sees: in time order, ties in leaf
order."""

import random

import pytest

from repro.network.machine import GCEL
from repro.network.mesh import Mesh2D
from repro.network.topology import Hypercube
from repro.network.torus import Torus2D
from repro.runtime.barrier import TreeBarrier
from repro.sim import _ckern
from repro.sim.engine import Simulator

TOPOLOGIES = [Mesh2D(4, 4), Mesh2D(8, 8), Mesh2D(16, 16), Mesh2D(3, 5),
              Torus2D(4, 8), Hypercube(5)]


def tree_walk(barrier, arrivals):
    """The pass as a walk of the decomposition tree: post-order arrivals,
    pre-order release, releases handed out leaf by leaf."""
    sim, tree = barrier.sim, barrier.tree

    def host(n):
        return barrier.embedding.host(-1, n)

    order, stack = [], [tree.root]
    while stack:
        n = stack.pop()
        order.append(n)
        stack.extend(tree.nodes[n].children)
    ready = {}
    for n in reversed(order):
        node = tree.nodes[n]
        if node.is_leaf:
            ready[n] = arrivals[tree.mesh.node(node.row0, node.col0)]
            continue
        ready[n] = 0.0
        for c in node.children:
            ready[n] = max(ready[n], sim.send_leg(host(c), host(n), 0, ready[c], is_data=False))
    release = {tree.root: ready[tree.root]}
    for n in order:
        for c in tree.nodes[n].children:
            release[c] = sim.send_leg(host(n), host(c), 0, release[n], is_data=False)
    return [
        (tree.mesh.node(tree.nodes[n].row0, tree.nodes[n].col0), release[n])
        for n in order if tree.nodes[n].is_leaf
    ]


def in_wake_order(released):
    """Leaf-ordered releases as the event loop delivers wake-ups pushed in
    that order: by time, ties in push order."""
    return sorted(released, key=lambda r: r[1])


def episodes(topology, pure, through_tables, seed=11):
    """Five barrier episodes with random arrivals; returns the (proc,
    time) wake-ups of each and the engine's resource state."""
    Simulator.force_pure = pure
    try:
        sim = Simulator(topology, GCEL)
    finally:
        Simulator.force_pure = False
    barrier = TreeBarrier(sim, seed=seed)
    rng, order = random.Random(seed), random.Random(seed + 1)
    start, out = 0.0, []
    for _ in range(5):
        arrivals = [start + rng.uniform(0.0, 2e-3) for _ in range(topology.n_nodes)]
        if through_tables:
            released = []
            sim.resume_hook = lambda p: released.append((p, sim.now))
            for proc in order.sample(range(topology.n_nodes), topology.n_nodes):
                boundary = barrier.arrive(proc, arrivals[proc])
            sim.run()
            assert boundary == max(t for _, t in released)
        else:
            released = in_wake_order(tree_walk(barrier, arrivals))
        out.append(released)
        start = max(t for _, t in released)
    return out, sim.stats.snapshot(), list(sim.nic_free), list(sim.link_free)


@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.label)
def test_the_pure_pass_equals_the_tree_walk(topology):
    assert episodes(topology, True, True) == episodes(topology, True, False)


@pytest.mark.skipif(_ckern.load_kernel() is None, reason="C kernel unavailable")
@pytest.mark.parametrize("topology", TOPOLOGIES, ids=lambda t: t.label)
def test_the_kernel_pass_equals_the_pure_pass(topology):
    kernel = episodes(topology, False, True)
    assert kernel == episodes(topology, True, True)


def test_a_failure_view_keeps_the_pass_in_python(monkeypatch):
    """Under a failure schedule routes are not closed-form, so the kernel
    pass would miss them: the legs go one by one through send_leg, and
    the wake-ups one by one through resume_at, in leaf order."""
    from repro.network.failures import FailureView, build_schedule

    topology = Mesh2D(4, 4)
    sim = Simulator(topology, GCEL)
    sim.install_failures(FailureView(topology, build_schedule("linkflap:rate=0.05:seed=3", topology)))
    barrier = TreeBarrier(sim, seed=2)
    pushed = []
    resume_at = Simulator.resume_at

    def recording(self, t, proc):
        pushed.append((proc, t))
        resume_at(self, t, proc)

    monkeypatch.setattr(Simulator, "resume_at", recording)
    woken = []
    sim.resume_hook = lambda p: woken.append((p, sim.now))
    for proc in range(topology.n_nodes):
        boundary = barrier.arrive(proc, 1e-4 * proc)
    sim.run()
    assert [p for p, _ in pushed] == [p for p in barrier.tables.leaf_proc if p >= 0]
    assert woken == in_wake_order(pushed)
    assert boundary == max(t for _, t in pushed)
    assert sim.stats.snapshot().total_msgs == 2 * (len(barrier.tables.host) - 1)
