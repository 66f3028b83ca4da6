"""Simulator-wide property tests: causality and accounting conservation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.machine import GCEL
from repro.network.mesh import Mesh2D
from repro.network.routing import route_links
from repro.sim import _ckern
from repro.sim.engine import Simulator

legs_strategy = st.lists(
    st.tuples(
        st.integers(0, 15),  # src
        st.integers(0, 15),  # dst
        st.integers(0, 4096),  # payload
        st.booleans(),  # is_data
    ),
    min_size=1,
    max_size=30,
)


@given(legs_strategy)
@settings(max_examples=50, deadline=None)
def test_send_leg_causality(legs):
    """Every delivery completes at or after its ready time, and resource
    availability times never move backwards."""
    sim = Simulator(Mesh2D(4, 4), GCEL)
    ready = 0.0
    for src, dst, payload, is_data in legs:
        before_nic = list(sim.nic_free)
        before_links = list(sim.link_free)
        done = sim.send_leg(src, dst, payload, ready, is_data)
        assert done >= ready
        assert all(a >= b for a, b in zip(sim.nic_free, before_nic))
        assert all(a >= b for a, b in zip(sim.link_free, before_links))
        ready = done / 2  # next leg may be ready earlier: still must hold


@given(legs_strategy)
@settings(max_examples=40, deadline=None)
def test_traffic_conservation(legs):
    """Total per-link bytes equal the sum over messages of wire size times
    path length; message counts add up."""
    mesh = Mesh2D(4, 4)
    sim = Simulator(mesh, GCEL)
    expect_bytes = 0.0
    expect_msgs = 0
    for src, dst, payload, is_data in legs:
        sim.send_leg(src, dst, payload, 0.0, is_data)
        path = route_links(mesh, src, dst)
        wire = payload + GCEL.header_bytes if is_data else GCEL.ctrl_bytes
        expect_bytes += wire * len(path)
        expect_msgs += len(path)
    assert sim.stats.total_bytes == pytest.approx(expect_bytes)
    assert sim.stats.total_link_msgs == expect_msgs
    assert sim.stats.total_msgs == len(legs)


hosts_strategy = st.lists(st.integers(0, 15), min_size=1, max_size=5)


@given(hosts_strategy, st.integers(0, 4096))
@settings(max_examples=30, deadline=None)
def test_round_trip_completion_after_all_legs(hosts, payload):
    """A round trip's completion time dominates every leg's earliest
    possible time and the flow records exactly its legs."""
    sim = Simulator(Mesh2D(4, 4), GCEL)
    done = []
    sim.resume_hook = lambda proc: done.append(sim.now)
    ctrl, data = sim.leg_costs(payload)
    sim.push_flow(0.0, hosts, ctrl, data, hosts[0])
    sim.run()
    assert len(done) == 1
    assert sim.stats.total_msgs == 2 * (len(hosts) - 1)
    # Lower bound: sum of pure NIC overheads along the path, both ways (no
    # link or queueing term can make it faster).
    lower = 0.0
    for src, dst in zip(hosts, hosts[1:]):
        if src == dst:
            lower += 2 * GCEL.local_overhead
        else:
            for wire in (GCEL.ctrl_bytes, payload + GCEL.header_bytes):
                lower += 2 * GCEL.nic_overhead(wire) + wire / GCEL.link_bandwidth
    assert done[0] >= lower * (1 - 1e-9)


@st.composite
def fanouts(draw, root_host):
    """Dense fanout tables of a random multicast tree of depth <= 3 (a
    lone root included: the childless fanout)."""
    parents = [None]
    depth = [0]
    for i in range(1, draw(st.integers(1, 8))):
        p = draw(st.integers(0, i - 1))
        if depth[p] == 3:
            p = 0
        parents.append(p)
        depth.append(depth[p] + 1)
    children = [[i for i, p in enumerate(parents) if p == n] for n in range(len(parents))]
    hosts = [root_host] + [draw(st.integers(0, 15)) for _ in parents[1:]]
    kid_cnt = [len(c) for c in children]
    kid_off = [sum(kid_cnt[:n]) for n in range(len(parents))]
    return hosts, kid_cnt, kid_off, [k for c in children for k in c]


@st.composite
def flows(draw):
    hosts = draw(hosts_strategy)  # repeats allowed: local legs
    shapes = [draw(st.one_of(st.none(), st.integers(0, 4096))) for _ in range(2)]
    fanout = draw(st.one_of(st.none(), fanouts(hosts[-1])))
    return draw(st.sampled_from([0.0, 1e-5, 1e-4])), hosts, shapes, fanout


def _run_flows(drawn, pure, monkeypatch):
    monkeypatch.setattr(Simulator, "force_pure", pure)
    sim = Simulator(Mesh2D(4, 4), GCEL)
    done = []
    sim.resume_hook = lambda proc: done.append((proc, sim.now))
    ctrl = sim.leg_costs(0)[0]
    for proc, (t, hosts, payloads, fanout) in enumerate(drawn):
        # None: the control shape; a payload size: the data shape
        up, down = (ctrl if p is None else sim.leg_costs(p)[1] for p in payloads)
        sim.push_flow(t, hosts, up, down, proc, fanout)
    sim.run()
    stats = sim.stats
    return (done, list(stats.link_bytes), list(stats.link_msgs), list(stats.startups),
            list(sim.link_free), list(sim.nic_free))


@pytest.mark.skipif(_ckern.load_kernel() is None, reason="needs both engines")
@given(st.lists(flows(), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_concurrent_flows_are_engine_identical(drawn):
    """2-4 concurrent random flows: the pure loop and the C kernel agree
    exactly on completion order and times, per-link bytes and messages,
    startups, and the final link / NIC availability."""
    with pytest.MonkeyPatch.context() as mp:
        assert _run_flows(drawn, True, mp) == _run_flows(drawn, False, mp)


def test_heatmap_of_real_run():
    """The heatmap renders for real application traffic and highlights at
    least one saturated wire."""
    from repro.apps import matmul
    from repro.core.registry import get_strategy

    mesh = Mesh2D(4, 4)
    res = matmul.run_diva(mesh, get_strategy("fixed-home", mesh), 64)
    rt = res.extra["runtime"]
    out = rt.sim.stats.render_heatmap()
    assert "100" in out
    assert out.count("+") == 16
