"""``Simulator.push_flow``: the one message pattern, shape by shape, on
both engines."""

import gc

import pytest

from repro.network.machine import GCEL, ZERO_COST
from repro.network.mesh import Mesh2D
from repro.sim import _ckern
from repro.sim.engine import Simulator


@pytest.fixture(params=["kernel", "pure"], autouse=True)
def engine(request, monkeypatch):
    if request.param == "pure":
        monkeypatch.setattr(Simulator, "force_pure", True)
    elif _ckern.load_kernel() is None:
        pytest.skip("C kernel unavailable; only the pure engine runs here")


def sim(machine=GCEL):
    """A simulator whose resume hook records ``(proc, completion time)``."""
    s = Simulator(Mesh2D(4, 4), machine)
    done = []
    s.resume_hook = lambda proc: done.append((proc, s.now))
    return s, done


def star(root, leaves):
    """Fanout tables of a one-level multicast from ``root``."""
    k = len(leaves)
    return [root, *leaves], [k] + [0] * k, [0] * (k + 1), list(range(1, k + 1))


class TestPath:
    def test_round_trip_matches_synchronous_timing_when_alone(self):
        s, done = sim()
        ctrl, data = s.leg_costs(500)
        s.push_flow(0.0, [0, 1, 2], ctrl, data, 0)
        s.run()
        s2, _ = sim()
        t = 0.0
        for a, b, is_data in [(0, 1, False), (1, 2, False), (2, 1, True), (1, 0, True)]:
            t = s2.send_leg(a, b, 500, t, is_data)
        assert done == [(0, t)]

    def test_round_trip_records_traffic(self):
        s, _ = sim(ZERO_COST)
        ctrl, data = s.leg_costs(100)
        s.push_flow(0.0, [0, 1, 2], ctrl, data, 0)
        s.run()
        assert s.stats.ctrl_msgs == 2
        assert s.stats.data_msgs == 2

    def test_one_host_path_completes_at_once(self):
        s, done = sim()
        ctrl, data = s.leg_costs(100)
        s.push_flow(3.0, [5], ctrl, data, 5)
        s.run()
        assert done == [(5, 3.0)]
        assert s.stats.total_msgs == 0

    def test_local_legs_are_still_legs(self):
        """Two access-tree nodes on one processor: a cheap leg, no links."""
        s, done = sim()
        ctrl, data = s.leg_costs(100)
        s.push_flow(0.0, [0, 0, 1], ctrl, data, 0)
        s.run()
        assert done[0][1] > 2 * GCEL.local_overhead
        assert s.stats.total_msgs == 4
        assert s.stats.local_msgs == 2

    def test_legs_fire_in_time_order_across_flows(self):
        """Two flows through a shared NIC: legs interleave FCFS in time,
        not in initiation order of whole flows (no phantom convoys)."""
        s, done = sim()
        big = s.leg_costs(4000)[1]
        small = s.leg_costs(100)[1]
        s.push_flow(0.0, [3, 0, 1], big, big, 3)  # A: long legs through 0
        s.push_flow(0.0, [0, 2], small, small, 0)  # B: a short round trip from 0
        s.run()
        finished = dict(done)
        # B's small legs must not wait behind A's *second* leg, which only
        # starts after A's first leg arrives.
        assert finished[0] < finished[3]


class TestFanout:
    def test_childless_fanout_completes_at_once(self):
        s, done = sim()
        ctrl, data = s.leg_costs(100)
        s.push_flow(2.0, [5], ctrl, data, 5, fanout=([5], [0], [0], []))
        s.run()
        assert done == [(5, 2.0)]

    def test_childless_fanout_on_a_path_is_the_plain_round_trip(self):
        times = []
        for fanout in (None, ([1], [0], [0], [])):
            s, done = sim()
            ctrl, data = s.leg_costs(100)
            s.push_flow(0.0, [0, 1], ctrl, data, 0, fanout=fanout)
            s.run()
            times.append(done[0][1])
            assert s.stats.total_msgs == 2
        assert times[0] == times[1]

    def test_star_counts_messages(self):
        s, done = sim(ZERO_COST)
        ctrl, data = s.leg_costs(100)
        s.push_flow(0.0, [0], ctrl, data, 0, fanout=star(0, [5, 6, 7]))
        s.run()
        # 3 invalidations + 3 acks, all control.
        assert s.stats.ctrl_msgs == 6
        assert s.stats.data_msgs == 0
        assert done == [(0, 0.0)]

    def test_deep_tree_ack_combining(self):
        s, done = sim()
        ctrl, data = s.leg_costs(100)
        # 0 -> 1 -> 2, one child each
        s.push_flow(0.0, [0], ctrl, data, 0, fanout=([0, 1, 2], [1, 1, 0], [0, 1, 2], [1, 2]))
        s.run()
        # Completion must cover the full down+up round trip: 4 legs.
        leg = (GCEL.nic_overhead(GCEL.ctrl_bytes) * 2
               + GCEL.ctrl_bytes / GCEL.link_bandwidth + GCEL.hop_latency)
        assert done[0][1] >= 4 * leg * 0.99
        assert s.stats.ctrl_msgs == 4

    def test_completion_waits_for_slowest_branch(self):
        # Branch to host 3 (3 hops) vs host 1 (1 hop): completion is
        # bounded below by the far branch's round trip.
        times = []
        for leaves in ([1, 3], [1]):
            s, done = sim()
            ctrl, data = s.leg_costs(100)
            s.push_flow(0.0, [0], ctrl, data, 0, fanout=star(0, leaves))
            s.run()
            times.append(done[0][1])
        assert times[0] > times[1]

    def test_path_fanout_reply_matches_synchronous_timing_when_alone(self):
        """The write shape: the value up the path, invalidations + acks
        from its far end, the modified copy back down."""
        s, done = sim()
        data = s.leg_costs(500)[1]
        s.push_flow(0.0, [3, 0], data, data, 3, fanout=star(0, [1, 2]))
        s.run()
        s2, _ = sim()
        t1 = s2.send_leg(3, 0, 500, 0.0, True)
        down = [s2.send_leg(0, leaf, 0, t1, False) for leaf in (1, 2)]
        t2 = max(s2.send_leg(leaf, 0, 0, t, False) for leaf, t in zip((1, 2), down))
        t3 = s2.send_leg(0, 3, 500, t2, True)
        assert done == [(3, t3)]
        assert s.stats.data_msgs == 2
        assert s.stats.ctrl_msgs == 4


def test_a_simulator_dropped_with_flows_in_flight_frees_them():
    """A session closed mid-run drops its simulator with flows still in
    the heap: ``sim_free`` releases each, its ack records included (the
    sanitizer build checks those frees)."""
    s, done = sim()
    data = s.leg_costs(500)[1]
    s.push_flow(0.0, [3, 0], data, data, 3, fanout=star(0, [1, 2]))
    s.push_flow(0.0, [5, 6, 7], data, data, 5)
    s.run(until=sim()[0].send_leg(3, 0, 500, 0.0, True))  # the multicast is out
    assert done == [] and s.stats.total_msgs > 0
    del s
    gc.collect()
