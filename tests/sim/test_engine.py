"""Event engine and message-leg timing tests."""

import pytest

from repro.network.machine import GCEL, ZERO_COST, MachineModel
from repro.network.mesh import Mesh2D
from repro.sim.engine import Simulator


def sim(machine=GCEL, rows=4, cols=4):
    return Simulator(Mesh2D(rows, cols), machine)


class TestEventHeap:
    def test_events_run_in_time_order(self):
        s = sim()
        order = []
        s.schedule(2.0, order.append, "b")
        s.schedule(1.0, order.append, "a")
        s.schedule(3.0, order.append, "c")
        s.run()
        assert order == ["a", "b", "c"]
        assert s.now == 3.0

    def test_ties_broken_fifo(self):
        s = sim()
        order = []
        for i in range(5):
            s.schedule(1.0, order.append, i)
        s.run()
        assert order == [0, 1, 2, 3, 4]

    def test_schedule_into_past_rejected(self):
        s = sim()
        s.schedule(5.0, lambda: s.schedule(1.0, lambda: None))
        with pytest.raises(ValueError):
            s.run()

    def test_nested_scheduling(self):
        s = sim()
        seen = []

        def outer():
            seen.append(("outer", s.now))
            s.schedule(s.now + 1.0, inner)

        def inner():
            seen.append(("inner", s.now))

        s.schedule(1.0, outer)
        s.run()
        assert seen == [("outer", 1.0), ("inner", 2.0)]


class TestSendLeg:
    def test_local_leg_costs_local_overhead(self):
        s = sim()
        done = s.send_leg(3, 3, 1000, ready=0.0, is_data=True)
        assert done == pytest.approx(GCEL.local_overhead)
        assert s.stats.local_msgs == 1
        assert s.stats.congestion_bytes == 0

    def test_remote_leg_time_components(self):
        s = sim()
        payload = 1000
        wire = payload + GCEL.header_bytes
        done = s.send_leg(0, 1, payload, ready=0.0, is_data=True)
        oh = GCEL.nic_overhead(wire)
        expected = oh + wire / GCEL.link_bandwidth + GCEL.hop_latency + oh
        assert done == pytest.approx(expected)

    def test_ctrl_leg_uses_ctrl_size(self):
        s = sim()
        s.send_leg(0, 1, 12345, ready=0.0, is_data=False)  # payload ignored
        assert s.stats.link_bytes[
            [l for l, a, b in s.topology.iter_links() if (a, b) == (0, 1)][0]
        ] == GCEL.ctrl_bytes

    def test_nic_serializes_sends(self):
        s = sim()
        t1 = s.send_leg(0, 1, 1000, ready=0.0, is_data=True)
        t2 = s.send_leg(0, 2, 1000, ready=0.0, is_data=True)
        # The second message waits for the sender's NIC.
        assert t2 > t1

    def test_link_serializes_messages(self):
        zero_nic = GCEL.with_(nic_fixed_overhead=0.0, nic_byte_overhead=0.0, hop_latency=0.0)
        s = sim(zero_nic)
        wire = 1000 + zero_nic.header_bytes
        t1 = s.send_leg(0, 3, 1000, ready=0.0, is_data=True)
        t2 = s.send_leg(1, 3, 1000, ready=0.0, is_data=True)  # shares link 1->2->3
        assert t1 == pytest.approx(3 * 0 + wire / 1e6)
        assert t2 == pytest.approx(2 * wire / 1e6)

    def test_disjoint_paths_parallel(self):
        zero_nic = GCEL.with_(nic_fixed_overhead=0.0, nic_byte_overhead=0.0, hop_latency=0.0)
        s = sim(zero_nic)
        t1 = s.send_leg(0, 1, 1000, ready=0.0, is_data=True)
        t2 = s.send_leg(4, 5, 1000, ready=0.0, is_data=True)
        assert t1 == pytest.approx(t2)

    def test_ready_time_respected(self):
        s = sim(ZERO_COST)
        done = s.send_leg(0, 1, 10, ready=7.5, is_data=True)
        assert done == pytest.approx(7.5)

    def test_zero_cost_machine_instant(self):
        s = sim(ZERO_COST)
        assert s.send_leg(0, 15, 10**9, ready=0.0, is_data=True) == 0.0

    def test_traffic_recorded_on_every_path_link(self):
        s = sim(ZERO_COST)
        s.send_leg(0, 15, 100, ready=0.0, is_data=True)
        # path (0,0)->(3,3): 6 links
        assert sum(1 for b in s.stats.link_bytes if b > 0) == 6

    def test_count_false_times_without_recording(self):
        s = sim()
        s.send_leg(0, 1, 100, ready=0.0, is_data=True, count=False)
        assert s.stats.total_msgs == 0

    def test_count_false_is_side_effect_free(self):
        """Regression: a hypothetical leg must not reserve resources --
        historically it mutated nic_free/link_free, so 'timing' a leg
        perturbed every later message."""
        s = sim()
        nic_before = list(s.nic_free)
        links_before = list(s.link_free)
        hypothetical = s.send_leg(0, 5, 1000, ready=0.0, is_data=True, count=False)
        assert list(s.nic_free) == nic_before
        assert list(s.link_free) == links_before
        assert s.stats.total_msgs == 0
        # Same leg timed for real on the untouched simulator: identical time.
        real = s.send_leg(0, 5, 1000, ready=0.0, is_data=True)
        assert real == pytest.approx(hypothetical)
        assert s.stats.total_msgs == 1

    def test_count_false_repeated_is_idempotent(self):
        s = sim()
        t1 = s.send_leg(0, 1, 500, ready=0.0, is_data=True, count=False)
        t2 = s.send_leg(0, 1, 500, ready=0.0, is_data=True, count=False)
        assert t1 == t2  # no hidden serialization between hypothetical legs


class TestStatsSwap:
    def test_swapped_accumulator_takes_the_traffic_from_then_on(self):
        from repro.network.stats import LinkStats

        s = sim()
        first = s.stats
        s.send_leg(0, 1, 500, ready=0.0, is_data=True)
        s.stats = second = LinkStats(s.topology)
        s.send_leg(0, 1, 500, ready=1.0, is_data=False)
        s.send_leg(2, 2, 0, ready=1.0, is_data=False)
        assert list(first.counts) == [1, 1, 0]
        assert list(second.counts) == [2, 0, 1]
        assert first.total_bytes > second.total_bytes > 0

    def test_accumulator_of_another_topology_is_rejected(self):
        from repro.network.stats import LinkStats

        with pytest.raises(ValueError, match="another topology"):
            sim().stats = LinkStats(Mesh2D(3, 3))


class TestMeshAlias:
    def test_mesh_alias_removed(self):
        """``Simulator.mesh`` was deprecated in the topology-generic
        release and removed on schedule; ``topology`` is the surface."""
        s = sim()
        with pytest.raises(AttributeError):
            s.mesh  # noqa: B018

    def test_topology_attribute_is_the_surface(self):
        s = sim()
        assert s.topology.n_nodes == 16


class TestEngineEquivalence:
    """The C kernel and the pure-Python loop must be bit-identical."""

    @staticmethod
    def _rows():
        from repro.analysis.experiments import fig2_cell, workload_cell

        rows = workload_cell(
            workload="zipf", strategy="4-ary", topology="mesh", side=4,
            params={"n_vars": 16, "ops": 24, "alpha": 0.8, "read_frac": 0.8},
            seed=0,
        )
        rows += fig2_cell("fixed-home", side=4, block_entries=64)
        rows += fig2_cell("4-ary", side=4, block_entries=64)
        return rows

    def test_kernel_matches_pure_python_exactly(self, monkeypatch):
        from repro.sim import _ckern

        if _ckern.load_kernel() is None:
            pytest.skip("C kernel unavailable; only the pure engine runs here")
        kernel_rows = self._rows()
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure_rows = self._rows()
        assert kernel_rows == pure_rows  # exact float equality, field by field

    def test_force_pure_flag_selects_python_engine(self, monkeypatch):
        monkeypatch.setattr(Simulator, "force_pure", True)
        s = sim()
        assert s._h is None
        done = s.send_leg(0, 1, 100, ready=0.0, is_data=True)
        assert done > 0.0


#: Failure schedules of the differential harness: link flaps with
#: recovery, permanent churn, revived churn, and precise single events --
#: on all three topology families (the kernel must take the supply path
#: everywhere).
FAILURE_FIXTURES = [
    ("mesh", "linkflap:rate=0.05:seed=3:horizon=0.01:down=0.5"),
    ("mesh", "linkflap:rate=0.2:seed=1:horizon=0.01:down=0"),
    ("mesh", "churn:nodes=0.2:seed=5:horizon=0.01"),
    ("mesh", "churn:nodes=0.1:seed=2:horizon=0.01:revive=0.5"),
    ("mesh", "nodedown:node=3:at=0.002"),
    ("mesh", "linkdown:link=5:at=0.001:up=0.004"),
    ("torus", "churn:nodes=0.2:seed=5:horizon=0.01"),
    ("torus", "linkflap:rate=0.05:seed=3:horizon=0.01:down=0.5"),
    ("hypercube", "churn:nodes=0.2:seed=5:horizon=0.01"),
    ("hypercube", "linkflap:rate=0.05:seed=3:horizon=0.01:down=0.5"),
]


class TestEngineEquivalenceUnderFailures:
    """Satellite: every failure schedule must run field-identical through
    the pure-Python loop and the C kernel -- including the availability
    counters (both engines resolve each (src, dst) pair exactly once per
    failure epoch)."""

    @staticmethod
    def _run(topology, failures, strategy):
        from repro.network.topology import make_topology
        from repro.workloads import get_workload

        wl = get_workload("zipf")
        res = wl.run(
            make_topology(topology, 4), strategy, seed=1,
            params={"n_vars": 16, "ops": 24, "alpha": 0.8, "read_frac": 0.8},
            failures=failures,
        )
        s = res.stats
        return (
            res.time, s.total_bytes, s.total_msgs, s.congestion_bytes,
            s.congestion_msgs, s.max_startups, s.total_startups,
            s.data_msgs, s.ctrl_msgs, s.local_msgs,
            res.requests_failed, res.requests_stalled, res.requests_retried,
            res.repairs, res.failure_events,
        )

    @pytest.mark.parametrize("topology,failures", FAILURE_FIXTURES,
                             ids=[f"{t}-{f.split(':', 1)[0]}-{i}"
                                  for i, (t, f) in enumerate(FAILURE_FIXTURES)])
    @pytest.mark.parametrize("strategy", ["fixed-home", "4-ary", "migratory"])
    def test_kernel_matches_pure_under_failures(self, monkeypatch, topology,
                                                failures, strategy):
        from repro.sim import _ckern

        if _ckern.load_kernel() is None:
            pytest.skip("C kernel unavailable; only the pure engine runs here")
        kernel_fields = self._run(topology, failures, strategy)
        assert kernel_fields[-1] > 0  # the schedule actually fired
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure_fields = self._run(topology, failures, strategy)
        assert kernel_fields == pure_fields  # exact equality, field by field
