"""LinkStats accounting tests."""

import numpy as np
import pytest

from repro.network.mesh import Mesh2D
from repro.network.routing import route_links
from repro.network.stats import LinkStats


def make():
    m = Mesh2D(3, 3)
    return m, LinkStats(m)


class TestRecord:
    def test_congestion_is_max_over_links(self):
        m, s = make()
        path1 = route_links(m, 0, 2)  # two east links in row 0
        s.record(path1, 100, 0, 2, True)
        s.record(path1[:1], 50, 0, 1, True)
        assert s.congestion_bytes == 150
        assert s.congestion_msgs == 2
        assert s.total_bytes == 100 * 2 + 50

    def test_local_message_counts_no_link(self):
        m, s = make()
        s.record((), 100, 4, 4, True)
        assert s.congestion_bytes == 0
        assert s.local_msgs == 1
        assert s.total_msgs == 1
        assert s.startups[4] == 1
        assert s.receives[4] == 1

    def test_data_vs_ctrl_counts(self):
        m, s = make()
        s.record(route_links(m, 0, 1), 10, 0, 1, True)
        s.record(route_links(m, 0, 1), 10, 0, 1, False)
        assert s.data_msgs == 1
        assert s.ctrl_msgs == 1

    def test_startups_per_processor(self):
        m, s = make()
        for _ in range(3):
            s.record(route_links(m, 0, 1), 1, 0, 1, False)
        s.record(route_links(m, 1, 0), 1, 1, 0, False)
        snap = s.snapshot()
        assert snap.max_startups == 3
        assert snap.total_startups == 4

    def test_hottest_links(self):
        m, s = make()
        s.record(route_links(m, 0, 2), 500, 0, 2, True)
        top = s.hottest_links(1)[0]
        assert top[3] == 500

    def test_empty_stats(self):
        m, s = make()
        snap = s.snapshot()
        assert snap.congestion_bytes == 0
        assert snap.total_msgs == 0


class TestTwoAccumulatorsOneBoundary:
    """A phase is its own accumulator: what is recorded after the boundary
    lands in the second one, and nothing of the first leaks into it."""

    def test_second_accumulator_isolates_interval(self):
        m, before = make()
        before.record(route_links(m, 0, 2), 100, 0, 2, True)
        after = LinkStats(m)  # the boundary
        after.record(route_links(m, 0, 2), 40, 0, 2, False)
        d = after.snapshot()
        assert d.total_msgs == 1
        assert d.ctrl_msgs == 1
        assert d.data_msgs == 0
        assert d.congestion_bytes == 40
        assert before.snapshot().congestion_bytes == 100

    def test_nothing_after_the_boundary(self):
        m, before = make()
        before.record(route_links(m, 0, 2), 100, 0, 2, True)
        d = LinkStats(m).snapshot()
        assert d.total_bytes == 0
        assert d.max_startups == 0

    def test_snapshot_as_dict(self):
        m, s = make()
        d = s.snapshot().as_dict()
        assert "congestion_bytes" in d and "total_msgs" in d


# A fixed leg script: remote data, remote ctrl, local (no links), and a
# repeat of a hot route so some links accumulate more than once.
TOPO = Mesh2D(4, 4)
LEGS = [
    (route_links(TOPO, 0, 15), 1000.0, 0, 15, True),
    (route_links(TOPO, 15, 0), 64.0, 15, 0, False),
    ((), 400.0, 5, 5, True),
    (route_links(TOPO, 0, 15), 1000.0, 0, 15, True),
    (route_links(TOPO, 3, 12), 256.0, 3, 12, True),
]


def record_script(legs, flush_every=None):
    st = LinkStats(TOPO)
    for i, leg in enumerate(legs):
        st.record(*leg)
        if flush_every and (i + 1) % flush_every == 0:
            st._flush()
    return st


def assert_equivalent(a: LinkStats, b: LinkStats):
    assert a.snapshot() == b.snapshot()
    np.testing.assert_array_equal(a.link_bytes, b.link_bytes)
    np.testing.assert_array_equal(a.link_msgs, b.link_msgs)
    np.testing.assert_array_equal(a.startups, b.startups)
    np.testing.assert_array_equal(a.receives, b.receives)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert a.hottest_links() == b.hottest_links()
    assert a.render_link_table() == b.render_link_table()


class TestMergeState:
    """``merge_state`` (the fleet's merge, and how a run's phase
    accumulators become its total) must equal recording every leg into
    one accumulator, whatever the split, the order and the fold cadence."""

    @pytest.mark.parametrize("flush_every", [None, 1, 2])
    def test_fold_cadence_is_invisible(self, flush_every):
        assert_equivalent(record_script(LEGS, flush_every), record_script(LEGS))

    @pytest.mark.parametrize("cut", range(len(LEGS) + 1))
    @pytest.mark.parametrize("swap", [False, True], ids=["a-then-b", "b-then-a"])
    def test_merge_equals_single_accumulation(self, cut, swap):
        shards = [record_script(LEGS[:cut]), record_script(LEGS[cut:])]
        if swap:
            shards.reverse()
        total = LinkStats(TOPO)
        for shard in shards:
            total.merge_state(shard.state())
        assert_equivalent(total, record_script(LEGS))

    def test_merge_into_a_used_accumulator(self):
        target = record_script(LEGS[:2])
        target.merge_state(record_script(LEGS[2:]).state())
        assert_equivalent(target, record_script(LEGS))

    def test_state_ships_only_touched_links(self):
        state = record_script(LEGS).state()
        assert 0 < len(state["ids"]) < TOPO.n_links
        assert len(state["ids"]) == len(state["bytes"]) == len(state["msgs"])

    def test_mismatched_topologies_rejected(self):
        with pytest.raises(ValueError, match="link count"):
            LinkStats(TOPO).merge_state(LinkStats(Mesh2D(3, 3)).state())
