"""The access-tree write compiled into the kernel, against the Python one.

With a static flow (no remapping) the C kernel replays
``AccessTreeStrategy.write`` itself: request chain to the nearest copy
holder, invalidation multicast over the copy component, reply chain
back.  These tests hold that replay to the unchanged Python write --
served by the session's own rings (``mode: classic``) on the C kernel
and on the pure engine -- on every simulated quantity, the recorded
trace and the copy sets the strategy is handed back when the session
closes.
"""

import pytest

from repro.network.mesh import Mesh2D
from repro.network.topology import make_topology
from repro.serve import ServeSession, run_loadgen
from repro.sim import _ckern
from repro.sim.engine import Simulator

pytestmark = pytest.mark.skipif(
    _ckern.load_kernel() is None,
    reason="C kernel unavailable; only the pure engine runs here",
)

FINGERPRINT = ("requests", "sim_time", "total_msgs", "total_bytes",
               "congestion_bytes", "congestion_msgs", "hits", "misses",
               "latency_p50", "latency_p95", "latency_p99", "storage_cost")

NATIVE_ONLY = {"crossed_reads": 0, "crossed_writes": 0, "native_fallbacks": 0}


def outcome(sess, report):
    """Everything a dispatch path may not change: the report's simulated
    fields, the write counters, the trace and the final copy sets."""
    strat = sess.rt.strategy
    fields = {k: getattr(report, k) for k in FINGERPRINT}
    fields["write_local"] = strat.write_local
    fields["write_remote"] = strat.write_remote
    copies = {}
    for vid in range(len(sess.rt.registry)):
        _, nodes, top = strat.residency(vid)
        copies[vid] = (sorted(nodes), top)
    return fields, sess.trace().ops, copies


def assert_components_connected(sess):
    """Every copy set is a connected tree component whose ``top`` is its
    unique minimum-depth node (so every other member's parent is a
    member too)."""
    strat = sess.rt.strategy
    parent, depth = strat.tree.parent, strat.tree.depth
    for vid in range(len(sess.rt.registry)):
        _, nodes, top = strat.residency(vid)
        assert top in nodes
        for n in nodes:
            if n != top:
                assert parent[n] in nodes, (vid, n, sorted(nodes))
                assert depth[n] > depth[top]


class TestDifferentialSweep:
    """Seeded loads on few variables (contention on one component), a
    window smaller than the epoch (backpressure) and one pump per epoch
    (horizon slicing): kernel rings == session rings on C == session rings
on pure."""

    def serve(self, topology, arity, read_frac, fast):
        sess = ServeSession(make_topology(topology, 4), arity, seed=0,
                            fast=fast, max_inflight=24)
        report = run_loadgen(
            sess, workload="zipf",
            params={"n_vars": 5, "alpha": 0.6, "payload": 96,
                    "read_frac": read_frac},
            arrival="poisson", rate=40000.0, requests=400, seed=11, chunk=40,
        )
        return sess, report

    @pytest.mark.parametrize("read_frac", [0.0, 0.1, 0.5, 0.9])
    @pytest.mark.parametrize("topology", ["mesh", "torus", "hypercube"])
    @pytest.mark.parametrize("arity", ["2-ary", "4-ary", "16-ary", "2-4-ary"])
    def test_three_paths_agree(self, monkeypatch, arity, topology, read_frac):
        sess, report = self.serve(topology, arity, read_frac, fast=True)
        how = report.extra["dispatch"]
        assert (how["mode"], how["flow"]) == ("fast", "tree")
        assert {k: how[k] for k in NATIVE_ONLY} == NATIVE_ONLY
        assert how["native_reads"] + how["native_writes"] == 400
        assert_components_connected(sess)
        fast = outcome(sess, report)
        assert fast[0]["write_remote"] > 0
        classic = outcome(*self.serve(topology, arity, read_frac, fast=False))
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure = outcome(*self.serve(topology, arity, read_frac, fast=None))
        assert fast == classic
        assert classic == pure


class TestFlowShapes:
    """One write of each shape on a 4x4 mesh, 4-ary tree: the variable
    lives at processor 0, ``readers`` spread copies first."""

    def write(self, fast, readers, writer):
        sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0, fast=fast)
        vid = sess.create(0, 128)
        for p in readers:
            sess.submit("r", p, vid)
        sess.pump()
        before = sess.snapshot()["total_msgs"]
        # (a fast session hands the copy sets back only when it closes)
        component = len(sess.rt.strategy.residency(vid)[1]) if not fast else None
        sess.submit("w", writer, vid)
        sess.pump()
        msgs = sess.snapshot()["total_msgs"] - before
        report = sess.close()
        return sess, report, msgs, component

    def check(self, readers, writer):
        sess, report, msgs, _ = self.write(True, readers, writer)
        how = report.extra["dispatch"]
        assert {k: how[k] for k in NATIVE_ONLY} == NATIVE_ONLY
        assert how["native_writes"] == 1
        ref, ref_report, ref_msgs, component = self.write(False, readers, writer)
        assert outcome(sess, report) == outcome(ref, ref_report)
        assert msgs == ref_msgs
        path = len(sess.rt.strategy.residency(0)[1])  # copies now: u .. writer
        return sess.rt.strategy, msgs, path, component

    def test_single_writer_at_the_root_multicasts_only(self):
        strat, msgs, path, component = self.check(readers=[5, 10], writer=0)
        assert (strat.write_local, strat.write_remote) == (0, 1)
        assert path == 1
        assert msgs == 2 * (component - 1)   # one invalidation + ack per edge

    def test_sole_remote_holder_has_no_multicast(self):
        strat, msgs, path, component = self.check(readers=[], writer=15)
        assert (strat.write_local, strat.write_remote) == (0, 1)
        assert component == 1
        assert msgs == 2 * (path - 1)        # request chain + reply chain

    def test_general_write_runs_all_three_stages(self):
        strat, msgs, path, component = self.check(readers=[5, 10], writer=15)
        assert (strat.write_local, strat.write_remote) == (0, 1)
        assert path > 1 and component > 1
        assert msgs == 2 * (path - 1) + 2 * (component - 1)

    def test_local_sole_copy_write_completes_in_place(self):
        strat, msgs, path, component = self.check(readers=[], writer=0)
        assert (strat.write_local, strat.write_remote) == (1, 0)
        assert msgs == 0 and path == 1


def test_write_overtakes_inflight_native_read_misses(monkeypatch):
    """Reads from three corners are still in flight (their chains
    compiled, their copies placed) when a write to the same variable
    starts: the invalidation must cover exactly the copies those misses
    placed, on all three paths."""

    def run(fast):
        sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0, fast=fast)
        vid = sess.create(0, 128)
        for i, p in enumerate((15, 12, 3)):
            sess.submit("r", p, vid, arrival=i * 1e-7)
        sess.submit("w", 9, vid, arrival=4e-7)
        sess.submit("r", 15, vid, arrival=5e-7)
        sess.submit("w", 15, vid, arrival=6e-7)
        report = sess.close()
        return sess, report

    sess, report = run(True)
    # the write started before the first read completed
    assert report.latency_p50 > 6e-7
    assert report.extra["dispatch"]["native_writes"] == 2
    assert_components_connected(sess)
    fast = outcome(sess, report)
    classic = outcome(*run(False))
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure = outcome(*run(None))
    assert fast == classic == pure


def test_remap_still_crosses_and_says_so():
    """``remap=N`` moves hosts, so the flows are not static: misses and
    remote writes run the Python strategy, counted as crossings."""

    def run(fast):
        sess = ServeSession(Mesh2D(4, 4), "tree:4:remap=3", seed=0, fast=fast,
                            max_inflight=24)
        report = run_loadgen(
            sess, workload="zipf",
            params={"n_vars": 5, "alpha": 0.6, "payload": 96, "read_frac": 0.5},
            arrival="poisson", rate=40000.0, requests=400, seed=11, chunk=40,
        )
        return sess, report

    sess, report = run(True)
    how = report.extra["dispatch"]
    strat = sess.rt.strategy
    assert (how["mode"], how["flow"]) == ("fast", None)
    assert how["crossed_writes"] == strat.write_remote > 0
    assert how["crossed_reads"] == strat.misses > 0
    assert how["native_writes"] == strat.write_local
    assert how["native_reads"] == strat.hits
    assert how["native_fallbacks"] == 0
    assert outcome(sess, report) == outcome(*run(False))


def test_closed_fast_session_hands_the_strategy_back():
    """After ``close()`` the strategy owns its state again: copy sets as
    the native flows left them, and a storage accumulator that accrues on
    the strategy, not in the kernel."""
    sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0, fast=True)
    vid = sess.create(0, 128)
    sess.submit("r", 15, vid)
    report = sess.close()
    strat = sess.rt.strategy
    var = sess.rt.registry.by_id(vid)
    assert len(strat.copy_nodes(var)) > 1          # the miss's copies
    assert {0, 15} <= strat.copy_procs(var)
    assert strat.storage_cost(report.sim_time) == report.storage_cost
    excess = strat._sc_excess
    strat._storage_delta(128.0, report.sim_time)   # accrues on the strategy
    assert strat._sc_excess == excess + 128.0
