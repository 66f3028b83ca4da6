"""The fixed-home directory flows compiled into the kernel, against Python.

``FixedHomeStrategy`` declares the directory static flow, so the C kernel
replays its read miss (``reader -> home [-> owner]`` and back) and its
invalidating write (request, star of invalidations from the home, grant)
itself.  These tests hold that replay to the unchanged Python
``read``/``write`` -- served by the session's own rings (``mode:
classic``) on the C kernel and on the pure engine -- on every simulated
quantity, the recorded trace and the copy sets and owners the strategy
is handed back when the session closes.
"""

import pytest

from repro.core.fixed_home import HOME, FixedHomeStrategy
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

TOPOLOGIES = ["mesh", "torus", "hypercube"]
READ_FRACS = [0.0, 0.1, 0.5, 0.9]


def outcome(sess, report):
    """Everything a dispatch path may not change: the report's simulated
    fields, the write counters, the trace and the final copy sets and
    owners."""
    strat = sess.rt.strategy
    fields = {k: getattr(report, k) for k in FINGERPRINT}
    fields["write_local"] = strat.write_local
    fields["write_remote"] = strat.write_remote
    placement = {}
    for vid in range(len(sess.rt.registry)):
        var = sess.rt.registry.by_id(vid)
        placement[vid] = (sorted(strat.copy_procs(var)), strat.owner_of(var))
    return fields, sess.trace().ops, placement


def serve(topology, read_frac, fast, strategy="fixed-home"):
    """A seeded load on few variables (contention on one directory), a
    window smaller than the epoch (backpressure) and one pump per epoch
    (horizon slicing)."""
    sess = ServeSession(make_topology(topology, 4), strategy, seed=0,
                        fast=fast, max_inflight=24)
    report = run_loadgen(
        sess, workload="zipf",
        params={"n_vars": 5, "alpha": 0.6, "payload": 96,
                "read_frac": read_frac},
        arrival="poisson", rate=40000.0, requests=400, seed=11, chunk=40,
    )
    return sess, report


class TestDifferentialSweep:
    @pytest.mark.parametrize("read_frac", READ_FRACS)
    @pytest.mark.parametrize("topology", TOPOLOGIES)
    def test_three_paths_agree(self, monkeypatch, topology, read_frac):
        sess, report = serve(topology, read_frac, fast=True)
        how = report.extra["dispatch"]
        assert (how["mode"], how["flow"]) == ("fast", "directory")
        assert {k: how[k] for k in NATIVE_ONLY} == NATIVE_ONLY
        assert how["native_reads"] + how["native_writes"] == 400
        fast = outcome(sess, report)
        assert fast[0]["write_remote"] > 0
        classic = outcome(*serve(topology, read_frac, fast=False))
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure = outcome(*serve(topology, read_frac, fast=None))
        assert fast == classic
        assert classic == pure

    def test_the_sweep_meets_every_flow_shape(self, monkeypatch):
        """The shapes the Python path handles without a branch and the
        native one has to get right all occur in the loads above -- but
        for the empty star: a non-owner holding the only copy is main
        memory's copy at the home with nobody else caching, and a read
        miss (the one way ownership returns to the home) always leaves
        the reader's or the old owner's copy next to it.  Only a failure
        repair gets there; ``TestFlowShapes`` builds it by hand."""
        seen = set()
        py_miss = FixedHomeStrategy._read_miss_flow
        py_write = FixedHomeStrategy.write

        def miss(self, st, proc, var, t, replicate):
            seen.add(("miss", "reader is the home" if proc == st.home else
                      "owner at the home" if st.owner == st.home else
                      "owner is HOME" if st.owner == HOME else "three hosts"))
            return py_miss(self, st, proc, var, t, replicate)

        def write(self, proc, var, value, t):
            st = self._states[var.vid]
            if st.owner != proc:
                holders = st.copies - {proc}
                if proc == st.home:
                    seen.add(("write", "writer is the home"))
                if st.home in holders:
                    seen.add(("write", "a holder at the home"))
                if not holders:
                    seen.add(("write", "no holders"))
                if proc in st.copies:
                    seen.add(("write", "writer holds a non-owner copy"))
                if st.owner == HOME:
                    seen.add(("write", "owner is HOME"))
            return py_write(self, proc, var, value, t)

        monkeypatch.setattr(FixedHomeStrategy, "_read_miss_flow", miss)
        monkeypatch.setattr(FixedHomeStrategy, "write", write)
        for topology in TOPOLOGIES:
            for read_frac in READ_FRACS:
                serve(topology, read_frac, fast=False)
        assert seen == {
            ("miss", "reader is the home"), ("miss", "owner at the home"),
            ("miss", "owner is HOME"), ("miss", "three hosts"),
            ("write", "writer is the home"), ("write", "a holder at the home"),
            ("write", "writer holds a non-owner copy"),
            ("write", "owner is HOME"),
        }


class TestDynrepOracle:
    """``dynrep`` declares the hit path and the owner-write rule only, so
    its misses and remote writes cross; at ``threshold=1`` it *is* fixed
    home: the crossing path and the native one must tell the same story."""

    @pytest.mark.parametrize("read_frac", [0.1, 0.5, 0.9])
    def test_threshold_one_crossing_equals_fixed_home_native(self, read_frac):
        home_sess, home_report = serve("mesh", read_frac, fast=True)
        sess, report = serve("mesh", read_frac, fast=True,
                             strategy="dynrep:threshold=1")
        how = report.extra["dispatch"]
        strat = sess.rt.strategy
        assert (how["mode"], how["flow"]) == ("fast", None)
        assert how["crossed_reads"] == strat.misses > 0
        assert how["crossed_writes"] == strat.write_remote > 0
        assert home_report.extra["dispatch"]["crossed_reads"] == 0
        assert outcome(sess, report) == outcome(home_sess, home_report)

    def test_threshold_two_still_crosses_and_says_so(self):
        sess, report = serve("mesh", 0.5, fast=True,
                             strategy="dynrep:threshold=2")
        how = report.extra["dispatch"]
        strat = sess.rt.strategy
        assert (how["mode"], how["flow"]) == ("fast", None)
        assert how["crossed_reads"] == strat.misses > 0
        assert how["crossed_writes"] == strat.write_remote > 0
        assert how["native_reads"] == strat.hits
        assert how["native_writes"] == strat.write_local
        assert outcome(sess, report) == outcome(
            *serve("mesh", 0.5, fast=False, strategy="dynrep:threshold=2"))


class TestFlowShapes:
    """One write of each shape on a 4x4 mesh; the variable is created at
    processor 0, ``readers`` spread copies first."""

    def write(self, fast, readers, writer):
        sess = ServeSession(Mesh2D(4, 4), "fixed-home", seed=0, fast=fast)
        vid = sess.create(0, 128)
        for p in readers:
            sess.submit("r", p, vid)
        sess.pump()
        snap = sess.snapshot()
        assert snap["dispatch"].get("flow") == ("directory" if fast else None)
        before = snap["total_msgs"]
        sess.submit("w", writer, vid)
        sess.pump()
        msgs = sess.snapshot()["total_msgs"] - before
        report = sess.close()
        return sess, report, msgs

    def check(self, readers, writer):
        sess, report, msgs = self.write(True, readers, writer)
        how = report.extra["dispatch"]
        assert {k: how[k] for k in NATIVE_ONLY} == NATIVE_ONLY
        assert how["native_writes"] == 1
        ref, ref_report, ref_msgs = self.write(False, readers, writer)
        assert outcome(sess, report) == outcome(ref, ref_report)
        assert msgs == ref_msgs
        strat = sess.rt.strategy
        var = sess.rt.registry.by_id(0)
        assert strat.copy_procs(var) == {writer}
        assert strat.owner_of(var) == writer
        return strat, msgs, strat.home_of(0)

    def test_owner_write_completes_in_place(self):
        strat, msgs, _ = self.check(readers=[], writer=0)
        assert (strat.write_local, strat.write_remote) == (1, 0)
        assert msgs == 0

    def test_general_write_invalidates_every_other_copy(self):
        # copies before the write: creator 0, the home, readers 5 and 10
        strat, msgs, home = self.check(readers=[5, 10], writer=15)
        assert home not in (0, 5, 10, 15)
        assert (strat.write_local, strat.write_remote) == (0, 1)
        assert msgs == 2 + 2 * 4       # request + grant, invalidation + ack each

    def test_writer_holding_a_copy_is_not_invalidated(self):
        strat, msgs, _ = self.check(readers=[5, 10], writer=5)
        assert msgs == 2 + 2 * 3

    def test_writer_at_the_home_still_sends_its_two_legs(self):
        home = self.check(readers=[], writer=0)[2]
        strat, msgs, _ = self.check(readers=[5], writer=home)
        assert msgs == 2 + 2 * 2       # local request/grant; copies at 0 and 5

    def test_no_holders_is_request_then_grant(self):
        """Main memory holds the sole copy and the home writes: the star
        is empty, the grant follows the request with no invalidation in
        between.  Requests alone never reach this state (see the sweep),
        so it is placed on the strategy before the session arms."""

        def run(fast):
            sess = ServeSession(Mesh2D(4, 4), "fixed-home", seed=0, fast=fast)
            vid = sess.create(0, 128)
            strat = sess.rt.strategy
            home = strat.home_of(vid)
            strat.adopt(vid, {home}, HOME)
            sess.submit("w", home, vid)
            report = sess.close()
            return sess, report, home

        sess, report, home = run(True)
        assert report.total_msgs == 2
        assert report.extra["dispatch"]["native_writes"] == 1
        strat = sess.rt.strategy
        assert (strat.write_local, strat.write_remote) == (0, 1)
        var = sess.rt.registry.by_id(0)
        assert strat.copy_procs(var) == {home} and strat.owner_of(var) == home
        assert outcome(sess, report) == outcome(*run(False)[:2])


def test_write_overtakes_inflight_native_read_misses(monkeypatch):
    """Reads from three corners are still in flight (their chains
    compiled, their copies placed) when a write to the same variable
    starts: the invalidation must cover exactly the copies those misses
    placed, on all three paths."""

    def run(fast):
        sess = ServeSession(Mesh2D(4, 4), "fixed-home", seed=0, fast=fast)
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
    how = report.extra["dispatch"]
    assert (how["native_reads"], how["native_writes"]) == (4, 2)
    assert {k: how[k] for k in NATIVE_ONLY} == NATIVE_ONLY
    fast = outcome(sess, report)
    classic = outcome(*run(False))
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure = outcome(*run(None))
    assert fast == classic == pure


def test_the_home_reading_from_a_remote_owner_counts_its_copy_twice():
    """Known quirk, replayed, not fixed: ``_read_miss_flow`` accounts
    ``+payload`` for the home's new copy and again for "the reader's"
    when the reader *is* the home.  The native flow carries the same
    double delta (the pinned ``storage_cost`` fingerprints include it)."""

    def run(fast):
        sess = ServeSession(Mesh2D(4, 4), "fixed-home", seed=0, fast=fast)
        vid = sess.create(0, 128)
        sess.submit("r", sess.rt.strategy.home_of(vid), vid)
        report = sess.close()
        return sess, report

    sess, report = run(True)
    strat = sess.rt.strategy
    assert len(strat.copy_procs(sess.rt.registry.by_id(0))) == 2
    assert strat._sc_excess == 2 * 128.0          # one new member, two deltas
    assert outcome(sess, report) == outcome(*run(False))


def test_closed_fast_session_hands_the_strategy_back():
    """After ``close()`` the strategy owns its state again: copy sets and
    owners as the native flows left them, and a storage accumulator that
    accrues on the strategy, not in the kernel."""

    def run(fast):
        sess = ServeSession(Mesh2D(4, 4), "fixed-home", seed=0, fast=fast)
        a, b = sess.create(0, 128), sess.create(3, 128)
        sess.submit("r", 15, a)
        sess.submit("r", 9, b)
        sess.submit("w", 12, b)
        report = sess.close()
        return sess, report

    sess, report = run(True)
    ref, ref_report = run(False)
    strat = sess.rt.strategy
    a, b = (sess.rt.registry.by_id(vid) for vid in (0, 1))
    assert strat.copy_procs(a) == {0, 15, strat.home_of(0)}
    assert strat.owner_of(a) == HOME
    assert strat.copy_procs(b) == {12} and strat.owner_of(b) == 12
    assert outcome(sess, report) == outcome(ref, ref_report)
    assert strat.storage_cost(report.sim_time) == report.storage_cost
    excess = strat._sc_excess
    assert excess == ref.rt.strategy._sc_excess
    strat._storage_delta(128.0, report.sim_time)   # accrues on the strategy
    assert strat._sc_excess == excess + 128.0
