"""Served-run determinism: trace replay and engine equivalence.

The serving tentpole's correctness anchor: a served run recorded through
the trace layer replays **bit-identically** in batch mode -- same end
time, same hit counters, same traffic totals -- because micro-batching
bounds engine run-ahead to the arrival horizon and idle gaps are recorded
as think-time ops.  And the C kernel serves the same stream the pure
loop does, field for field.
"""

import pytest

from repro.network.mesh import Mesh2D
from repro.network.torus import Torus2D
from repro.serve import ServeSession, run_loadgen
from repro.sim.engine import Simulator
from repro.workloads.trace import replay

PARAMS = {"n_vars": 24, "alpha": 0.8, "read_frac": 0.85}


def serve_small(topology, strategy, *, requests=300, seed=3, rate=4000.0):
    sess = ServeSession(topology, strategy, seed=0)
    report = run_loadgen(
        sess, workload="zipf", params=PARAMS, rate=rate,
        requests=requests, seed=seed, chunk=64,
    )
    return sess, report


def assert_replay_matches(sess, report):
    res = replay(sess.trace())
    assert res.time == report.sim_time            # exact, not approx
    assert res.hits == report.hits
    assert res.misses == report.misses
    assert res.stats.total_msgs == report.total_msgs
    assert res.stats.total_bytes == report.total_bytes
    assert res.stats.congestion_bytes == report.congestion_bytes
    assert res.stats.congestion_msgs == report.congestion_msgs


class TestServedTraceReplay:
    @pytest.mark.parametrize("strategy", [
        "4-ary", "fixed-home", "migratory", "dynrep:threshold=2",
    ])
    def test_served_stream_replays_bit_identically(self, strategy):
        sess, report = serve_small(Mesh2D(4, 4), strategy)
        assert report.requests == 300
        assert_replay_matches(sess, report)

    def test_replay_on_torus(self):
        sess, report = serve_small(Torus2D(4, 4), "4-ary")
        assert_replay_matches(sess, report)

    def test_trace_round_trips_through_disk(self, tmp_path):
        sess, report = serve_small(Mesh2D(4, 4), "4-ary", requests=120)
        path = tmp_path / "served.trace.json"
        sess.trace(params=report.extra).save(path)
        res = replay(path)
        assert res.time == report.sim_time
        assert res.stats.total_msgs == report.total_msgs

    def test_record_false_refuses_trace(self):
        sess = ServeSession(Mesh2D(2, 2), "4-ary", record=False)
        sess.create(0)
        sess.submit("r", 1, 0)
        sess.close()
        with pytest.raises(RuntimeError, match="record=False"):
            sess.trace()


class TestMicroBatchingInvariance:
    def test_horizon_sliced_pump_equals_single_drain(self):
        """Serving the identical stream epoch by epoch (bounded run-ahead)
        or in one unbounded drain must produce the same timeline."""

        def drive(sliced):
            sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0)
            for vid in range(8):
                sess.create(vid % 16, 128)
            for i in range(200):
                sess.submit("w" if i % 5 == 0 else "r", (3 * i) % 16,
                            i % 8, arrival=i * 2e-4)
                if sliced and i % 20 == 19:
                    sess.pump(until=i * 2e-4)
            rep = sess.close()
            return rep, sess.trace().ops

        rep_a, ops_a = drive(sliced=True)
        rep_b, ops_b = drive(sliced=False)
        assert rep_a.sim_time == rep_b.sim_time
        assert (rep_a.hits, rep_a.misses) == (rep_b.hits, rep_b.misses)
        assert rep_a.total_msgs == rep_b.total_msgs
        assert rep_a.total_bytes == rep_b.total_bytes
        assert ops_a == ops_b


class TestEngineEquivalence:
    def test_kernel_serves_identically_to_pure_python(self, monkeypatch):
        from repro.sim import _ckern

        if _ckern.load_kernel() is None:
            pytest.skip("C kernel unavailable; only the pure engine runs here")

        def run():
            sess, report = serve_small(Mesh2D(4, 4), "4-ary", requests=250)
            d = report.as_dict()
            # Wall-clock fields are host noise, engine label and dispatch
            # path differ by construction; every simulated quantity must
            # match exactly.
            for key in ("engine", "wall_seconds", "requests_per_sec",
                        "wall_p50", "wall_p95", "wall_p99"):
                d.pop(key)
            return d, d["extra"].pop("dispatch"), sess.trace().ops

        kernel_fields, kernel_dispatch, kernel_ops = run()
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure_fields, pure_dispatch, pure_ops = run()
        assert kernel_fields == pure_fields  # exact equality, field by field
        assert kernel_ops == pure_ops
        assert kernel_dispatch["mode"] == "fast"
        assert pure_dispatch["mode"] == "classic"
        assert "no C kernel" in pure_dispatch["reason"]


#: The simulated quantities of a report (the benchmark suite's fingerprint).
FINGERPRINT = ("sim_time", "total_msgs", "total_bytes", "congestion_bytes",
               "congestion_msgs", "hits", "misses", "latency_p50",
               "latency_p95", "latency_p99", "storage_cost")


class TestBackpressureEquivalence:
    """``chunk == max_inflight``: every epoch fills the in-flight window,
    so requests are deferred past their arrival and re-issued "now".  The
    three dispatch paths must clamp to the same clock (the last event the
    engine popped); before that was pinned, fast and classic drifted apart
    past ~8k requests by a few messages and in ``storage_cost``."""

    MIX = {"n_vars": 512, "alpha": 0.9, "payload": 256}

    def serve(self, strategy, read_frac, rate, fast, *, side=8, window=8192,
              requests=20_000):
        sess = ServeSession(Mesh2D(side, side), strategy, seed=0, fast=fast,
                            max_inflight=window)
        report = run_loadgen(
            sess, workload="zipf", params={**self.MIX, "read_frac": read_frac},
            arrival="poisson", rate=rate, requests=requests, seed=0,
            chunk=window,
        )
        fields = {k: getattr(report, k) for k in FINGERPRINT}
        return fields, report.extra["dispatch"], sess.trace().ops

    @pytest.fixture(autouse=True)
    def _needs_kernel(self):
        from repro.sim import _ckern

        if _ckern.load_kernel() is None:
            pytest.skip("C kernel unavailable; only the pure engine runs here")

    @pytest.mark.parametrize("strategy,read_frac,rate", [
        ("4-ary", 0.5, 5000.0),
        ("4-ary", 0.9, 9000.0),
        ("fixed-home", 0.9, 9000.0),
    ])
    def test_fast_classic_and_pure_agree_under_backpressure(
            self, monkeypatch, strategy, read_frac, rate):
        fast, how, _ = self.serve(strategy, read_frac, rate, fast=True)
        assert how["mode"] == "fast"
        classic, how, _ = self.serve(strategy, read_frac, rate, fast=False)
        assert how == {"mode": "classic", "reason": "fast=False was requested"}
        monkeypatch.setattr(Simulator, "force_pure", True)
        pure, how, _ = self.serve(strategy, read_frac, rate, fast=None)
        assert how["mode"] == "classic"
        assert fast == classic   # exact equality, storage_cost included
        assert classic == pure

    @pytest.mark.parametrize("strategy", [
        "16-ary", "2-4-ary", "tree:4-8:embed=random", "tree:4:remap=3",
        "migratory", "dynrep:threshold=2", "adaptive",
    ])
    def test_every_declared_mirror_matches_the_classic_path(self, strategy):
        """Each family's declaration (static flow or not, native reads or
        not) must leave report *and* recorded trace unchanged."""
        small = dict(side=4, window=256, requests=4000)
        fast, how, fast_ops = self.serve(strategy, 0.7, 30000.0, True, **small)
        assert how["mode"] == "fast"
        classic, _, classic_ops = self.serve(strategy, 0.7, 30000.0, False, **small)
        assert fast == classic
        assert fast_ops == classic_ops


@pytest.mark.parametrize("fast", [None, False])
@pytest.mark.parametrize("strategy", ["4-ary", "fixed-home", "dynrep:threshold=2"])
def test_variables_created_between_epochs_replay_exactly(strategy, fast):
    """Replay hoists creates, so a session may create a variable after it
    served requests -- on either rings -- and the trace still replays
    bit-identically."""
    sess = ServeSession(Mesh2D(4, 4), strategy, seed=0, fast=fast)
    vids = [sess.create(0, 128)]
    t = 0.0
    for epoch in range(6):
        for i in range(40):
            t += 5e-5
            sess.submit("w" if i % 5 == 0 else "r", (7 * i + epoch) % 16,
                        vids[(i + epoch) % len(vids)], arrival=t)
        sess.pump(until=t)
        vids.append(sess.create((5 * epoch + 3) % 16, 96 + 32 * epoch))
    report = sess.close()
    assert report.requests == 240 and report.created == 7
    res = replay(sess.trace())
    assert res.end_time == report.sim_time
    assert res.stats.total_msgs == report.total_msgs
    assert res.hits == report.hits


@pytest.mark.parametrize("strategy", ["4-ary", "fixed-home"])
@pytest.mark.parametrize("failures", ["churn:nodes=0.2:seed=3:horizon=0.01",
                                      "linkflap:rate=0.2:seed=3:horizon=0.01"])
def test_a_failure_schedule_serves_identically_on_both_engines(monkeypatch, strategy, failures):
    """Under a failure schedule the kernel's rings are refused (native
    flows bypass the failure view), so the session's rings serve on both
    engines; the failures land inside the served window."""
    from repro.sim import _ckern

    def run():
        sess = ServeSession(Mesh2D(4, 4), strategy, seed=0, failures=failures)
        report = run_loadgen(sess, workload="zipf", params=PARAMS, rate=20000.0,
                             requests=400, seed=3, chunk=64)
        assert report.accepted + report.rejected == 400
        assert report.requests == report.accepted == 400
        assert sess.rt._failview.events_applied > 0
        return {k: getattr(report, k) for k in FINGERPRINT}, report.extra["dispatch"]

    fields, how = run()
    assert how["mode"] == "classic"
    if _ckern.load_kernel() is None:
        assert "no C kernel" in how["reason"]
        return
    assert "failure schedule" in how["reason"]
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure, _ = run()
    assert fields == pure


@pytest.mark.parametrize("engine", ["ckern", "pure"])
@pytest.mark.parametrize("strategy", ["4-ary", "fixed-home"])
@pytest.mark.parametrize("failures", ["churn:nodes=0.2:seed=3:horizon=0.01",
                                      "linkflap:rate=0.2:seed=3:horizon=0.01"])
def test_served_availability_equals_the_batch_replays(monkeypatch, engine, strategy, failures):
    """A served run reports the availability counters a batch run does:
    replaying its trace under the same schedule counts the same route
    failures and detours, repairs, applied events and retried requests
    (the session's rings count retries through ``Runtime.note_retry``,
    as the batch loop does); ``snapshot()`` carries the same counters."""
    from repro.runtime.results import AVAILABILITY

    if engine == "pure":
        monkeypatch.setattr(Simulator, "force_pure", True)
    sess = ServeSession(Mesh2D(4, 4), strategy, seed=0, failures=failures)
    report = run_loadgen(sess, rate=20000.0, requests=400)
    assert report.requests == 400
    res = replay(sess.trace(), failures=failures)
    served = {k: getattr(report, k) for k in (*AVAILABILITY, "hits", "misses", "total_msgs")}
    batch = {k: getattr(res, k) for k in (*AVAILABILITY, "hits", "misses")}
    batch["total_msgs"] = res.stats.total_msgs
    assert served == batch
    assert {k: sess.snapshot()[k] for k in AVAILABILITY} == {k: served[k] for k in AVAILABILITY}
    assert report.failure_events > 0
    if failures.startswith("churn"):
        assert report.repairs > 0 and report.requests_retried > 0
