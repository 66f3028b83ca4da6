"""ServeSession queue-bound and admission-control properties.

The serving layer's contract: requests are never silently dropped
(accepted + rejected == offered, completed == accepted after close), the
ingest queue never exceeds ``max_queue``, the in-flight window never
exceeds ``max_inflight``, and arrivals are clamped nondecreasing.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.network.mesh import Mesh2D
from repro.serve import QueueFull, ServeSession


def make_session(**kw):
    kw.setdefault("record", False)
    sess = ServeSession(Mesh2D(4, 4), "4-ary", **kw)
    for vid in range(8):
        sess.create(vid % sess.n_procs, 128)
    return sess


class TestValidation:
    def test_unknown_kind_rejected(self):
        sess = make_session()
        with pytest.raises(ValueError, match="kind"):
            sess.submit("x", 0, 0)

    def test_bad_processor_rejected(self):
        sess = make_session()
        with pytest.raises(ValueError, match="processor"):
            sess.submit("r", 99, 0)

    def test_bad_vid_rejected(self):
        sess = make_session()
        with pytest.raises(ValueError, match="variable"):
            sess.submit("r", 0, 42)

    def test_bounds_must_be_positive(self):
        with pytest.raises(ValueError):
            ServeSession(Mesh2D(2, 2), "4-ary", max_queue=0)
        with pytest.raises(ValueError):
            ServeSession(Mesh2D(2, 2), "4-ary", max_inflight=0)

    def test_closed_session_refuses_work(self):
        sess = make_session()
        sess.submit("r", 0, 0)
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.submit("r", 0, 0)
        with pytest.raises(RuntimeError, match="closed"):
            sess.create(0)
        with pytest.raises(RuntimeError, match="closed"):
            sess.pump()

    def test_close_is_idempotent(self):
        sess = make_session()
        sess.submit("r", 0, 0)
        assert sess.close() is sess.close()


class TestAdmissionControl:
    def test_queue_depth_never_exceeds_max_queue(self):
        sess = make_session(max_queue=10)
        outcomes = [sess.try_submit("r", i % 16, i % 8) for i in range(25)]
        assert sess.queue_depth == 10
        assert outcomes.count(True) == 10 and outcomes.count(False) == 15

    def test_no_silent_drops(self):
        """Every offered request is accounted: accepted + rejected ==
        offered, and every accepted request completes."""
        sess = make_session(max_queue=7)
        offered = 40
        for i in range(offered):
            sess.try_submit("r", i % 16, i % 8)
            if i % 10 == 9:
                sess.pump()  # drain so later offers are admitted again
        assert sess.accepted + sess.rejected == offered
        rep = sess.close()
        assert rep.requests == rep.accepted == sess.accepted
        assert rep.rejected == sess.rejected
        assert rep.accepted + rep.rejected == offered

    def test_submit_raises_queue_full(self):
        sess = make_session(max_queue=1)
        sess.submit("r", 0, 0)
        with pytest.raises(QueueFull):
            sess.submit("r", 1, 1)
        assert sess.rejected == 1

    def test_inflight_window_is_respected(self):
        sess = make_session(max_inflight=4)
        for i in range(64):
            sess.submit("r", i % 16, i % 8, arrival=i * 1e-4)
        # Pump in small horizon slices; the injected-but-incomplete window
        # must never exceed max_inflight at any observation point.
        t = 0.0
        while sess.queue_depth or sess.inflight:
            t += 5e-4
            sess.pump(until=t)
            assert sess.inflight <= 4
        rep = sess.close()
        assert rep.requests == 64 and sess.inflight == 0

    @pytest.mark.parametrize("fast", [None, False])
    def test_close_serves_the_queue_behind_a_full_window(self, fast):
        """A horizon-bounded pump may stop with the window full; close()
        must still serve everything queued behind it."""
        sess = make_session(max_inflight=4, fast=fast)
        for i in range(64):
            sess.submit("w" if i % 2 else "r", (i + 8) % 16, i % 8, arrival=i * 1e-6)
        sess.pump(until=1e-5)  # the first four are remote: still in flight
        assert sess.inflight == 4 and sess.queue_depth
        rep = sess.close()
        assert rep.requests == rep.accepted == 64
        assert sess.queue_depth == 0 and sess.inflight == 0


class TestArrivalClock:
    def test_arrivals_clamped_nondecreasing(self):
        sess = make_session()
        sess.submit("r", 0, 0, arrival=2.0)
        assert sess.arrival_floor == 2.0
        sess.submit("r", 1, 1, arrival=1.0)  # in the past: clamped
        assert sess.arrival_floor == 2.0
        sess.submit("r", 2, 2)  # None: right after the previous one
        assert sess.arrival_floor == 2.0
        sess.submit("r", 3, 3, arrival=3.5)
        assert sess.arrival_floor == 3.5

    @pytest.mark.parametrize("fast", [None, False])
    def test_completion_is_drained_with_sim_time(self, fast):
        sess = make_session(fast=fast)
        rid = sess.submit("r", 3, 0, arrival=0.5)
        sess.pump()
        ids, done, values = sess.drain_completions()
        assert ids.tolist() == [rid] == [0]
        assert done[0] >= 0.5 and values.tolist() == [0]
        sess.pump()  # the next pump starts empty
        assert [len(col) for col in sess.drain_completions()] == [0, 0, 0]

    @pytest.mark.parametrize("fast", [None, False])
    def test_latency_measured_from_requested_arrival(self, fast):
        """A queued-behind request's latency includes its wait."""
        sess = make_session(max_inflight=1, fast=fast)
        for i in range(8):
            # Writes from alternating far processors: every request costs
            # simulated time (no processor ends up holding the only copy),
            # so the single-slot window makes later ones wait longer.
            sess.submit("w", 15 if i % 2 else 12, 0, arrival=0.0, value=i)
        sess.pump()
        ids, done, values = sess.drain_completions()
        assert ids.tolist() == values.tolist() == list(range(8))
        assert done.tolist() == sorted(done.tolist())
        rep = sess.close()
        assert rep.requests == 8
        # All arrivals were 0.0, so p99 latency ~= the last completion.
        assert rep.latency_p99 > rep.latency_p50 > 0.0


class TestSnapshot:
    def test_snapshot_tracks_live_counters(self):
        sess = make_session()
        for i in range(12):
            sess.submit("r", i % 16, i % 8)
        sess.pump()
        snap = sess.snapshot()
        assert snap["completed"] == 12
        assert snap["accepted"] == 12 and snap["rejected"] == 0
        assert snap["queue_depth"] == 0 and snap["inflight"] == 0
        assert snap["sim_time"] > 0.0
        assert snap["total_msgs"] > 0
        assert 0.0 <= snap["hit_rate"] <= 1.0
        assert snap["latency_p50"] <= snap["latency_p99"]

    def test_report_counts_and_traffic(self):
        sess = make_session()
        for i in range(20):
            sess.submit("w" if i % 4 == 0 else "r", i % 16, i % 8)
        rep = sess.close()
        assert rep.requests == 20
        assert rep.created == 8
        assert rep.total_msgs > 0 and rep.total_bytes > 0
        assert rep.sim_time > 0 and rep.sim_requests_per_sec > 0
        assert rep.engine in ("ckern", "pure")
        d = rep.as_dict()
        assert d["requests"] == 20 and "latency_p95" in d


_REPORT_FALLBACK = """
import json
from repro.network.mesh import Mesh2D
from repro.serve import ServeSession
from repro.sim import _ckern

session = ServeSession(Mesh2D(2, 2), "4-ary")
session.submit("r", 1, session.create(0))
report = session.close()
print(json.dumps({"kernel": _ckern.unavailable_reason(), "engine": report.engine,
                  "dispatch": report.extra["dispatch"]}))
"""


@pytest.mark.parametrize("env,why", [
    ({"CC": "/nonexistent"}, "/nonexistent"),
    ({"REPRO_PURE_PYTHON": "1"}, "REPRO_PURE_PYTHON is set"),
], ids=["no-compiler", "disabled"])
def test_falling_back_to_the_pure_engine_says_why(tmp_path, env, why):
    """Silent fallback is a bug: a process that cannot load the kernel
    keeps the reason, and the serve ``dispatch`` block carries it."""
    inherited = {k: v for k, v in os.environ.items() if k != "REPRO_PURE_PYTHON"}
    env = {**inherited, "REPRO_CKERN_DIR": str(tmp_path), **env,
           "PYTHONPATH": str(pathlib.Path(repro.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", _REPORT_FALLBACK], env=env, check=True,
                         capture_output=True, text=True, timeout=120).stdout
    seen = json.loads(out)
    assert why in seen["kernel"]
    assert seen["engine"] == "pure"
    assert seen["dispatch"] == {"mode": "classic", "reason": f"no C kernel ({seen['kernel']})"}
