"""Fleet-merge properties (repro.serve.fleet).

The merged fleet view must be *recomputable* from the per-worker shards:
counters by integer addition, latency percentiles through sketch
merging (equal to one sketch fed the concatenation of every worker's
samples), link traffic through ``LinkStats.merge_state``.  And
``workers=1`` must never fork: its report is identical to driving
``run_loadgen`` on a fresh session directly.
"""

import numpy as np
import pytest

from repro.metrics import StreamingQuantiles, latency_percentiles
from repro.network.mesh import Mesh2D
from repro.network.stats import LinkStats
from repro.serve import ServeReport, ServeSession, run_fleet, run_loadgen
from repro.serve.fleet import spawn_seed, split_requests

PARAMS = {"n_vars": 16, "alpha": 0.9, "read_frac": 0.9}
OPTS = dict(workload="zipf", params=PARAMS, arrival="poisson",
            rate=5000.0, chunk=512)

#: Report fields that depend on the host's wall clock, not the request
#: stream -- excluded from determinism comparisons.
WALL_KEYS = {"wall_seconds", "requests_per_sec",
             "wall_p50", "wall_p95", "wall_p99"}


def make_session():
    return ServeSession(Mesh2D(4, 4), "4-ary", seed=0)


def sans_wall(d):
    return {k: v for k, v in d.items() if k not in WALL_KEYS}


class TestSharding:
    def test_split_is_even_and_exhaustive(self):
        shards = split_requests(10, 3)
        assert shards == [4, 3, 3]
        assert sum(shards) == 10

    def test_split_exact_division(self):
        assert split_requests(12, 4) == [3, 3, 3, 3]

    def test_too_few_requests_rejected(self):
        with pytest.raises(ValueError, match="shard"):
            split_requests(2, 3)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            split_requests(10, 0)

    def test_spawn_seeds_deterministic_and_distinct(self):
        seeds = [spawn_seed(42, i) for i in range(4)]
        assert seeds == [spawn_seed(42, i) for i in range(4)]
        assert len(set(seeds)) == 4
        assert seeds != [spawn_seed(43, i) for i in range(4)]


class TestWorkersOne:
    def test_identical_to_direct_loadgen(self):
        fleet = run_fleet(make_session, workers=1, requests=2000, seed=7,
                          **OPTS)
        direct = run_loadgen(make_session(), requests=2000, seed=7, **OPTS)
        assert len(fleet.workers) == 1
        assert sans_wall(fleet.workers[0].as_dict()) == sans_wall(
            direct.as_dict())

    def test_fleet_view_matches_single_report(self):
        """One worker's merged view is its report: every key the two share
        is equal (the derived ones -- rates, hit rate, effective network
        usage -- included), and the view adds only ``workers``."""
        fleet = run_fleet(make_session, workers=1, requests=2000, seed=7,
                          **OPTS)
        rep = fleet.workers[0]
        f = fleet.fleet
        assert f["workers"] == 1
        assert f["requests"] == rep.requests
        assert f["hits"] == rep.hits and f["misses"] == rep.misses
        assert f["hit_rate"] == pytest.approx(rep.hit_rate)
        assert f["latency_p50"] == pytest.approx(rep.latency_p50)
        assert f["latency_p99"] == pytest.approx(rep.latency_p99)
        assert f["total_msgs"] == rep.total_msgs
        assert f["total_bytes"] == pytest.approx(rep.total_bytes)
        single = rep.as_dict()
        for key in sorted(set(f) & set(single)):
            assert f[key] == single[key], key
        assert set(f) - set(single) == {"workers"}
        assert set(single) - set(f) == {"extra"}


class TestFleetMerge:
    WORKERS = 3
    REQUESTS = 3001  # deliberately not divisible: remainder path exercised
    SEED = 11

    @pytest.fixture(scope="class")
    def fleet(self):
        return run_fleet(make_session, workers=self.WORKERS,
                         requests=self.REQUESTS, seed=self.SEED, **OPTS)

    @pytest.fixture(scope="class")
    def shard_runs(self):
        """Each worker's shard re-run sequentially in this process: the
        ground truth the forked fleet must agree with."""
        shards = split_requests(self.REQUESTS, self.WORKERS)
        runs = []
        for i in range(self.WORKERS):
            sess = make_session()
            rep = run_loadgen(sess, requests=shards[i],
                              seed=spawn_seed(self.SEED, i), **OPTS)
            runs.append((rep, sess))
        return runs

    def test_workers_ran_their_shards(self, fleet, shard_runs):
        shards = split_requests(self.REQUESTS, self.WORKERS)
        assert len(fleet.workers) == self.WORKERS
        for rep, shard in zip(fleet.workers, shards):
            assert rep.accepted + rep.rejected == shard

    def test_worker_reports_match_sequential_reruns(self, fleet, shard_runs):
        for worker_rep, (truth, _sess) in zip(fleet.workers, shard_runs):
            got = sans_wall(worker_rep.as_dict())
            got.pop("extra")
            want = sans_wall(truth.as_dict())
            want.pop("extra")
            assert got == want

    def test_offered_conserved_in_aggregate(self, fleet):
        f = fleet.fleet
        assert f["accepted"] + f["rejected"] == self.REQUESTS
        assert f["accepted"] == sum(r.accepted for r in fleet.workers)
        assert f["rejected"] == sum(r.rejected for r in fleet.workers)

    def test_counters_merge_by_addition(self, fleet):
        f = fleet.fleet
        # (congestion_* is NOT additive: it is recomputed from the merged
        # per-link totals -- pinned by test_link_totals_merge_exactly.)
        for key in ("requests", "hits", "misses", "created", "evictions",
                    "total_msgs"):
            assert f[key] == sum(getattr(r, key if key != "requests"
                                         else "requests")
                                 for r in fleet.workers), key
        assert f["hit_rate"] == pytest.approx(
            f["hits"] / (f["hits"] + f["misses"]))
        assert f["sim_time"] == max(r.sim_time for r in fleet.workers)

    def test_the_view_is_a_merged_serve_report(self, fleet):
        """Every additive field is the workers' sum, and the derived ones
        follow from the merged counters as a session's report does."""
        f = fleet.fleet
        for key in ServeReport.ADDITIVE:
            assert f[key] == sum(getattr(r, key) for r in fleet.workers), key
        assert f["effective_network_usage"] == f["total_bytes"] / (f["hits"] + f["misses"])
        assert f["sim_requests_per_sec"] == f["requests"] / f["sim_time"]
        assert f["requests_per_sec"] == f["requests"] / f["wall_seconds"]

    def test_merged_percentiles_equal_concatenated_samples(
            self, fleet, shard_runs):
        merged = StreamingQuantiles()
        for _rep, sess in shard_runs:
            merged.merge(StreamingQuantiles.from_state(sess._lat_sim.state()))
        want = latency_percentiles(merged)
        f = fleet.fleet
        assert f["latency_p50"] == pytest.approx(want["p50"])
        assert f["latency_p95"] == pytest.approx(want["p95"])
        assert f["latency_p99"] == pytest.approx(want["p99"])

    def test_link_totals_merge_exactly(self, fleet, shard_runs):
        links = LinkStats(Mesh2D(4, 4))
        for _rep, sess in shard_runs:
            links.merge_state(sess.rt.sim.stats.state())
        snap = links.snapshot()
        f = fleet.fleet
        assert f["total_bytes"] == pytest.approx(snap.total_bytes)
        assert f["total_msgs"] == snap.total_msgs
        assert f["congestion_bytes"] == pytest.approx(snap.congestion_bytes)

    def test_worker_extras_annotated(self, fleet):
        for i, rep in enumerate(fleet.workers):
            assert rep.extra["worker"] == i
            assert rep.extra["workers"] == self.WORKERS
            assert rep.extra["parent_seed"] == self.SEED

    def test_to_dict_is_json_shaped(self, fleet):
        import json

        payload = fleet.to_dict()
        assert set(payload) == {"fleet", "workers"}
        assert len(payload["workers"]) == self.WORKERS
        json.dumps(payload)  # must not raise


class TestSketchMergeProperty:
    def test_merge_equals_concatenated_feed(self):
        rng = np.random.default_rng(3)
        parts = [rng.exponential(0.01, size=n) for n in (400, 700, 150)]
        merged = StreamingQuantiles()
        for part in parts:
            sk = StreamingQuantiles()
            for v in part:
                sk.add(v)
            merged.merge(StreamingQuantiles.from_state(sk.state()))
        concat = StreamingQuantiles()
        for v in np.concatenate(parts):
            concat.add(v)
        assert latency_percentiles(merged) == latency_percentiles(concat)


class TestDeadWorker:
    def test_worker_that_dies_before_reporting_fails_the_fleet(self):
        """A forked worker that exits without reporting (here: os._exit
        while building its session) must surface as an error naming the
        worker and its exit code -- not as a parent blocked forever."""
        import os

        def make_dying():
            os._exit(3)

        with pytest.raises(RuntimeError, match=r"worker \d exited with code 3"):
            run_fleet(make_dying, workers=2, requests=400, seed=1, **OPTS)
