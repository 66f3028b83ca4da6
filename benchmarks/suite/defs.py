"""Workload and metric vocabulary of the benchmark suite.

Pure data, no ``repro`` import: ``run.py`` (the orchestrator, which never
imports the program) and ``worker.py`` (the child that runs it) both read
these tables, ``BENCHMARK.json`` is checked against them by the self-tests,
and ``README.md`` explains each row.
"""

from __future__ import annotations

import os

#: Seed of the system under test (strategy embedding, home hashing, session):
#: configuration, not input, so ``--seed`` does not move it.  ``--seed`` drives
#: the request stream (arrivals, accesses, issuing processors) and the batch
#: apps' data.
SYSTEM_SEED = 0

#: The strategy entry points the traced rounds wrap (``core.<call>`` spans).
STRATEGY_CALLS = ("read", "write", "lock", "unlock")

#: The zipf access mix every serving workload shares (``read_frac`` varies).
SERVE_MIX = {"n_vars": 512, "alpha": 0.9, "payload": 256}

#: ``bench_serve.py``'s PINNED session/loadgen settings, verbatim.
SERVE_SESSION = {"topology": "mesh", "side": 8, "max_queue": 65536, "max_inflight": 8192}
SERVE_LOADGEN = {"workload": "zipf", "arrival": "poisson", "chunk": 8192}

#: Requests of the fast-vs-classic prefix check run before timing, and how
#: far apart (relative) any fingerprint field may be.  The issue asked for
#: equality; on the seed tree the two dispatch paths agree bit for bit only
#: up to a few thousand requests and then drift in the last digits of
#: ``storage_cost`` and, on the 4-ary configs, by a handful of messages
#: (README, "Findings").  The check therefore gates on gross divergence and
#: reports the exact outcome in its detail.
VERIFY_REQUESTS = 20_000
VERIFY_TOLERANCE = 0.02

#: The eight batch cells: four apps x two strategies.  ``verify`` is the
#: keyword that switches app verification on where it is not the default.
BATCH_STRATEGIES = ("4-ary", "fixed-home")
BATCH_CELLS = (
    {"app": "matmul", "side": 16, "params": {"block_entries": 1024}, "kwargs": {}},
    {"app": "bitonic", "side": 16, "params": {"keys": 1024}, "kwargs": {}},
    {"app": "barneshut", "side": 8, "params": {"bodies": 256, "steps": 3, "warm": 1},
     "kwargs": {"verify": True}},
    {"app": "zipf", "side": 16,
     "params": {"n_vars": 512, "ops": 64, "alpha": 0.9, "read_frac": 0.9}, "kwargs": {}},
)
BATCH_CELLS_QUICK = (
    {"app": "matmul", "side": 8, "params": {"block_entries": 256}, "kwargs": {}},
    {"app": "bitonic", "side": 8, "params": {"keys": 256}, "kwargs": {}},
    {"app": "barneshut", "side": 4, "params": {"bodies": 64, "steps": 3, "warm": 1},
     "kwargs": {"verify": True}},
    {"app": "zipf", "side": 8,
     "params": {"n_vars": 128, "ops": 32, "alpha": 0.9, "read_frac": 0.9}, "kwargs": {}},
)

#: name -> configuration.  ``requests`` is the size of one *round*, about a
#: second of work; a run repeats identical rounds (same seed, same inputs)
#: until ``--seconds`` is used up and folds them per metric, so that a burst
#: of interference spoils some rounds, not the run.  The issue pinned one long
#: pass per repeat (1M / 400k / 1M / 80k / 2M requests, eight batch cells of
#: about 10 s together); the rounds keep its configurations and cut the sizes.
WORKLOADS = {
    "serve_tree_read": {
        "kind": "serve", "strategy": "4-ary", "read_frac": 0.9, "rate": 9000.0,
        "requests": 100_000, "loop": "open (simulated Poisson 9000/s), flat out in host time",
        "why": "bench_serve.py's pinned config: reads stay in the C kernel, so sim does the work",
    },
    "serve_tree_write": {
        "kind": "serve", "strategy": "4-ary", "read_frac": 0.5, "rate": 5000.0,
        "requests": 50_000, "loop": "open (simulated Poisson 5000/s), flat out in host time",
        "why": "half the requests are writes that cross into Python: access_tree.write and push_multicast",
    },
    "serve_home_read": {
        "kind": "serve", "strategy": "fixed-home", "read_frac": 0.9, "rate": 9000.0,
        "requests": 100_000, "loop": "open (simulated Poisson 9000/s), flat out in host time",
        "why": "directory family: every read miss crosses into core.fixed_home, no native tree flow",
    },
    "batch_paper": {
        "kind": "batch", "requests": 0, "loop": "batch (no arrivals): eight cells back to back",
        "why": "what repro fig* users pay: launcher, generators, locks, core and sim, no serving layer",
    },
    "frontend_socket": {
        "kind": "frontend", "strategy": "4-ary", "read_frac": 0.9, "requests": 8_000,
        "connections": 2, "window": 64,
        "loop": "closed (2 TCP connections x 64 outstanding), loopback",
        "why": "socket to socket over ServeFrontend: classic dispatchers, JSON and asyncio on the path",
    },
    "fleet_w2": {
        "kind": "fleet", "strategy": "4-ary", "read_frac": 0.9, "rate": 9000.0,
        "requests": 200_000, "workers": 2,
        "loop": "open (simulated Poisson 9000/s per worker), flat out in host time",
        "why": "run_fleet with two forked workers: fork, per-worker setup, pickling and merge",
    },
}

SERVE_LIKE = ("serve_tree_read", "serve_tree_write", "serve_home_read")
ALL = tuple(WORKLOADS)


def fleet_workers() -> int:
    """``min(2, nproc)``: load comes from at most ``nproc`` processes."""
    return min(WORKLOADS["fleet_w2"]["workers"], os.cpu_count() or 1)


def _m(name, unit, better, workloads, why, bound=None):
    return {"name": name, "unit": unit, "better": better, "workloads": tuple(workloads),
            "why": why, "bound": bound}


#: End-to-end metrics: what a user of the system sees.  The driver contract
#: wants every one of them on every workload and never zero, so only metrics
#: that mean something on all six are here; the issue's workload-specific
#: simulated quantities are in ``PER_LAYER`` under their issue names and are
#: protected by the exact fingerprint checks instead of a bound.
END_TO_END = (
    _m("setup_s", "s", "lower", ALL,
       "fresh process start -> first timed operation (imports, kernel dlopen, topology, "
       "strategy, session; frontend: until the port accepts)", 0.25),
    _m("ops_per_sec", "1/s", "higher", ALL,
       "completed requests (batch: strategy accesses) per wall second of the timed region", 0.15),
    _m("cpu_us_per_op", "us", "lower", ALL,
       "user+sys CPU per op of the processes running repro code", 0.15),
    _m("peak_rss_mb", "MiB", "lower", ALL,
       "peak resident set (frontend: server; fleet: largest worker)", 0.05),
    _m("wall_p50_ms", "ms", "lower", ALL,
       "host ms from handing one unit of work over until its result is back, median "
       "(frontend: send -> reply; serve/fleet: enqueue -> completion; batch: one cell)", 0.15),
    _m("wall_p95_ms", "ms", "lower", ALL, "same, 95th percentile", 0.15),
    _m("sim_bytes_per_op", "B", "lower", ALL,
       "simulated link bytes per op (effective network usage); a protocol or model change moves "
       "it, host speed does not, and the fingerprint checks hold it exactly", 0.25),
)

_SERVE_FLEET = SERVE_LIKE + ("fleet_w2",)
_TRACED_CORE = SERVE_LIKE + ("batch_paper", "frontend_socket")

#: Per-layer metrics (traced run); layer = the prefix before the dot.
PER_LAYER = (
    # simulated quantities of single workloads (deterministic for a seed)
    _m("sim_latency_p50_ms", "ms", "lower", _SERVE_FLEET, "simulated arrival -> completion, median"),
    _m("sim_latency_p99_ms", "ms", "lower", _SERVE_FLEET, "simulated arrival -> completion, p99"),
    _m("sim_congestion_ratio", "ratio", "lower", ("batch_paper",),
       "geometric mean over the four apps of congestion_bytes(4-ary) / congestion_bytes(fixed-home)"),
    _m("sim_time_ratio", "ratio", "lower", ("batch_paper",),
       "same for simulated execution time"),
    # serve.loadgen
    _m("loadgen.sample_s", "s", "lower", SERVE_LIKE, "drawing arrivals and accesses"),
    _m("loadgen.epochs", "count", "lower", SERVE_LIKE, "chunks submitted"),
    # serve.session
    _m("session.create_s", "s", "lower", SERVE_LIKE, "ServeSession(), cold, part of setup_s"),
    _m("session.create_vars_s", "s", "lower", SERVE_LIKE, "the 512 session.create calls of a round"),
    _m("session.submit_s", "s", "lower", SERVE_LIKE, "submit_batch: ingest packing"),
    _m("session.submit_calls", "count", "lower", SERVE_LIKE, "submit_batch calls"),
    _m("session.pump_s", "s", "lower", SERVE_LIKE, "pump calls, children included"),
    _m("session.pump_calls", "count", "lower", SERVE_LIKE, "pump calls"),
    _m("session.pump_self_s", "s", "lower", SERVE_LIKE,
       "pump + close minus Simulator.run: ingest flush, completion drain, report build"),
    _m("session.close_s", "s", "lower", SERVE_LIKE, "final drain, stats fold, report build"),
    _m("session.rejected", "count", "lower", SERVE_LIKE, "admission rejections"),
    # core
    _m("core.build_s", "s", "lower", _TRACED_CORE,
       "get_strategy: decomposition tree + embedding (cold; batch: the eight builds of a round)"),
    _m("core.read_calls", "count", "lower", _TRACED_CORE, "Python crossings into strategy.read"),
    _m("core.write_calls", "count", "lower", _TRACED_CORE, "Python crossings into strategy.write"),
    _m("core.lock_calls", "count", "lower", _TRACED_CORE, "strategy.lock + unlock calls"),
    _m("core.read_s", "s", "lower", _TRACED_CORE, "time inside strategy.read"),
    _m("core.write_s", "s", "lower", _TRACED_CORE, "time inside strategy.write"),
    _m("core.lock_s", "s", "lower", _TRACED_CORE, "time inside strategy.lock + unlock"),
    _m("core.crossings_per_kop", "1/kop", "lower", _TRACED_CORE, "strategy calls per 1000 ops"),
    _m("core.us_per_crossing", "us", "lower", _TRACED_CORE, "mean time per strategy call"),
    _m("core.hit_rate", "ratio", "higher", _TRACED_CORE, "hits / (hits + misses)"),
    # sim
    _m("sim.kernel_load_s", "s", "lower", ALL, "load_kernel() with a warm cache: hash + dlopen"),
    _m("sim.kernel_build_s", "s", "lower", ALL, "cold compile of the C kernel (informational)"),
    _m("sim.legs", "count", "lower", ALL, "simulated messages (total_msgs), exact"),
    _m("sim.legs_per_op", "1/op", "lower", ALL, "simulated messages per op"),
    _m("sim.run_s", "s", "lower", _TRACED_CORE, "Simulator.run calls, children included"),
    _m("sim.run_self_s", "s", "lower", _TRACED_CORE,
       "Simulator.run minus core: event loop, launcher, generators, crossing glue"),
    _m("sim.us_per_leg", "us", "lower", ALL,
       "host time per simulated message (run_self_s / legs; fleet: summed worker wall / legs)"),
    # network
    _m("network.topology_s", "s", "lower", SERVE_LIKE + ("batch_paper",), "make_topology, cold"),
    _m("network.stats_fold_s", "s", "lower", SERVE_LIKE + ("batch_paper",),
       "LinkStats.snapshot() calls"),
    # workloads / apps / runtime
    _m("workloads.run_s", "s", "lower", ("batch_paper",), "the eight Workload.run calls"),
    _m("workloads.outside_sim_s", "s", "lower", ("batch_paper",),
       "run minus Simulator.run: program build, variable creation, verification, result assembly"),
    _m("batch.matmul_s", "s", "lower", ("batch_paper",), "wall of the matmul cells, both strategies"),
    _m("batch.bitonic_s", "s", "lower", ("batch_paper",), "wall of the bitonic cells"),
    _m("batch.barneshut_s", "s", "lower", ("batch_paper",), "wall of the Barnes-Hut cells"),
    _m("batch.zipf_s", "s", "lower", ("batch_paper",), "wall of the zipf cells"),
    # serve.frontend
    _m("frontend.client_cpu_us_per_op", "us", "lower", ("frontend_socket",),
       "load generator CPU per op: near 1e6 / ops_per_sec means the client is the limit"),
    _m("frontend.client_send_s", "s", "lower", ("frontend_socket",), "time in the client's socket writes"),
    # server-side numbers are the traced server's totals cut down to one round
    _m("frontend.try_submit_s", "s", "lower", ("frontend_socket",), "server: time in session.try_submit"),
    _m("frontend.try_submit_calls", "count", "lower", ("frontend_socket",), "server: try_submit calls"),
    _m("frontend.pump_s", "s", "lower", ("frontend_socket",), "server: time in session.pump"),
    _m("frontend.pump_calls", "count", "lower", ("frontend_socket",), "server: pump calls"),
    _m("frontend.reqs_per_pump", "1/pump", "higher", ("frontend_socket",),
       "requests served per pump: batching vs per-line overhead"),
    _m("frontend.server_cpu_s", "s", "lower", ("frontend_socket",), "server CPU while serving"),
    _m("frontend.self_s", "s", "lower", ("frontend_socket",),
       "server CPU minus session spans: asyncio, JSON, futures, socket writes"),
    _m("frontend.busy_replies", "count", "lower", ("frontend_socket",), "replies refused as busy"),
    _m("frontend.rtt_p99_ms", "ms", "lower", ("frontend_socket",),
       "send -> reply, 99th percentile: one stall of the box covers a whole 128-request window, "
       "too jumpy to carry a bound"),
    _m("frontend.server_rss_mb", "MiB", "lower", ("frontend_socket",), "server peak RSS"),
    # serve.fleet
    _m("fleet.outer_wall_s", "s", "lower", ("fleet_w2",), "the run_fleet call"),
    _m("fleet.worker_wall_max_s", "s", "lower", ("fleet_w2",), "slowest worker's serving wall"),
    _m("fleet.worker_wall_min_s", "s", "lower", ("fleet_w2",), "fastest worker's serving wall"),
    _m("fleet.skew", "ratio", "lower", ("fleet_w2",), "(max - min) / max worker wall"),
    _m("fleet.fork_merge_s", "s", "lower", ("fleet_w2",),
       "outer wall minus slowest worker: fork, child setup, pickling, merge"),
    _m("fleet.scaling_efficiency", "ratio", "higher", ("fleet_w2",),
       "ops_per_sec(fleet) / (workers x ops_per_sec(one session, same config, same run))"),
    # the measurement itself
    _m("trace.overhead_frac", "ratio", "lower", ALL,
       "1 - traced / untraced ops_per_sec, rounds alternated in one process"),
    _m("trace.coverage_frac", "ratio", "higher", SERVE_LIKE + ("batch_paper", "fleet_w2"),
       "share of the traced timed region covered by its top-level spans"),
    _m("trace.spans", "count", "lower", ALL, "spans recorded in one traced round"),
)

METRICS = {m["name"]: m for m in END_TO_END + PER_LAYER}

#: Counts and simulated quantities that must repeat exactly for a seed.
EXACT = frozenset({
    "sim_bytes_per_op", "sim_latency_p50_ms", "sim_latency_p99_ms", "sim_congestion_ratio",
    "sim_time_ratio", "sim.legs", "sim.legs_per_op", "core.read_calls", "core.write_calls",
    "core.lock_calls", "core.crossings_per_kop", "core.hit_rate", "loadgen.epochs",
    "session.submit_calls", "session.pump_calls", "session.rejected",
})

#: ``frontend_socket`` maps arrivals to simulated time by wall clock, so
#: nothing simulated repeats exactly there.
INEXACT_WORKLOADS = frozenset({"frontend_socket"})
