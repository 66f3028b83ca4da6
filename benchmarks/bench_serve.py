#!/usr/bin/env python3
"""Serving throughput benchmark: sustained requests/sec next to cells/sec.

Drives one *pinned* serving configuration (Zipf access mix over an 8x8
mesh under the 4-ary access tree, Poisson arrivals at ~0.7x the measured
service capacity -- parameters frozen below; changing them breaks the
trajectory, bump ``BENCH_VERSION`` if you must) with the open-loop load
generator, one million simulated requests per run, trace recording ON
(recording is part of the serving contract: every served run must replay
bit-identically), and reports:

* **requests_per_sec** -- completed requests per *wall* second over the
  whole serving loop (generation + ingest + micro-batched engine work).
  This is the gated number: the serving analogue of cells/sec.
* **latency p50/p95/p99** -- simulated enqueue-to-completion seconds.
* hit rate, rejections, peak RSS.

A second pinned row, ``serve_home``, serves the same load under
``fixed-home`` (the paper's CC-NUMA baseline; the directory flows take a
different path through the kernel from the tree's).  It rides in the
same result file under ``rows`` and in the baseline, where
``bench_compare.py`` holds it to the same gates, and gets its own
history row.  It runs after the first in one process, so its
``peak_rss_mb`` is the larger of the two.

The result goes to ``benchmarks/results/BENCH_serve.json`` (CI artifact,
gated against ``benchmarks/baselines/BENCH_serve.baseline.json`` by
``tools/bench_compare.py``) and a dated row is appended to the committed
``benchmarks/BENCH_history.json`` trajectory.  With ``REPRO_PURE_PYTHON``
set the result describes the pure engine (``BENCH_serve.pure.json``,
no committed baseline: CI gates the C engine, where serving runs).

Run standalone (CI does) or via pytest::

    python benchmarks/bench_serve.py
    REPRO_SERVE_REQUESTS=50000 python benchmarks/bench_serve.py   # quick look
    python -m pytest benchmarks/bench_serve.py -q

requests/sec is machine-dependent (same caveat as cells/sec); the
committed baseline tracks the CI runner class.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from bench_engine_perf import engine_name, peak_rss_mb  # noqa: E402

RESULTS_DIR = pathlib.Path(__file__).parent / "results"
HISTORY_PATH = pathlib.Path(__file__).parent / "BENCH_history.json"

#: Bump when the pinned configuration changes (breaks rate comparability).
BENCH_VERSION = 1

#: The pinned serving run: 64 processors, 512 variables, Poisson arrivals
#: at ~0.7x the measured service capacity (so the latency percentiles
#: reflect service + moderate queueing, not an unbounded overload queue).
PINNED = dict(
    workload="zipf",
    strategy="4-ary",
    topology="mesh",
    side=8,
    seed=0,
    params={"n_vars": 512, "alpha": 0.9, "read_frac": 0.9, "payload": 256},
    arrival="poisson",
    rate=9000.0,
    chunk=8192,
    max_queue=65536,
    max_inflight=8192,
)

#: The directory-family row (bench name ``serve_home``): the same load
#: under the fixed-home strategy.
PINNED_HOME = {**PINNED, "strategy": "fixed-home"}

#: One run is one million simulated requests (self-averaging: no
#: best-of-N needed); override for a quick local look only -- the gate
#: compares like with like because the pinned config is unchanged.
REQUESTS = int(os.environ.get("REPRO_SERVE_REQUESTS", 1_000_000))


def _make_session(pinned: dict = PINNED):
    from repro.network.topology import make_topology
    from repro.serve import ServeSession

    topo = make_topology(pinned["topology"], pinned["side"])
    return ServeSession(
        topo,
        pinned["strategy"],
        seed=pinned["seed"],
        max_queue=pinned["max_queue"],
        max_inflight=pinned["max_inflight"],
    )


def run_once(requests: int = REQUESTS, workers: int = 1,
             pinned: dict = PINNED, bench: str = "serve") -> dict:
    """One run of a pinned config (``workers > 1``: sharded over a fleet)."""
    from repro.serve import run_fleet, run_loadgen

    t0 = time.perf_counter()
    if workers == 1:
        session = _make_session(pinned)
        report = run_loadgen(
            session,
            workload=pinned["workload"],
            params=pinned["params"],
            arrival=pinned["arrival"],
            rate=pinned["rate"],
            requests=requests,
            seed=pinned["seed"],
            chunk=pinned["chunk"],
        )
        wall = time.perf_counter() - t0
        assert report.requests == requests - report.rejected
        view = report.as_dict()
        view["requests_per_sec"] = report.requests / wall
    else:
        fleet = run_fleet(
            functools.partial(_make_session, pinned),
            workers=workers,
            requests=requests,
            seed=pinned["seed"],
            workload=pinned["workload"],
            params=pinned["params"],
            arrival=pinned["arrival"],
            rate=pinned["rate"],
            chunk=pinned["chunk"],
        )
        wall = time.perf_counter() - t0
        # The fleet's own aggregate requests_per_sec (completed / slowest
        # worker wall): the per-shard concurrency number the workers=N row
        # tracks.
        view = fleet.fleet
    row = dict(
        requests=view["requests"],
        rejected=view["rejected"],
        requests_per_sec=view["requests_per_sec"],
        sim_requests_per_sec=view["sim_requests_per_sec"],
        latency_p50=view["latency_p50"],
        latency_p95=view["latency_p95"],
        latency_p99=view["latency_p99"],
        hit_rate=view["hit_rate"],
        simulated_time=view["sim_time"],
        simulated_msgs=view["total_msgs"],
    )
    return {
        "bench": bench,
        "bench_version": BENCH_VERSION,
        "engine": engine_name(),
        "pinned": pinned,
        "workers": workers,
        "best_wall_seconds": wall,
        "peak_rss_mb": peak_rss_mb(),
        **row,
    }


def emit(result: dict) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = "BENCH_serve" if result["engine"] == "c" else "BENCH_serve.pure"
    if result.get("workers", 1) != 1:
        stem += f".w{result['workers']}"
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def test_serve_throughput():
    """Pytest entry point: a short run keeps the harness fast; the JSON is
    still emitted so local bench runs leave a perf point behind."""
    result = run_once(requests=20_000)
    result["rows"] = {
        "serve_home": run_once(20_000, pinned=PINNED_HOME, bench="serve_home")
    }
    for row in (result, result["rows"]["serve_home"]):
        assert row["requests_per_sec"] > 0
        assert row["latency_p50"] <= row["latency_p95"] <= row["latency_p99"]
        print(f"\n{row['bench']}: {row['requests_per_sec']:.0f} requests/sec "
              f"(p99 {row['latency_p99'] * 1e3:.2f} sim-ms)")
    emit(result)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="shard the pinned load across N engine "
                             "replicas (fleet row; workers=1 is the "
                             "gated single-session row)")
    args = parser.parse_args(argv)
    result = run_once(workers=args.workers)
    if args.workers == 1:
        result["rows"] = {
            "serve_home": run_once(pinned=PINNED_HOME, bench="serve_home")
        }
    path = emit(result)
    from repro.exp.history import append_history

    for row in (result, *result.get("rows", {}).values()):
        append_history(
            {
                "bench": row["bench"],
                "engine": row["engine"],
                "metric": "requests_per_sec",
                "value": row["requests_per_sec"],
                "peak_rss_mb": row["peak_rss_mb"],
                "bench_version": BENCH_VERSION,
                "workers": args.workers,
            },
            HISTORY_PATH,
        )
        fleet = f" x{args.workers}" if args.workers != 1 else ""
        print(f"{row['bench']}[{row['engine']}{fleet}]: "
              f"{row['requests_per_sec']:.0f} requests/sec "
              f"({row['requests']} served, p50 {row['latency_p50'] * 1e3:.2f} / "
              f"p99 {row['latency_p99'] * 1e3:.2f} sim-ms, "
              f"peak {row['peak_rss_mb']:.1f} MiB) -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
