#!/usr/bin/env python3
"""Engine throughput benchmark: the repo's wall-clock perf trajectory.

Runs a *pinned* synthetic workload cell (Zipf hotspot kernel, 8x8 mesh,
4-ary access tree -- parameters frozen below; changing them breaks the
trajectory, bump ``BENCH_VERSION`` if you must) several times and reports
the best wall-clock rate in **cells/sec** plus the finer-grained
**accesses/sec**, and the process's **peak RSS** in MiB -- the memory
envelope the CI gate enforces alongside throughput.  The result is
written to ``benchmarks/results/BENCH_engine.json`` so CI archives one
comparable perf point per commit; with ``REPRO_PURE_PYTHON`` set the
result describes the pure-Python engine and goes to
``BENCH_engine.pure.json`` (own baseline, own gate).  ``main`` also
appends a dated row to the committed ``benchmarks/BENCH_history.json``
trajectory (``tools/bench_compare.py --history`` prints the trend).

Run standalone (CI does) or via pytest::

    python benchmarks/bench_engine_perf.py
    REPRO_PURE_PYTHON=1 python benchmarks/bench_engine_perf.py
    REPRO_SCALE=default python -m pytest benchmarks/bench_engine_perf.py -q

Simulated quantities are deterministic, so the only run-to-run variance
is host speed: best-of-N is the honest estimator.  Peak RSS is far more
stable than wall clock (same interpreter -> same allocations), but it is
a high-water mark of the whole process, so it is measured on the same
runs best-of-N times.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Bump when the pinned configuration changes (breaks rate comparability).
#: v2: added peak_rss_mb + per-engine results (pure vs C).
BENCH_VERSION = 2

#: The pinned cell: one zipf run, 64 processors, 4096 accesses.
PINNED = dict(
    workload="zipf",
    strategy="4-ary",
    topology="mesh",
    side=8,
    seed=0,
    params={"n_vars": 64, "ops": 64, "alpha": 0.8, "read_frac": 0.9},
)
REPEATS = 5


def run_once():
    from repro.analysis.experiments import workload_cell

    return workload_cell(**PINNED)


def engine_name() -> str:
    """Which engine this process benchmarks ("c" or "pure")."""
    return "pure" if os.environ.get("REPRO_PURE_PYTHON") else "c"


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB (see
    :func:`repro.exp.runner.peak_rss_mb`; duplicated here so the bench
    stays import-light)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def measure(repeats: int = REPEATS) -> dict:
    """Best-of-``repeats`` wall time of the pinned cell (plus one untimed
    warm-up for imports and route caches)."""
    rows = run_once()  # warm-up; also sanity-checks the cell
    assert rows and rows[0]["total_msgs"] > 0
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_once()
        dt = time.perf_counter() - t0
        if dt < best:
            best = dt
    accesses = PINNED["params"]["ops"] * PINNED["side"] * PINNED["side"]
    return {
        "bench": "engine",
        "bench_version": BENCH_VERSION,
        "engine": engine_name(),
        "pinned": PINNED,
        "repeats": repeats,
        "best_wall_seconds": best,
        "cells_per_sec": 1.0 / best,
        "accesses_per_sec": accesses / best,
        "peak_rss_mb": peak_rss_mb(),
        "simulated_msgs": rows[0]["total_msgs"],
        "simulated_time": rows[0]["time"],
    }


def emit(result: dict) -> pathlib.Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = "BENCH_engine" if result["engine"] == "c" else "BENCH_engine.pure"
    path = RESULTS_DIR / f"{stem}.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return path


def test_engine_throughput():
    """Pytest entry point: one repeat keeps the harness fast; the JSON is
    still emitted so local bench runs leave a perf point behind."""
    result = measure(repeats=1)
    assert result["cells_per_sec"] > 0
    emit(result)
    print(f"\nengine: {result['cells_per_sec']:.2f} cells/sec "
          f"({result['accesses_per_sec']:.0f} accesses/sec)")


def main() -> int:
    result = measure()
    path = emit(result)
    from repro.exp.history import append_history

    append_history(
        {
            "bench": "engine",
            "engine": result["engine"],
            "metric": "cells_per_sec",
            "value": result["cells_per_sec"],
            "peak_rss_mb": result["peak_rss_mb"],
            "bench_version": BENCH_VERSION,
        },
        pathlib.Path(__file__).parent / "BENCH_history.json",
    )
    print(f"engine[{result['engine']}]: {result['cells_per_sec']:.2f} cells/sec "
          f"({result['accesses_per_sec']:.0f} accesses/sec, "
          f"peak {result['peak_rss_mb']:.1f} MiB, "
          f"best of {result['repeats']}) -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
