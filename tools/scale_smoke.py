#!/usr/bin/env python3
"""Scale smoke gate: run one large xscale cell inside a memory envelope.

Used by the CI ``scale-smoke`` job and by hand::

    python tools/scale_smoke.py                       # 2^14-node mesh cell
    python tools/scale_smoke.py --nodes 131072 --topology hypercube
    python tools/scale_smoke.py --update-baseline     # refresh the ceiling

Runs a single ``xscale`` cell (default: 2^14 nodes, mesh, 2-4-ary, the
quick-scale op count) with ``tracemalloc`` tracing Python allocations,
records the process peak RSS (``resource.getrusage``), writes the memory
report to ``benchmarks/results/MEM_scale.json``, and exits non-zero when
peak RSS exceeds the committed ceiling in
``benchmarks/baselines/MEM_scale.baseline.json``.

The ceiling is a *hard* number, not a ratio: the point of the algebraic
router is that route memory no longer scales with ``nodes^2`` (what is
left is per-processor launcher and strategy state), and the committed
ceiling is what keeps that property from silently regressing.  It is a
ceiling for one engine: the report records the engine that actually ran
(and, when that is the pure loop, why the C kernel did not), and a run
on the other engine is refused rather than gated.  ``--update-baseline``
rewrites the ceiling as ``headroom x`` the just-measured peak (default
1.5x) -- regenerate it deliberately, on the CI runner class, when the
envelope legitimately changes.

Tracemalloc's Python-heap peak is reported alongside RSS for diagnosis
(it shows *which* side grew: Python objects vs numpy/C buffers), but only
RSS is gated -- it is what the machine actually provisions.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import resource
import sys
import time
import tracemalloc

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_REPORT = REPO_ROOT / "benchmarks" / "results" / "MEM_scale.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "MEM_scale.baseline.json"

#: The pinned smoke cell (CI: one 2^14-node machine at quick-scale ops).
DEFAULT_NODES = 1 << 14
DEFAULT_TOPOLOGY = "mesh"
DEFAULT_STRATEGY = "2-4-ary"
DEFAULT_OPS = 4


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def engine_used(nodes: int, topology: str) -> dict:
    """Which engine a simulator of this machine gets in this process:
    ``{"engine": "c"}``, or ``"pure"`` with the kernel's reason."""
    from repro.network.machine import GCEL
    from repro.network.topology import make_topology_nodes
    from repro.sim import _ckern
    from repro.sim.engine import Simulator

    if Simulator(make_topology_nodes(topology, nodes), GCEL)._h is not None:
        return {"engine": "c"}
    return {"engine": "pure", "engine_reason": _ckern.unavailable_reason()}


def run_cell(nodes: int, topology: str, strategy: str, ops: int) -> dict:
    """Run the smoke cell under tracemalloc; returns the memory report."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.exp import run_experiment

    tracemalloc.start()
    t0 = time.perf_counter()
    rows = run_experiment("xscale", param_overrides={
        "nodes": (nodes,), "topologies": (topology,),
        "strategies": (strategy,), "ops": ops,
    }).rows
    wall = time.perf_counter() - t0
    _, py_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert rows and rows[0]["total_msgs"] > 0
    return {
        "bench": "scale_smoke",
        "cell": {
            "nodes": nodes,
            "topology": topology,
            "strategy": strategy,
            "ops": ops,
        },
        "wall_seconds": wall,
        "peak_rss_mb": peak_rss_mb(),  # read before engine_used() allocates
        **engine_used(nodes, topology),
        "tracemalloc_peak_mb": py_peak / (1024.0 * 1024.0),
        "congestion_per_node": rows[0]["congestion_per_node"],
        "total_msgs": rows[0]["total_msgs"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, default=DEFAULT_NODES,
                        help=f"machine size (default {DEFAULT_NODES})")
    parser.add_argument("--topology", default=DEFAULT_TOPOLOGY,
                        choices=("mesh", "torus", "hypercube"))
    parser.add_argument("--strategy", default=DEFAULT_STRATEGY)
    parser.add_argument("--ops", type=int, default=DEFAULT_OPS)
    parser.add_argument("--report", type=pathlib.Path, default=DEFAULT_REPORT,
                        help="memory report output path")
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
                        help="committed ceiling JSON")
    parser.add_argument("--headroom", type=float, default=1.5,
                        help="ceiling = headroom * measured peak "
                             "(--update-baseline; default 1.5)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="measure, then rewrite the ceiling")
    args = parser.parse_args(argv)

    report = run_cell(args.nodes, args.topology, args.strategy, args.ops)
    args.report.parent.mkdir(parents=True, exist_ok=True)
    args.report.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(
        f"scale smoke: {args.nodes} nodes / {args.topology} / "
        f"{report['engine']} engine: peak RSS {report['peak_rss_mb']:.1f} MiB "
        f"(python heap {report['tracemalloc_peak_mb']:.1f} MiB, "
        f"{report['wall_seconds']:.1f}s) -> {args.report}"
    )

    if args.update_baseline:
        ceiling = {
            "bench": "scale_smoke",
            "cell": report["cell"],
            "engine": report["engine"],
            "ceiling_mb": round(args.headroom * report["peak_rss_mb"], 1),
            "measured_peak_rss_mb": round(report["peak_rss_mb"], 1),
            "headroom": args.headroom,
        }
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        args.baseline.write_text(json.dumps(ceiling, indent=2, sort_keys=True) + "\n")
        print(f"ceiling updated: {ceiling['ceiling_mb']} MiB -> {args.baseline}")
        return 0

    try:
        baseline = json.loads(args.baseline.read_text())
    except OSError as exc:
        raise SystemExit(f"scale_smoke: cannot read {args.baseline}: {exc}") from exc
    if baseline.get("cell") != report["cell"]:
        raise SystemExit(
            "scale_smoke: the measured cell differs from the committed "
            "ceiling's cell; refresh deliberately with --update-baseline"
        )
    if baseline.get("engine") != report["engine"]:
        why = report.get("engine_reason")
        raise SystemExit(
            f"scale_smoke: this run used the {report['engine']} engine"
            + (f" ({why})" if why else "")
            + f" but the committed ceiling is the {baseline.get('engine')} "
            "engine's; not comparing"
        )
    ceiling = float(baseline["ceiling_mb"])
    print(
        f"memory ceiling: {report['peak_rss_mb']:.1f} MiB used of "
        f"{ceiling:.1f} MiB committed"
    )
    if report["peak_rss_mb"] > ceiling:
        print(
            f"FAIL: peak RSS {report['peak_rss_mb']:.1f} MiB exceeds the "
            f"committed ceiling {ceiling:.1f} MiB",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
