"""Command-line interface: regenerate any figure of the paper.

Usage::

    python -m repro list
    python -m repro fig3 [--scale quick|default|paper]
    python -m repro fig8 --scale quick --jobs 4
    python -m repro ablation-tree-degree --workload bitonic
    python -m repro ablation-embedding --workload zipf
    python -m repro fig6 --topology torus
    python -m repro xwork-zipf --json
    python -m repro xstrat --json
    python -m repro xcap --scale quick --json
    python -m repro run-all --scale quick --jobs 4 --json
    python -m repro trace-record --workload bitonic --strategy 2-4-ary \
        --side 4 --trace /tmp/bitonic.trace.gz
    python -m repro trace-replay --trace /tmp/bitonic.trace.gz --strategy fixed-home
    python -m repro loadgen --workload zipf --strategy migratory \
        --requests 20000 --rate 50000 --arrival bursty --json
    python -m repro serve --selfcheck
    python -m repro serve --port 7411

Each experiment command resolves the corresponding
:class:`repro.exp.ExperimentSpec` from the registry, shards its
independent cells across ``--jobs`` processes, and prints the table;
``--json`` additionally writes the machine-readable result file
(``benchmarks/results/<name>.<scale>.json``) that CI consumes.  Finished
cells are cached content-addressed under ``benchmarks/results/cache/`` so
re-runs and resumed sweeps skip them; ``--no-cache`` forces
recomputation.  The ``--scale`` flag (or the ``REPRO_SCALE`` environment
variable) selects the parameter set; see EXPERIMENTS.md.

``trace-record`` runs one workload with access-trace recording and saves
the trace; ``trace-replay`` re-simulates a saved trace under any strategy
× topology (every axis defaults to the recorded configuration).

``loadgen`` drives a serving session with a seeded open-loop request
stream (any registered arrival process over any workload's access mix)
and prints requests/sec plus latency percentiles; ``serve`` runs the
asyncio TCP frontend (``--selfcheck`` for a bounded self-test over a
real socket).  See ARCHITECTURE.md ("Serving").
"""

from __future__ import annotations

import argparse
import pathlib
import sys
from typing import List, Optional

from .exp import (
    EXPERIMENTS,
    MemoryCache,
    ResultCache,
    default_results_dir,
    get_spec,
    resolve_scale,
    run_experiment,
)
from .network import TOPOLOGY_KINDS
from .network.topology import make_topology_nodes

_TRACE_COMMANDS = ("trace-record", "trace-replay")
_SERVE_COMMANDS = ("serve", "loadgen")


def _serve_main(args: argparse.Namespace) -> int:
    """The serve / loadgen commands (lazy imports: the serving layer is
    not needed for figure regeneration)."""
    import json

    from .core.registry import parse_strategy_spec
    from .network.failures import parse_failure_spec
    from .network.topology import make_topology
    from .serve import ServeSession, get_arrival, run_fleet, run_loadgen

    strategy = args.strategy or "4-ary"
    try:
        parse_strategy_spec(strategy)
        if args.failures is not None:
            parse_failure_spec(args.failures)
        if args.max_queue < 1 or args.max_inflight < 1:
            raise ValueError("--max-queue and --max-inflight must be >= 1")
        if args.experiment == "loadgen":
            get_arrival(args.arrival)
        topo = make_topology(args.topology or "mesh", args.side)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    session_opts = dict(seed=args.seed, max_queue=args.max_queue,
                        max_inflight=args.max_inflight, failures=args.failures)

    if args.experiment == "serve":
        from .serve.frontend import selfcheck, serve_forever

        if args.selfcheck:
            print(json.dumps(selfcheck(topo, strategy, **session_opts)))
            return 0
        # Nothing reads a long-running server's trace: recording it would
        # grow by one op per request, forever.
        session = ServeSession(topo, strategy, record=False, **session_opts)
        serve_forever(session, args.host, args.port)
        return 0

    from .analysis.tables import format_table

    if args.requests < 1 or args.rate <= 0:
        print("error: --requests must be >= 1 and --rate > 0", file=sys.stderr)
        return 2
    if args.workers < 1:
        print("error: --workers must be >= 1", file=sys.stderr)
        return 2
    if args.workers > 1 and args.trace is not None:
        print("error: --trace needs a single session (--workers 1)",
              file=sys.stderr)
        return 2

    def make_session():
        return ServeSession(topo, strategy, **session_opts)

    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    load = dict(workload=args.workload, arrival=args.arrival, rate=args.rate,
                requests=args.requests, seed=args.seed)
    if args.workers > 1:
        fleet = run_fleet(make_session, workers=args.workers, **load)
        view, payload = fleet.fleet, fleet.to_dict()
    else:
        session = make_session()
        report = run_loadgen(session, **load)
        view = payload = report.as_dict()
    if profiler is not None:
        profiler.disable()

    results_dir = (
        pathlib.Path(args.results_dir) if args.results_dir
        else default_results_dir()
    )
    if args.trace is not None:
        path = session.trace(params=report.extra).save(args.trace)
        print(f"recorded served stream -> {path}", file=sys.stderr)
    row = {"strategy": view["strategy"], "network": view["network"]}
    if "workers" in view:  # the fleet view
        row["workers"] = view["workers"]
    row.update({
        "requests": view["requests"],
        "rejected": view["rejected"],
        "req/s": round(view["requests_per_sec"], 1),
        "p50": view["latency_p50"],
        "p95": view["latency_p95"],
        "p99": view["latency_p99"],
        "hit_rate": round(view["hit_rate"], 4),
    })
    row = _with_availability(row, view)
    print(format_table([row], list(row), title="loadgen"))
    if args.json:
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / "SERVE_loadgen.json"
        path.write_text(json.dumps(payload, indent=2, sort_keys=True))
        print(f"[loadgen] wrote {path}", file=sys.stderr)
    if profiler is not None:
        results_dir.mkdir(parents=True, exist_ok=True)
        ppath = results_dir / "SERVE_profile.pstats"
        profiler.dump_stats(ppath)
        print(f"[loadgen] wrote {ppath}", file=sys.stderr)
    return 0


def _trace_main(args: argparse.Namespace) -> int:
    """The trace-record / trace-replay commands (lazy imports: the trace
    machinery is not needed for figure regeneration)."""
    from .analysis.tables import format_table
    from .core.registry import parse_strategy_spec
    from .network.failures import parse_failure_spec
    from .network.topology import make_topology
    from .workloads import get_workload, record, replay
    from .workloads.trace import Trace, retarget_topology

    if args.trace is None:
        print("error: --trace PATH is required for trace commands", file=sys.stderr)
        return 2
    try:
        if args.strategy is not None:
            # Any registry spec works ("dynrep:threshold=3", "tree:4-8");
            # reject malformed ones before running anything.
            parse_strategy_spec(args.strategy)
        if args.failures is not None:
            parse_failure_spec(args.failures)
        if args.experiment == "trace-record":
            wl = get_workload(args.workload)
            topo = make_topology(args.topology or "mesh", args.side)
            params = None
            if args.size is not None:
                if wl.size_param is None:
                    raise ValueError(f"workload {wl.name!r} has no size parameter")
                params = {wl.size_param: args.size}
        else:
            try:
                trace = Trace.load(args.trace)
            except (OSError, EOFError, ValueError, KeyError, TypeError,
                    AttributeError) as exc:  # a missing, truncated or foreign file
                raise ValueError(f"cannot read trace {args.trace}: {exc!r}") from None
            topo = None
            if args.topology is not None:
                topo = retarget_topology(trace.header["topology"], args.topology)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.experiment == "trace-record":
        result, trace = record(
            wl, topo, args.strategy or "4-ary", seed=args.seed, params=params,
            path=args.trace, failures=args.failures,
        )
        n_ops = sum(len(stream) for stream in trace.ops)
        print(f"recorded {wl.name} on {topo.label} under {result.strategy}: "
              f"{n_ops} ops, {len(trace.creates())} variables -> {args.trace}",
              file=sys.stderr)
    else:
        result = replay(trace, topology=topo, strategy=args.strategy,
                        failures=args.failures)
    rows = [_summary_row(result)]
    print(format_table(rows, list(rows[0]), title=args.experiment))
    return 0


def _with_availability(row, counts):
    """Zero-failure tables keep the historic shape; a run that applied
    failure events adds the availability columns (from ``counts``, a
    result's or report's ``as_dict()``)."""
    from .runtime.results import AVAILABILITY

    if counts["failure_events"]:
        row.update((k, counts[k]) for k in AVAILABILITY)
    return row


def _summary_row(result):
    row = {
        "strategy": result.strategy,
        "network": result.mesh,
        "time": result.time,
        "congestion_bytes": result.congestion_bytes,
        "congestion_msgs": result.congestion_msgs,
        "total_bytes": result.total_bytes,
        "total_msgs": result.stats.total_msgs,
    }
    return _with_availability(row, result.as_dict())


def main(argv: Optional[List[str]] = None) -> int:
    from .workloads import workload_names

    workloads = workload_names()
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's figures on the simulated GCel.",
    )
    parser.add_argument("experiment",
                        choices=EXPERIMENTS + ["list", "run-all", *_TRACE_COMMANDS,
                                               *_SERVE_COMMANDS],
                        help="figure / ablation to run, 'run-all', 'list', "
                             "a trace command, or a serve command")
    parser.add_argument("--scale", choices=["quick", "default", "paper"], default=None,
                        help="parameter scale (default: $REPRO_SCALE or 'default')")
    parser.add_argument("--workload", choices=workloads, default="matmul",
                        metavar="NAME",
                        help="workload for the workload-sensitive experiments "
                             f"and trace-record ({', '.join(workloads)})")
    parser.add_argument("--topology", choices=list(TOPOLOGY_KINDS), default=None,
                        help="interconnect for topology-sensitive experiments "
                             "(bitonic figures, ablations, xwork-readfrac, "
                             "xcap; default mesh) and the trace commands; the "
                             "xtopo-*/xwork-zipf/xscale/xstrat/xfail/xadapt "
                             "experiments sweep topologies themselves")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="shard independent cells across N worker processes")
    parser.add_argument("--nodes", default=None, metavar="N[,N...]",
                        help="override the machine sizes swept by xscale "
                             "(comma-separated node counts, powers of two; "
                             "e.g. --nodes 16384,131072); only valid with "
                             "the xscale experiment")
    parser.add_argument("--json", action="store_true",
                        help="also write benchmarks/results/<name>.<scale>.json")
    parser.add_argument("--no-cache", action="store_true",
                        help="recompute every cell, ignoring cached results")
    parser.add_argument("--results-dir", default=None, metavar="DIR",
                        help="result/cache root (default: $REPRO_RESULTS_DIR "
                             "or benchmarks/results)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="trace file to write (trace-record) or read "
                             "(trace-replay); .gz compresses")
    parser.add_argument("--strategy", default=None, metavar="SPEC",
                        help="strategy for the trace commands -- any registry "
                             "spec, e.g. 2-4-ary, migratory, dynrep:threshold=3, "
                             "tree:4-8:embed=random (trace-replay default: the "
                             "recorded one)")
    parser.add_argument("--failures", default=None, metavar="SPEC",
                        help="failure-schedule spec (e.g. "
                             "linkflap:rate=0.01:seed=7, churn:nodes=0.05, "
                             "nodedown:node=3:at=0.001, none): sweeps the "
                             "xfail experiment over just that spec, applies "
                             "to the trace commands (trace-replay default: "
                             "the recorded schedule) and to every session "
                             "loadgen and serve build; 'none' is the "
                             "explicit no-op accepted everywhere")
    parser.add_argument("--side", type=int, default=4, metavar="N",
                        help="grid side for trace-record and the serve commands (default 4)")
    parser.add_argument("--size", type=int, default=None, metavar="N",
                        help="workload size for trace-record (its size "
                             "parameter, e.g. keys/ops)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for trace-record and the serve commands")
    parser.add_argument("--requests", type=int, default=10000, metavar="N",
                        help="loadgen: requests to offer (default 10000)")
    parser.add_argument("--rate", type=float, default=50000.0, metavar="R",
                        help="loadgen: offered load in requests per simulated "
                             "second (default 50000)")
    parser.add_argument("--arrival", default="poisson", metavar="NAME",
                        help="loadgen: arrival process (poisson, bursty, or "
                             "any registered name; default poisson)")
    parser.add_argument("--max-queue", type=int, default=65536, metavar="N",
                        help="serve/loadgen: ingest-queue admission bound")
    parser.add_argument("--max-inflight", type=int, default=8192, metavar="N",
                        help="serve/loadgen: in-flight request window")
    parser.add_argument("--host", default="127.0.0.1",
                        help="serve: bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=7411,
                        help="serve: TCP port (default 7411; 0 = ephemeral)")
    parser.add_argument("--selfcheck", action="store_true",
                        help="serve: run a bounded self-test over a real "
                             "socket and exit (prints JSON)")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="loadgen: shard the request stream across N "
                             "engine replicas in worker processes "
                             "(default 1 = single session, no fork)")
    parser.add_argument("--profile", action="store_true",
                        help="loadgen: run under cProfile and write "
                             "SERVE_profile.pstats next to the JSON report")
    args = parser.parse_args(argv)
    if args.experiment == "list":
        print("\n".join(EXPERIMENTS))
        return 0
    if args.experiment in _TRACE_COMMANDS:
        return _trace_main(args)
    if args.experiment in _SERVE_COMMANDS:
        return _serve_main(args)
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")
    try:
        scale = resolve_scale(args.scale)
    except ValueError as exc:
        parser.error(str(exc))
    topology = args.topology or "mesh"
    param_overrides = None
    if args.nodes is not None:
        if args.experiment != "xscale":
            parser.error("--nodes only applies to the xscale experiment")
        try:
            nodes = tuple(int(tok) for tok in args.nodes.split(","))
        except ValueError:
            parser.error(f"--nodes expects comma-separated integers, got {args.nodes!r}")
        try:
            for n in nodes:
                # The cheapest topology to build enforces the node-count rule.
                make_topology_nodes("hypercube", n)
        except ValueError as exc:
            parser.error(f"--nodes: {exc}")
        param_overrides = {"nodes": nodes}
    if args.failures is not None:
        from .network.failures import parse_failure_spec

        try:
            parse_failure_spec(args.failures)
        except ValueError as exc:
            parser.error(str(exc))
        if args.experiment == "xfail":
            param_overrides = {**(param_overrides or {}),
                               "failures": (args.failures,)}
        elif args.failures != "none":
            # "none" is a universal no-op (the zero-failure fast path is
            # byte-identical); an actual schedule only drives xfail.
            parser.error("--failures SPEC only applies to the xfail "
                         "experiment, the trace commands and loadgen/serve "
                         "(--failures none is accepted everywhere)")

    results_dir = (
        pathlib.Path(args.results_dir) if args.results_dir else default_results_dir()
    )
    names = EXPERIMENTS if args.experiment == "run-all" else [args.experiment]
    if args.no_cache:
        # run-all still dedups cells shared across experiments (Figures
        # 8/9/10) in memory; single experiments recompute everything.
        cache = MemoryCache() if args.experiment == "run-all" else None
    else:
        cache = ResultCache(results_dir / "cache")
    for i, name in enumerate(names):
        spec = get_spec(name)
        if topology != "mesh" and not spec.uses_topology:
            why = (
                "sweeps its topologies internally"
                if "topologies" in spec.params_for(scale, args.workload)
                else "experiment is mesh-bound"
            )
            print(
                f"[{name}] note: {why}; --topology {topology} has no effect",
                file=sys.stderr,
            )
        try:
            run = run_experiment(
                name, scale=scale, workload=args.workload, jobs=args.jobs,
                cache=cache, topology=topology, param_overrides=param_overrides,
            )
        except ValueError as exc:
            # run-all must not abort the sweep over one incompatible axis
            # combination (e.g. --topology hypercube with a matmul-workload
            # ablation); a single named experiment still fails loudly.
            if args.experiment != "run-all":
                raise
            print(f"[{name}] skipped: {exc}", file=sys.stderr)
            continue
        if i:
            print()
        print(run.table())
        if run.peak_rss_mb is not None:
            print(f"[{name}] peak worker RSS: {run.peak_rss_mb:.1f} MiB",
                  file=sys.stderr)
        if args.json:
            path = run.write_json(results_dir)
            print(
                f"[{name}] wrote {path} "
                f"({run.cells_cached}/{run.cells_total} cells cached)",
                file=sys.stderr,
            )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
