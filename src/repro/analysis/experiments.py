"""Experiment cells: the measured unit of every figure of the paper.

A **cell function** (``*_cell``) is a pure function of JSON-serializable
parameters that performs one independent simulation run (or one tightly
coupled group such as a hand-optimized baseline plus the strategies
measured against it) and returns serializable row dicts (strategy, sweep
parameter, congestion, time, ratios).  Cells are the unit of work of the
:mod:`repro.exp` orchestrator: they are what gets sharded across the
``multiprocessing`` pool and content-addressed by the result cache, so a
cell must never hide a sweep loop.  Which cells make up an experiment,
and how its table looks, is declared once, in
:mod:`repro.exp.registry`; run one with
``repro.exp.run_experiment(name, scale=..., param_overrides={...})``.

:func:`workload_cell` is the general cell -- any registered workload
under any strategy spec, topology, embedding, barrier, memory capacity
and failure schedule.  The other five exist because they are genuinely
different programs: :func:`fig2_cell` and :func:`remapping_cell` run
custom SPMD programs, :func:`handopt_cell` pairs the hand-optimized
baseline with the strategies so the rows can carry ratios, and
:func:`barneshut_cell` / :func:`barneshut_scaling_cell` carry the
per-phase breakdown Figures 9-11 derive from.

The sizes each figure runs at, per scale, live on its registry spec.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.registry import get_strategy, parse_strategy_spec
from ..metrics import MetricsBundle
from ..network.machine import GCEL, MachineModel
from ..network.mesh import Mesh2D
from ..network.topology import make_topology, make_topology_nodes
from ..runtime.results import RunResult
from ..workloads import get_workload

__all__ = [
    # cell functions (the repro.exp orchestrator's unit of work)
    "workload_cell",
    "fig2_cell",
    "handopt_cell",
    "barneshut_cell",
    "barneshut_scaling_cell",
    "remapping_cell",
    # projections of the Barnes-Hut cell rows
    "fig9_rows_from_cells",
    "fig10_rows_from_cells",
]

Row = Dict[str, object]


# --------------------------------------------------------------------- fig 2
def fig2_cell(
    strategy: str,
    side: int = 16,
    block_entries: int = 1024,
    machine: MachineModel = GCEL,
    seed: int = 0,
) -> List[Row]:
    """One Figure 2 cell: distribute ONE block to its row and column under
    ``strategy`` and report total load / congestion / time.

    Figure 2 is analytic: the paper derives total load Theta(m*P) for
    fixed home vs Theta(m*sqrtP*logP) for the access tree.  The cell
    creates a single variable on a center processor and lets every
    processor of its row and column read it once."""
    from ..runtime.launcher import Runtime

    mesh = Mesh2D(side, side)
    strat = get_strategy(strategy, mesh, seed=seed)
    owner = mesh.node(side // 2, side // 2)
    handles: Dict[str, object] = {}

    def program(env):
        if env.rank == owner:
            handles["x"] = env.create("block", block_entries * machine.word_bytes, value=42)
        yield from env.barrier(phase="distribute")
        r, c = env.coord
        ro, co = env.mesh.coord(owner)
        if (r == ro or c == co) and env.rank != owner:
            v = yield from env.read(handles["x"])
            assert v == 42
        yield from env.barrier(phase="done")

    rt = Runtime(mesh, strat, machine, seed=seed)
    res = rt.run(program)
    return [
        {
            "strategy": strategy,
            "workload": "fig2-flow",
            "mesh": f"{side}x{side}",
            "total_bytes": res.stats.total_bytes,
            "congestion_bytes": res.stats.congestion_bytes,
            "time": res.time,
            **res.metrics.to_row(),
        }
    ]


# ------------------------------------------------------------- figs 3/4, 6/7
def handopt_cell(
    workload: str,
    side: int,
    size: int,
    strategies: Sequence[str],
    labels: Sequence[Tuple[str, str]],
    machine: MachineModel = GCEL,
    seed: int = 0,
    embedding: str = "modified",
    topology: str = "mesh",
) -> List[Row]:
    """One baseline-plus-ratios cell over any workload with
    ``has_handopt``: the hand-optimized baseline plus every strategy in
    ``strategies`` on one (topology, side, size) point.  Baseline and
    measurements stay in one cell because the ratios need the baseline.

    ``size`` is the workload's size parameter (matmul block entries,
    bitonic keys per processor).  ``labels`` is the row's label columns,
    in order, as ``(column, field)`` pairs over the point's fields
    ``topology``, ``network``, ``nodes``, ``side`` and ``size``.
    """
    wl = get_workload(workload)
    topo = make_topology(topology, side)
    point = {
        "topology": topology,
        "network": topo.label,
        "nodes": topo.n_nodes,
        "side": side,
        "size": size,
    }
    rows: List[Row] = []
    base = None
    for name in ("handopt", *strategies):
        res = wl.run(
            topo, name, machine=machine, seed=seed, embedding=embedding,
            params={wl.size_param: size},
        )
        if base is None:
            base = res
        rows.append(
            {
                "strategy": name,
                "workload": workload,
                **{column: point[field] for column, field in labels},
                "congestion_bytes": res.congestion_bytes,
                "time": res.time,
                "congestion_ratio": res.congestion_bytes / base.congestion_bytes,
                "time_ratio": res.time / base.time,
                **res.metrics.to_row(),
            }
        )
    return rows


# --------------------------------------------------------------------- fig 8
FIG8_STRATEGIES = ("fixed-home", "16-ary", "4-16-ary", "4-ary", "2-ary")


def _barneshut_row(
    mesh: Mesh2D,
    strategy: str,
    bodies: int,
    steps: int,
    warm: int,
    machine: MachineModel,
    seed: int,
) -> Tuple[Row, RunResult]:
    """One Barnes-Hut run with its serializable row, including the phase
    breakdown (tree building / force computation) that Figures 9/10 and the
    Figure 11 communication time derive from."""
    res = get_workload("barneshut").run(
        mesh,
        strategy,
        machine=machine,
        seed=seed,
        params={"bodies": bodies, "steps": steps, "warm": warm},
    )
    row: Row = {
        "strategy": strategy,
        "workload": "barneshut",
        "bodies": bodies,
        "congestion_msgs": res.congestion_msgs,
        "time": res.time,
        **res.metrics.to_row(),
    }
    tb = res.phase("treebuild")
    fc = res.phase("force")
    rt = res.extra.get("runtime")
    acc = rt._phase_acc.get("force") if rt is not None else None
    compute = float(acc.compute.max()) if acc is not None else 0.0
    if tb is not None:
        row["treebuild_congestion_msgs"] = tb.stats.congestion_msgs
        row["treebuild_time"] = tb.time
    if fc is not None:
        row["force_congestion_msgs"] = fc.stats.congestion_msgs
        row["force_time"] = fc.time
        row["force_comm_share"] = 1.0 - (compute / fc.time if fc.time else 0.0)
    row["force_local_compute"] = compute
    return row, res


def barneshut_cell(
    strategy: str,
    bodies: int,
    side: int = 8,
    steps: int = 3,
    warm: int = 1,
    machine: MachineModel = GCEL,
    seed: int = 0,
) -> List[Row]:
    """One Figure 8 cell: a single (strategy, body count) Barnes-Hut run,
    phase breakdown included so Figures 9/10 are pure projections of the
    same cell (and share its cache entry)."""
    row, _ = _barneshut_row(Mesh2D(side, side), strategy, bodies, steps, warm, machine, seed)
    return [row]


def fig9_rows_from_cells(rows: Iterable[Row]) -> List[Row]:
    """Figure 9 (tree-building phase) projected from Barnes-Hut cell rows."""
    return [
        {
            "strategy": r["strategy"],
            "workload": "barneshut",
            "bodies": r["bodies"],
            "congestion_msgs": r["treebuild_congestion_msgs"],
            "time": r["treebuild_time"],
            **MetricsBundle.carry_row(r),
        }
        for r in rows
        if "treebuild_congestion_msgs" in r
    ]


def fig10_rows_from_cells(rows: Iterable[Row]) -> List[Row]:
    """Figure 10 (force phase) projected from Barnes-Hut cell rows."""
    return [
        {
            "strategy": r["strategy"],
            "workload": "barneshut",
            "bodies": r["bodies"],
            "congestion_msgs": r["force_congestion_msgs"],
            "time": r["force_time"],
            "local_compute": r["force_local_compute"],
            "comm_share": r["force_comm_share"],
            **MetricsBundle.carry_row(r),
        }
        for r in rows
        if "force_congestion_msgs" in r
    ]


def barneshut_scaling_cell(
    strategy: str,
    mesh_rows: int,
    mesh_cols: int,
    bodies_per_proc: int,
    steps: int = 3,
    warm: int = 1,
    machine: MachineModel = GCEL,
    seed: int = 0,
) -> List[Row]:
    """One Figure 11 cell: Barnes-Hut with N = bodies_per_proc * P on one
    (mesh, strategy) point; reports congestion, execution time and
    communication time (execution minus force-phase local computation)."""
    mesh = Mesh2D(mesh_rows, mesh_cols)
    n = bodies_per_proc * mesh.n_nodes
    row, res = _barneshut_row(mesh, strategy, n, steps, warm, machine, seed)
    return [
        {
            "strategy": strategy,
            "workload": "barneshut",
            "mesh": f"{mesh_rows}x{mesh_cols}",
            "procs": mesh.n_nodes,
            "bodies": n,
            "congestion_msgs": res.congestion_msgs,
            "time": res.time,
            "comm_time": res.time - row["force_local_compute"],
            **res.metrics.to_row(),
        }
    ]


# ------------------------------------------------- the general workload cell
def workload_cell(
    workload: str,
    strategy: str,
    topology: str = "mesh",
    side: Optional[int] = None,
    nodes: Optional[int] = None,
    params: Optional[Dict[str, object]] = None,
    embedding: str = "modified",
    barrier: str = "tree",
    capacity_bytes: Optional[float] = None,
    failures: Optional[str] = None,
    label: Optional[Dict[str, object]] = None,
    machine: MachineModel = GCEL,
    seed: int = 0,
) -> List[Row]:
    """One run of any registered workload: one (workload, strategy spec,
    topology) point under one embedding, barrier service, per-processor
    copy capacity and failure schedule.

    The machine is ``side x side`` processors of ``topology`` or, for the
    scale axis, a ``nodes``-processor one (power of two).  ``params`` are
    the workload's own parameters (``block_entries``, ``keys``, ``ops``,
    ``alpha``, ...); ``label`` is the dict of swept-axis columns the
    experiment wants to lead the row with (``{"barrier": "central"}``,
    ``{"capacity_copies": "unbounded"}``).

    Every run emits the same row: ``label``, the run's identity, its
    ``params``, then everything measured -- absolute congestion, traffic
    and time (no ratio columns: a general run has no hand-optimized
    baseline), startups, locks, the availability counters (all zero
    without a failure schedule) and the shared
    :meth:`~repro.metrics.MetricsBundle.to_row` metric suite.  Each
    experiment's ``columns`` pick what its table shows.
    """
    if (side is None) == (nodes is None):
        raise ValueError("workload_cell needs exactly one of side= / nodes=")
    topo = (
        make_topology(topology, side) if nodes is None
        else make_topology_nodes(topology, nodes)
    )
    family, strategy_params = parse_strategy_spec(strategy)
    res = get_workload(workload).run(
        topo, strategy, machine=machine, seed=seed, embedding=embedding,
        params=params, barrier=barrier, capacity_bytes=capacity_bytes,
        failures=failures,
    )
    row: Row = dict(label or {})
    row.update(
        workload=workload,
        strategy=strategy,
        strategy_family=family.name,
        strategy_params=strategy_params,
        topology=topology,
        network=topo.label,
        nodes=topo.n_nodes,
    )
    row.update(params or {})
    row.update(
        congestion_bytes=res.congestion_bytes,
        congestion_msgs=res.congestion_msgs,
        congestion_per_node=res.congestion_bytes / topo.n_nodes,
        total_bytes=res.stats.total_bytes,
        total_msgs=res.stats.total_msgs,
        ctrl_msgs=res.stats.ctrl_msgs,
        max_startups=res.stats.max_startups,
        time=res.time,
        lock_acquisitions=res.lock_acquisitions,
        requests_failed=res.requests_failed,
        requests_stalled=res.requests_stalled,
        requests_retried=res.requests_retried,
        repairs=res.repairs,
        failure_events=res.failure_events,
        **res.metrics.to_row(),
    )
    return [row]


# ------------------------------------------------------ remapping ablation
def remapping_cell(
    threshold: Optional[int],
    side: int = 8,
    payload: int = 1024,
    rounds: int = 8,
    strategy: str = "4-ary",
    machine: MachineModel = GCEL,
    seed: int = 0,
) -> List[Row]:
    """One remapping ablation cell: access-tree node remapping (omitted
    by the paper) at one remap ``threshold`` -- a tree node's host is
    re-randomized after that many stops; ``None`` switches it off.

    The paper's applications never make a tree node hot (path replication
    serves later readers locally -- matmul's interior nodes see <= 3 stops
    each), so the cell runs the one pattern that does: a single variable
    repeatedly broadcast-read by every processor and invalidated by its
    owner (the Barnes-Hut root-cell pattern).  The paper's conjecture --
    "the constant overhead induced by this procedure will not be retained
    in practice" -- can then be checked on measured time."""
    from ..runtime.launcher import Runtime

    mesh = Mesh2D(side, side)
    strat = get_strategy(strategy, mesh, seed=seed, remap_threshold=threshold)
    handles: Dict[str, object] = {}

    def program(env):
        if env.rank == 0:
            handles["x"] = env.create("hot", payload, value=0)
        yield from env.barrier(phase="rounds")
        for r in range(rounds):
            v = yield from env.read(handles["x"])
            assert v == r
            yield from env.barrier()
            if env.rank == 0:
                yield from env.write(handles["x"], r + 1)
            yield from env.barrier()
        yield from env.barrier(phase="done")

    rt = Runtime(mesh, strat, machine, seed=seed)
    res = rt.run(program)
    return [
        {
            "remap_threshold": threshold if threshold is not None else "off",
            "workload": "hot-broadcast",
            "remaps": strat.remaps,
            "congestion_bytes": res.stats.congestion_bytes,
            "time": res.time,
            **res.metrics.to_row(),
        }
    ]


