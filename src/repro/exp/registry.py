"""The experiment registry: one declarative spec per figure / ablation.

This replaces the historic ``if/elif`` dispatch chain of
``repro.__main__`` and its duplicated column tables.  Each spec resolves
CLI-level knobs (scale, app) into parameters, expands them into
independent :class:`~repro.exp.spec.Cell`\\ s for the parallel runner,
and carries the presentation metadata (columns, title) the CLI and the
JSON emitter share.

Figures 9 and 10 are *projections* of the Figure 8 runs (the paper
derives them from the same executions), so their specs expand to the
same cells as Figure 8 -- under a warm cache they cost nothing.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..analysis import experiments as E
from ..apps.barneshut import CELL_BYTES
from ..network.failures import parse_failure_spec
from ..workloads import get_workload
from .spec import Cell, ExperimentSpec

__all__ = ["REGISTRY", "EXPERIMENTS", "get_spec"]

Params = Dict[str, Any]

#: Strategies measured per figure (the paper's selections).
FIG3_STRATEGIES = ("fixed-home", "4-ary")
FIG6_STRATEGIES = ("fixed-home", "2-4-ary")
FIG11_STRATEGIES = ("fixed-home", "4-8-ary")
TREE_DEGREE_VARIANTS = ("2-ary", "2-4-ary", "4-ary", "4-16-ary", "16-ary")
#: Strategies compared at matched node counts across interconnects.
XTOPO_STRATEGIES = ("fixed-home", "4-ary", "2-4-ary")
#: Strategies swept over the synthetic-workload axes.
XWORK_STRATEGIES = ("fixed-home", "4-ary", "2-4-ary")
#: Strategies compared on the thousands-of-nodes scale axis (the node
#: counts live in analysis.scale_params("xscale", ...)).
XSCALE_STRATEGIES = ("fixed-home", "2-4-ary")
#: Strategy families compared head to head by the xstrat sweep: the
#: paper's two (an access tree per application family + fixed home) plus
#: the post-paper migration and dynamic-replication schemes.
XSTRAT_STRATEGIES = ("fixed-home", "4-ary", "2-4-ary", "migratory", "dynrep")
#: Read fractions of the xstrat zipf cells (read-heavy like the paper's
#: apps, and the mixed regime where invalidation traffic bites).
XSTRAT_READ_FRACS = (0.9, 0.5)
#: Strategies swept over the capacity-pressure axis (2-ary is the
#: paper's Figure 8 kink strategy; migratory cannot evict by design).
XCAP_STRATEGIES = ("fixed-home", "2-ary", "2-4-ary", "dynrep", "migratory")
#: Strategy families swept over the failure axis: every family with
#: repair hooks (all five -- the xfail sweep is the adversarial proof
#: that each survives link flaps and node churn).
XFAIL_STRATEGIES = ("fixed-home", "4-ary", "2-4-ary", "migratory", "dynrep")
#: Strategies compared on the adaptation axis: the online-adaptive
#: scheme against its threshold-counting ancestor, the static baseline
#: and the paper's access tree, under a drifting hotspot.
XADAPT_STRATEGIES = ("adaptive", "dynrep", "fixed-home", "4-ary")
#: Zipf skew exponents of the xwork-zipf sweep (0 = uniform).
XWORK_ZIPF_ALPHAS = (0.0, 0.8, 1.5)
#: Read fractions of the xwork-readfrac sweep (1.0 = read-only).
XWORK_READ_FRACS = (0.5, 0.8, 0.95, 1.0)
#: The zipf hotspot the capacity and failure axes hold fixed (64
#: variables of 256 bytes, read-heavy like the paper's apps); only the
#: per-processor op count scales.
ZIPF_HOTSPOT = {"n_vars": 64, "alpha": 0.8, "read_frac": 0.9, "payload": 256}


def _scale_title(name: str) -> Callable[[Params, Optional[str], str], str]:
    def title(params: Params, scale: Optional[str], workload: str) -> str:
        return f"{name} ({scale or 'default'} scale)"

    return title


def _fixed_title(text: str) -> Callable[[Params, Optional[str], str], str]:
    return lambda params, scale, workload: text


def _scaled_params(figure: str) -> Callable[[Optional[str], str], Params]:
    def make(scale: Optional[str], workload: str) -> Params:
        return E.scale_params(figure, scale)

    return make


def _workload_params(**defaults: Any) -> Callable[[Optional[str], str], Params]:
    """Parameters for the ``--workload``-sensitive ablations: the generic
    ``size`` knob keeps its historic value for the paper apps and falls
    back to the workload's own default size otherwise (a synthetic kernel
    sized like a matrix block would run for minutes)."""

    def make(scale: Optional[str], workload: str) -> Params:
        params = dict(defaults, workload=workload)
        if workload not in ("matmul", "bitonic"):
            wl = get_workload(workload)
            if wl.size_param is not None:
                params["size"] = wl.defaults[wl.size_param]
        return params

    return make


def _fixed_params(**defaults: Any) -> Callable[[Optional[str], str], Params]:
    def make(scale: Optional[str], workload: str) -> Params:
        return dict(defaults)

    return make


# ------------------------------------------------------------- cell builders
def _run(workload: str, strategy: str, **kwargs: Any) -> Cell:
    """One :func:`~repro.analysis.experiments.workload_cell` run."""
    return Cell.make(E.workload_cell, workload=workload, strategy=strategy,
                     seed=0, **kwargs)


def _size_params(workload: str, size: int) -> Params:
    """The generic ``size`` knob of the ``--workload``-sensitive ablations
    as the workload's own size parameter (``block_entries`` for matmul,
    ``keys`` for bitonic, ``ops`` for the synthetic kernels, ...)."""
    size_param = get_workload(workload).size_param
    if size_param is None:
        raise ValueError(f"workload {workload!r} has no size parameter")
    return {size_param: size}


def _fig2_cells(p: Params) -> List[Cell]:
    return [
        Cell.make(E.fig2_cell, strategy=name, side=p["side"],
                  block_entries=p["block_entries"], seed=0)
        for name in ("fixed-home", "4-ary")
    ]


def _handopt(workload: str, labels: Tuple[Tuple[str, str], ...], **kwargs: Any) -> Cell:
    """One :func:`~repro.analysis.experiments.handopt_cell`: the
    hand-optimized baseline plus the strategies, with ratios."""
    return Cell.make(E.handopt_cell, workload=workload, labels=labels,
                     seed=0, **kwargs)


#: Label columns of the matmul / bitonic rows, as (column, point field).
_MATMUL_LABELS = (("side", "side"), ("block", "size"))
_BITONIC_LABELS = (("topology", "topology"), ("network", "network"),
                   ("nodes", "nodes"), ("side", "side"), ("keys", "size"))


def _fig3_cells(p: Params) -> List[Cell]:
    return [
        _handopt("matmul", _MATMUL_LABELS, side=p["side"], size=block,
                 strategies=FIG3_STRATEGIES)
        for block in p["blocks"]
    ]


def _fig4_cells(p: Params) -> List[Cell]:
    return [
        _handopt("matmul", _MATMUL_LABELS, side=side, size=p["block_entries"],
                 strategies=FIG3_STRATEGIES)
        for side in p["sides"]
    ]


def _fig6_cells(p: Params) -> List[Cell]:
    return [
        _handopt("bitonic", _BITONIC_LABELS, side=p["side"], size=keys,
                 strategies=FIG6_STRATEGIES, topology=p.get("topology", "mesh"))
        for keys in p["keys"]
    ]


def _fig7_cells(p: Params) -> List[Cell]:
    return [
        _handopt("bitonic", _BITONIC_LABELS, side=side, size=p["keys"],
                 strategies=FIG6_STRATEGIES, topology=p.get("topology", "mesh"))
        for side in p["sides"]
    ]


def _xtopo_cells(p: Params) -> List[Cell]:
    return [
        _handopt("bitonic", _BITONIC_LABELS, side=p["side"], size=p["keys"],
                 strategies=p["strategies"], topology=topology)
        for topology in p["topologies"]
    ]


def _xtopo_params(*topologies: str) -> Callable[[Optional[str], str], Params]:
    def make(scale: Optional[str], app: str) -> Params:
        params = E.scale_params("xtopo", scale)
        params["topologies"] = list(topologies)
        params["strategies"] = XTOPO_STRATEGIES
        return params

    return make


def _fig8_cells(p: Params) -> List[Cell]:
    return [
        Cell.make(E.barneshut_cell, strategy=name, bodies=n, side=p["side"],
                  steps=p["steps"], warm=p["warm"], seed=0)
        for n in p["bodies"]
        for name in E.FIG8_STRATEGIES
    ]


def _fig11_cells(p: Params) -> List[Cell]:
    return [
        Cell.make(E.barneshut_scaling_cell, strategy=name, mesh_rows=r, mesh_cols=c,
                  bodies_per_proc=p["bodies_per_proc"], steps=p["steps"],
                  warm=p["warm"], seed=0)
        for r, c in p["meshes"]
        for name in FIG11_STRATEGIES
    ]


def _tree_degree_cells(p: Params) -> List[Cell]:
    return [
        _run(p["workload"], name, topology=p.get("topology", "mesh"),
             side=p["side"], params=_size_params(p["workload"], p["size"]))
        for name in TREE_DEGREE_VARIANTS
    ]


def _embedding_cells(p: Params) -> List[Cell]:
    return [
        _run(p["workload"], p["strategy"], topology=p.get("topology", "mesh"),
             side=p["side"], params=_size_params(p["workload"], p["size"]),
             embedding=embedding, label={"embedding": embedding})
        for embedding in ("modified", "random")
    ]


def _xwork_zipf_params(scale: Optional[str], workload: str) -> Params:
    params = E.scale_params("xwork", scale)
    params["topologies"] = ["mesh", "torus", "hypercube"]
    params["alphas"] = list(XWORK_ZIPF_ALPHAS)
    params["read_frac"] = 0.9
    params["strategies"] = list(XWORK_STRATEGIES)
    return params


def _xwork_zipf_cells(p: Params) -> List[Cell]:
    return [
        _run("zipf", name, topology=topology, side=p["side"],
             params={"alpha": alpha, "ops": p["ops"],
                     "read_frac": p["read_frac"]})
        for topology in p["topologies"]
        for alpha in p["alphas"]
        for name in p["strategies"]
    ]


def _xwork_readfrac_params(scale: Optional[str], workload: str) -> Params:
    params = E.scale_params("xwork", scale)
    params["read_fracs"] = list(XWORK_READ_FRACS)
    params["alpha"] = 0.8
    params["strategies"] = list(XWORK_STRATEGIES)
    return params


def _xwork_readfrac_cells(p: Params) -> List[Cell]:
    return [
        _run("zipf", name, topology=p.get("topology", "mesh"), side=p["side"],
             params={"alpha": p["alpha"], "ops": p["ops"],
                     "read_frac": read_frac})
        for read_frac in p["read_fracs"]
        for name in p["strategies"]
    ]


def _xscale_params(scale: Optional[str], workload: str) -> Params:
    params = E.scale_params("xscale", scale)
    params["topologies"] = ["mesh", "torus", "hypercube"]
    params["strategies"] = list(XSCALE_STRATEGIES)
    return params


def _xscale_cells(p: Params) -> List[Cell]:
    return [
        _run("zipf", name, topology=topology, nodes=nodes,
             params={"n_vars": 256, "ops": p["ops"], "alpha": 0.8,
                     "read_frac": 0.9})
        for nodes in p["nodes"]
        for topology in p["topologies"]
        for name in p["strategies"]
    ]


def _xstrat_params(scale: Optional[str], workload: str) -> Params:
    params = E.scale_params("xstrat", scale)
    params["topologies"] = ["mesh", "torus", "hypercube"]
    params["strategies"] = list(XSTRAT_STRATEGIES)
    params["read_fracs"] = list(XSTRAT_READ_FRACS)
    return params


def _xstrat_cells(p: Params) -> List[Cell]:
    # read_frac is a display column of the xstrat table; the paper apps
    # have no such knob, so their rows carry it blank (the run-all
    # contract asserts every display column on every row).
    no_knob = {"read_frac": ""}
    cells: List[Cell] = []
    for topology in p["topologies"]:
        for name in p["strategies"]:
            cells.append(_run("bitonic", name, topology=topology, side=p["side"],
                              params={"keys": p["keys"]}, label=no_knob))
            for read_frac in p["read_fracs"]:
                cells.append(_run("zipf", name, topology=topology, side=p["side"],
                                  params={"ops": p["ops"], "alpha": 0.8,
                                          "read_frac": read_frac}))
    for name in p["strategies"]:
        # The paper's matmul needs true 2-D grid coordinates: mesh only.
        cells.append(_run("matmul", name, topology="mesh", side=p["side"],
                          params={"block_entries": p["block"]}, label=no_knob))
    return cells


def _xcap_params(scale: Optional[str], workload: str) -> Params:
    params = E.scale_params("xcap", scale)
    params["strategies"] = list(XCAP_STRATEGIES)
    return params


def _capacity(copies: Optional[float], copy_bytes: int) -> Params:
    """``workload_cell`` arguments for a per-processor copy capacity of
    ``copies`` copies of ``copy_bytes`` each (``None`` = unbounded, the
    paper's default situation): the byte budget, and both forms as the
    row's leading columns."""
    capacity_bytes = None if copies is None else copies * copy_bytes
    return {
        "capacity_bytes": capacity_bytes,
        "label": {"capacity_copies": "unbounded" if copies is None else copies,
                  "capacity_bytes": capacity_bytes},
    }


def _xcap_cells(p: Params) -> List[Cell]:
    return [
        _run("zipf", name, topology=p.get("topology", "mesh"), side=p["side"],
             params=dict(ZIPF_HOTSPOT, ops=p["ops"]),
             **_capacity(cap, ZIPF_HOTSPOT["payload"]))
        for cap in p["capacities"]
        for name in p["strategies"]
    ]


def _xfail_params(scale: Optional[str], workload: str) -> Params:
    params = E.scale_params("xfail", scale)
    params["topologies"] = ["mesh", "torus", "hypercube"]
    params["strategies"] = list(XFAIL_STRATEGIES)
    params["failures"] = list(params["failures"])
    return params


def _xfail_cells(p: Params) -> List[Cell]:
    return [
        _run("zipf", name, topology=topology, side=p["side"],
             params=dict(ZIPF_HOTSPOT, ops=p["ops"]), failures=failures,
             label={"failures": failures,
                    "failure_model": parse_failure_spec(failures)[0].name})
        for failures in p["failures"]
        for topology in p["topologies"]
        for name in p["strategies"]
    ]


def _xadapt_params(scale: Optional[str], workload: str) -> Params:
    params = E.scale_params("xadapt", scale)
    params["topologies"] = ["mesh", "torus", "hypercube"]
    params["strategies"] = list(XADAPT_STRATEGIES)
    params["drifts"] = list(params["drifts"])
    return params


def _xadapt_cells(p: Params) -> List[Cell]:
    return [
        _run("hotspot-drift", name, topology=topology, side=p["side"],
             params={"n_vars": 64, "ops": p["ops"], "alpha": 1.2,
                     "read_frac": 0.95, "payload": 256, "drift": drift,
                     "shift": 0},
             label={"drift": drift})
        for drift in p["drifts"]
        for topology in p["topologies"]
        for name in p["strategies"]
    ]


def _invalidation_cells(p: Params) -> List[Cell]:
    return [
        _run("matmul", name, side=p["side"],
             params={"block_entries": p["block_entries"], "variant": variant})
        for name in p["strategies"]
        for variant in ("square", "general")
    ]


def _remapping_cells(p: Params) -> List[Cell]:
    return [
        Cell.make(E.remapping_cell, threshold=threshold, side=p["side"],
                  payload=p["payload"], rounds=p["rounds"],
                  strategy=p["strategy"], seed=0)
        for threshold in p["thresholds"]
    ]


def _barrier_cells(p: Params) -> List[Cell]:
    return [
        _run("bitonic", p["strategy"], topology=p.get("topology", "mesh"),
             side=p["side"], params={"keys": p["keys"]}, barrier=kind,
             label={"barrier": kind})
        for kind in ("tree", "central")
    ]


def _bounded_memory_cells(p: Params) -> List[Cell]:
    return [
        _run("barneshut", p["strategy"], side=p["side"],
             params={"bodies": p["bodies"], "steps": 2, "warm": 1},
             **_capacity(cap, CELL_BYTES))
        for cap in p["capacity_copies"]
    ]


def _derive_fig9(rows, params):
    return E.fig9_rows_from_cells(rows)


def _derive_fig10(rows, params):
    return E.fig10_rows_from_cells(rows)


REGISTRY: Dict[str, ExperimentSpec] = {
    spec.name: spec
    for spec in [
        ExperimentSpec(
            name="fig2",
            columns=("strategy", "mesh", "total_bytes", "congestion_bytes", "time"),
            make_params=_scaled_params("fig2"),
            make_cells=_fig2_cells,
            title=_scale_title("fig2"),
        ),
        ExperimentSpec(
            name="fig3",
            columns=("strategy", "block", "congestion_ratio", "time_ratio"),
            make_params=_scaled_params("fig3"),
            make_cells=_fig3_cells,
            title=_scale_title("fig3"),
        ),
        ExperimentSpec(
            name="fig4",
            columns=("strategy", "side", "congestion_ratio", "time_ratio"),
            make_params=_scaled_params("fig4"),
            make_cells=_fig4_cells,
            title=_scale_title("fig4"),
        ),
        ExperimentSpec(
            name="fig6",
            columns=("strategy", "keys", "congestion_ratio", "time_ratio"),
            make_params=_scaled_params("fig6"),
            make_cells=_fig6_cells,
            title=_scale_title("fig6"),
            uses_topology=True,
        ),
        ExperimentSpec(
            name="fig7",
            columns=("strategy", "side", "congestion_ratio", "time_ratio"),
            make_params=_scaled_params("fig7"),
            make_cells=_fig7_cells,
            title=_scale_title("fig7"),
            uses_topology=True,
        ),
        ExperimentSpec(
            name="xtopo-torus",
            columns=("topology", "network", "strategy", "congestion_ratio",
                     "time_ratio", "congestion_bytes", "time"),
            make_params=_xtopo_params("mesh", "torus"),
            make_cells=_xtopo_cells,
            title=_fixed_title("cross-topology: bitonic on mesh vs torus (256 nodes)"),
        ),
        ExperimentSpec(
            name="xtopo-hypercube",
            columns=("topology", "network", "strategy", "congestion_ratio",
                     "time_ratio", "congestion_bytes", "time"),
            make_params=_xtopo_params("mesh", "hypercube"),
            make_cells=_xtopo_cells,
            title=_fixed_title("cross-topology: bitonic on mesh vs hypercube (256 nodes)"),
        ),
        ExperimentSpec(
            name="xwork-zipf",
            columns=("topology", "alpha", "strategy", "congestion_bytes",
                     "total_bytes", "time", "hit_rate"),
            make_params=_xwork_zipf_params,
            make_cells=_xwork_zipf_cells,
            title=_fixed_title(
                "cross-workload: Zipf hotspot skew sweep "
                "(64 nodes, mesh+torus+hypercube)"
            ),
        ),
        ExperimentSpec(
            name="xwork-readfrac",
            columns=("read_frac", "strategy", "congestion_bytes",
                     "total_bytes", "time", "hit_rate"),
            make_params=_xwork_readfrac_params,
            make_cells=_xwork_readfrac_cells,
            title=_fixed_title(
                "cross-workload: read-fraction sweep (zipf hotspot, 64 nodes)"
            ),
            uses_topology=True,
        ),
        ExperimentSpec(
            name="xscale",
            columns=("nodes", "topology", "strategy", "congestion_bytes",
                     "congestion_per_node", "total_bytes", "time", "hit_rate"),
            make_params=_xscale_params,
            make_cells=_xscale_cells,
            title=_fixed_title(
                "scale axis: zipf hotspot at 1024-4096 nodes "
                "(mesh+torus+hypercube, fixed-home vs 2-4-ary)"
            ),
        ),
        ExperimentSpec(
            name="xstrat",
            columns=("workload", "topology", "strategy", "read_frac",
                     "congestion_bytes", "total_bytes", "time", "hit_rate"),
            make_params=_xstrat_params,
            make_cells=_xstrat_cells,
            title=_fixed_title(
                "cross-strategy: every family x paper apps + zipf "
                "(64 nodes, mesh+torus+hypercube)"
            ),
        ),
        ExperimentSpec(
            name="xcap",
            columns=("capacity_copies", "strategy", "evictions", "hit_rate",
                     "congestion_bytes", "time"),
            make_params=_xcap_params,
            make_cells=_xcap_cells,
            title=_fixed_title(
                "capacity pressure: zipf under per-processor copy capacity "
                "(LRU replacement)"
            ),
            uses_topology=True,
        ),
        ExperimentSpec(
            name="xfail",
            columns=("failures", "topology", "strategy", "congestion_bytes",
                     "time", "requests_failed", "requests_stalled",
                     "requests_retried", "repairs"),
            make_params=_xfail_params,
            make_cells=_xfail_cells,
            title=_fixed_title(
                "failure axis: zipf under link flaps and node churn "
                "(5 strategy families x mesh+torus+hypercube)"
            ),
        ),
        ExperimentSpec(
            name="xadapt",
            columns=("drift", "topology", "strategy", "time", "hit_rate",
                     "latency_p50", "latency_p95", "latency_p99",
                     "storage_cost", "effective_network_usage"),
            make_params=_xadapt_params,
            make_cells=_xadapt_cells,
            title=_fixed_title(
                "adaptation axis: drifting zipf hotspot "
                "(adaptive vs dynrep vs fixed-home vs 4-ary, "
                "mesh+torus+hypercube)"
            ),
        ),
        ExperimentSpec(
            name="fig8",
            columns=("strategy", "bodies", "congestion_msgs", "time", "hit_rate"),
            make_params=_scaled_params("fig8"),
            make_cells=_fig8_cells,
            title=_scale_title("fig8"),
        ),
        ExperimentSpec(
            name="fig9",
            columns=("strategy", "bodies", "congestion_msgs", "time"),
            make_params=_scaled_params("fig8"),
            make_cells=_fig8_cells,
            title=_scale_title("fig9"),
            derive=_derive_fig9,
        ),
        ExperimentSpec(
            name="fig10",
            columns=("strategy", "bodies", "congestion_msgs", "time",
                     "local_compute", "comm_share"),
            make_params=_scaled_params("fig8"),
            make_cells=_fig8_cells,
            title=_scale_title("fig10"),
            derive=_derive_fig10,
        ),
        ExperimentSpec(
            name="fig11",
            columns=("strategy", "mesh", "procs", "bodies", "congestion_msgs",
                     "time", "comm_time"),
            make_params=_scaled_params("fig11"),
            make_cells=_fig11_cells,
            title=_scale_title("fig11"),
        ),
        ExperimentSpec(
            name="ablation-tree-degree",
            columns=("strategy", "congestion_bytes", "time", "max_startups"),
            make_params=_workload_params(side=8, size=1024),
            make_cells=_tree_degree_cells,
            title=lambda params, scale, workload: f"tree-degree ablation ({workload})",
            uses_workload=True,
            uses_topology=True,
        ),
        ExperimentSpec(
            name="ablation-embedding",
            columns=("embedding", "congestion_bytes", "total_bytes", "time"),
            make_params=_workload_params(side=8, size=1024, strategy="4-ary"),
            make_cells=_embedding_cells,
            title=lambda params, scale, workload: f"embedding ablation ({workload})",
            uses_workload=True,
            uses_topology=True,
        ),
        ExperimentSpec(
            name="ablation-invalidation",
            columns=("strategy", "variant", "congestion_bytes", "ctrl_msgs", "time"),
            make_params=_fixed_params(side=8, block_entries=1024,
                                      strategies=("4-ary", "fixed-home")),
            make_cells=_invalidation_cells,
            title=_fixed_title("invalidation ablation (square vs general multiply)"),
        ),
        ExperimentSpec(
            name="ablation-remapping",
            columns=("remap_threshold", "remaps", "congestion_bytes", "time"),
            make_params=_fixed_params(side=8, payload=1024, rounds=8,
                                      thresholds=(None, 64, 16, 4), strategy="4-ary"),
            make_cells=_remapping_cells,
            title=_fixed_title("node remapping ablation (hot broadcast variable)"),
        ),
        ExperimentSpec(
            name="ablation-barrier",
            columns=("barrier", "congestion_bytes", "time", "max_startups"),
            make_params=_fixed_params(side=8, keys=1024, strategy="2-4-ary"),
            make_cells=_barrier_cells,
            title=_fixed_title("barrier ablation"),
            uses_topology=True,
        ),
        ExperimentSpec(
            name="bounded-memory",
            columns=("capacity_copies", "congestion_msgs", "evictions", "time"),
            make_params=_fixed_params(side=4, bodies=256,
                                      capacity_copies=(None, 64, 24), strategy="2-ary"),
            make_cells=_bounded_memory_cells,
            title=_fixed_title("bounded-memory / LRU replacement"),
        ),
    ]
}

#: Stable CLI listing (sorted, like the historic dispatch chain's list).
EXPERIMENTS: List[str] = sorted(REGISTRY)


def get_spec(name: str) -> ExperimentSpec:
    """Spec for ``name``; raises ``KeyError`` listing valid names."""
    try:
        return REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown experiment {name!r}; valid: {', '.join(EXPERIMENTS)}"
        ) from None
