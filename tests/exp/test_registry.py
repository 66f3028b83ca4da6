"""Registry completeness and spec invariants."""

import json

import pytest

from repro.__main__ import main  # noqa: F401  (ensures CLI imports the registry)
from repro.analysis import experiments
from repro.exp import EXPERIMENTS, REGISTRY, SCALES, get_spec, run_experiment

#: The historic CLI surface -- every name must stay resolvable.
LEGACY_NAMES = sorted(
    ["fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11",
     "ablation-tree-degree", "ablation-embedding", "ablation-barrier",
     "ablation-invalidation", "ablation-remapping", "bounded-memory"]
)

#: Cross-topology experiments added with the topology-generic network layer.
XTOPO_NAMES = ["xtopo-hypercube", "xtopo-torus"]

#: Cross-workload experiments added with the workload layer.
XWORK_NAMES = ["xwork-readfrac", "xwork-zipf"]

#: Scale-axis experiment added with the engine hot-path overhaul.
XSCALE_NAMES = ["xscale"]

#: Strategy-registry experiments added with the strategy plugin subsystem.
XSTRAT_NAMES = ["xcap", "xstrat"]
#: Failure-axis experiment added with the fault-injection subsystem.
XFAIL_NAMES = ["xfail"]
#: Adaptation-axis experiment added with the metric suite.
XADAPT_NAMES = ["xadapt"]

ALL_NAMES = sorted(
    LEGACY_NAMES + XTOPO_NAMES + XWORK_NAMES + XSCALE_NAMES + XSTRAT_NAMES
    + XFAIL_NAMES + XADAPT_NAMES
)


class TestRegistryCompleteness:
    def test_every_legacy_name_has_a_spec(self):
        for name in LEGACY_NAMES:
            spec = get_spec(name)
            assert spec.name == name

    def test_experiments_listing_matches_registry(self):
        assert EXPERIMENTS == sorted(REGISTRY)
        assert EXPERIMENTS == ALL_NAMES

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="fig5"):
            get_spec("fig5")


class TestSpecInvariants:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_quick_cells_nonempty_and_serializable(self, name):
        spec = get_spec(name)
        assert spec.columns, f"{name}: no columns"
        cells = spec.cells(scale="quick")
        assert cells, f"{name}: no cells at quick scale"
        for cell in cells:
            # Cell kwargs must be JSON-serializable (cache + pool contract).
            json.dumps(dict(cell.kwargs))
            assert len(cell.key) == 64  # sha256 hex

    def test_cell_keys_unique_within_experiment(self):
        for name in ALL_NAMES:
            cells = get_spec(name).cells(scale="quick")
            keys = [c.key for c in cells]
            assert len(set(keys)) == len(keys), f"{name}: duplicate cell keys"

    def test_fig9_fig10_share_fig8_cells(self):
        """Figures 9/10 are projections of the Figure 8 runs: identical
        cells, so a warm cache makes them free."""
        fig8 = {c.key for c in get_spec("fig8").cells(scale="quick")}
        assert {c.key for c in get_spec("fig9").cells(scale="quick")} == fig8
        assert {c.key for c in get_spec("fig10").cells(scale="quick")} == fig8

    def test_titles_match_legacy_cli(self):
        fig3 = get_spec("fig3").title
        assert fig3.format(scale="default", workload="matmul") == "fig3 (default scale)"
        assert fig3.format(scale="quick", workload="matmul") == "fig3 (quick scale)"
        td = get_spec("ablation-tree-degree").title
        assert td.format(scale="default", workload="bitonic") == (
            "tree-degree ablation (bitonic)"
        )
        assert get_spec("bounded-memory").title.format(
            scale="default", workload="matmul"
        ) == "bounded-memory / LRU replacement"

    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_params_at_every_scale_and_a_title_over_scale_and_workload(self, name):
        spec = get_spec(name)
        assert set(spec.params) == set(SCALES)
        spec.title.format(scale="quick", workload="matmul")  # no other field

    def test_ablations_ignore_scale(self):
        for name in LEGACY_NAMES:
            if not (name.startswith("ablation-") or name == "bounded-memory"):
                continue
            spec = get_spec(name)
            quick = [c.key for c in spec.cells(scale="quick")]
            paper = [c.key for c in spec.cells(scale="paper")]
            assert quick == paper, f"{name}: scale changed ablation cells"

    def test_workload_sensitivity_flags(self):
        """Only the tree-degree and embedding ablations respond to
        --workload (their result files get workload-suffixed names for
        non-default workloads)."""
        for name in ALL_NAMES:
            spec = get_spec(name)
            matmul = [c.key for c in spec.cells(scale="quick", workload="matmul")]
            bitonic = [c.key for c in spec.cells(scale="quick", workload="bitonic")]
            if spec.uses_workload:
                assert matmul != bitonic, f"{name}: uses_workload but workload ignored"
            else:
                assert matmul == bitonic, f"{name}: workload changed cells unexpectedly"

    def test_workload_sensitive_specs_accept_synthetic_workloads(self):
        """The --workload axis is the whole registry, not just the two
        paper apps: the ablation specs expand cells for a synthetic
        kernel, sized by the kernel's own default load."""
        for name in ("ablation-tree-degree", "ablation-embedding"):
            spec = get_spec(name)
            cells = spec.cells(scale="quick", workload="zipf")
            assert cells
            for cell in cells:
                kwargs = dict(cell.kwargs)
                assert kwargs["workload"] == "zipf"
                assert kwargs["params"] == {"ops": 64}  # zipf's own default load

    def test_topology_sensitivity_flags(self):
        """--topology changes exactly the topology-flagged experiments;
        everything else (including the internal xtopo/xwork sweeps)
        ignores it."""
        for name in ALL_NAMES:
            spec = get_spec(name)
            workload = "bitonic" if spec.uses_workload else "matmul"
            mesh = [c.key for c in spec.cells(scale="quick", workload=workload)]
            torus = [
                c.key
                for c in spec.cells(scale="quick", workload=workload, topology="torus")
            ]
            if spec.uses_topology:
                assert mesh != torus, f"{name}: uses_topology but topology ignored"
            else:
                assert mesh == torus, f"{name}: topology changed cells unexpectedly"

    def test_xtopo_experiments_cover_mesh_and_target_at_256_nodes(self):
        """The cross-topology sweeps compare against the mesh at matched
        node counts (>= 256) at every scale."""
        for name, target in (("xtopo-torus", "torus"), ("xtopo-hypercube", "hypercube")):
            spec = get_spec(name)
            for scale in ("quick", "default", "paper"):
                params = spec.params_for(scale=scale)
                assert params["side"] * params["side"] >= 256
                assert list(params["topologies"]) == ["mesh", target]

    def test_xwork_zipf_covers_all_topologies(self):
        """xwork-zipf sweeps the synthetic Zipf kernel over every
        topology family internally, at every scale."""
        spec = get_spec("xwork-zipf")
        for scale in ("quick", "default", "paper"):
            params = spec.params_for(scale=scale)
            assert params["topologies"] == ["mesh", "torus", "hypercube"]
        kinds = {dict(c.kwargs)["topology"] for c in spec.cells(scale="quick")}
        assert kinds == {"mesh", "torus", "hypercube"}

    def test_xwork_scales_ops(self):
        """The xwork sweeps respond to --scale through the per-processor
        op count (the node count stays pinned)."""
        for name in XWORK_NAMES:
            spec = get_spec(name)
            quick = [c.key for c in spec.cells(scale="quick")]
            paper = [c.key for c in spec.cells(scale="paper")]
            assert quick != paper, f"{name}: scale ignored"
            assert spec.params_for("quick")["side"] == spec.params_for("paper")["side"]

    def test_xtopo_shares_mesh_cell(self):
        """Both xtopo sweeps run the identical mesh reference cell, so a
        warm cache computes it once."""
        torus = {c.key for c in get_spec("xtopo-torus").cells(scale="quick")}
        hcube = {c.key for c in get_spec("xtopo-hypercube").cells(scale="quick")}
        assert torus & hcube, "no shared mesh reference cell"


class TestXstratXcapSpecs:
    def test_xstrat_covers_every_family_and_topology(self):
        """The cross-strategy sweep compares every strategy family --
        the paper's two plus migratory and dynrep -- on all three
        interconnects, at every scale."""
        spec = get_spec("xstrat")
        for scale in ("quick", "default", "paper"):
            kw = [dict(c.kwargs) for c in spec.cells(scale=scale)]
            assert {k["topology"] for k in kw} == {"mesh", "torus", "hypercube"}
            assert {k["strategy"] for k in kw} == {
                "fixed-home", "4-ary", "2-4-ary", "migratory", "dynrep"
            }
            assert {k["workload"] for k in kw} == {"bitonic", "zipf", "matmul"}
            # The paper's matmul needs grid coordinates: mesh only.
            assert all(k["topology"] == "mesh"
                       for k in kw if k["workload"] == "matmul")

    def test_xstrat_scales_load_not_machines(self):
        spec = get_spec("xstrat")
        quick = spec.params_for("quick")
        paper = spec.params_for("paper")
        assert quick["side"] == paper["side"]  # node count pinned
        assert quick["ops"] < paper["ops"]
        assert quick["keys"] < paper["keys"]

    def test_xcap_sweeps_capacity_incl_unbounded(self):
        spec = get_spec("xcap")
        for scale in ("quick", "default", "paper"):
            kw = [dict(c.kwargs) for c in spec.cells(scale=scale)]
            caps = {k["label"]["capacity_copies"] for k in kw}
            assert "unbounded" in caps, "missing the unbounded reference point"
            assert any(c != "unbounded" and c <= 4 for c in caps), "no severe pressure"
            assert all(k["capacity_bytes"] == k["label"]["capacity_bytes"] for k in kw)
            assert {k["strategy"] for k in kw} >= {"fixed-home", "2-ary", "dynrep",
                                                   "migratory"}

    def test_xcap_honors_topology_axis(self):
        spec = get_spec("xcap")
        assert spec.uses_topology
        torus = [dict(c.kwargs) for c in spec.cells(scale="quick", topology="torus")]
        assert all(k["topology"] == "torus" for k in torus)


class TestXscaleSpec:
    def test_xscale_sweeps_nodes_topologies_strategies(self):
        spec = get_spec("xscale")
        for scale, expect_nodes in (
            ("quick", {1024}),
            ("default", {1024, 2048, 4096}),
            ("paper", {1024, 2048, 4096, 16384}),
        ):
            cells = spec.cells(scale=scale)
            kw = [dict(c.kwargs) for c in cells]
            assert {k["nodes"] for k in kw} == expect_nodes
            assert {k["topology"] for k in kw} == {"mesh", "torus", "hypercube"}
            assert {k["strategy"] for k in kw} == {"fixed-home", "2-4-ary"}

    def test_xscale_scales_ops_not_machines(self):
        """--scale grows the per-processor load; the 1024-node machine is
        present at every scale so the axis never degrades to toy sizes."""
        spec = get_spec("xscale")
        quick = spec.params_for("quick")
        paper = spec.params_for("paper")
        assert quick["ops"] < paper["ops"]
        assert 1024 in quick["nodes"] and 1024 in paper["nodes"]


#: The cell functions left after the eleven per-experiment copies of
#: "run a workload, pick some columns" were folded into workload_cell.
CELL_FUNCTIONS = {
    experiments.workload_cell, experiments.fig2_cell, experiments.handopt_cell,
    experiments.barneshut_cell,
    experiments.barneshut_scaling_cell, experiments.remapping_cell,
}


class TestOneDefinitionPerExperiment:
    """The registry is the only description of an experiment and
    run_experiment the only way to run one."""

    def test_every_registered_cell_is_one_of_the_six(self):
        reached = {
            cell.fn for name in ALL_NAMES for cell in get_spec(name).cells(scale="quick")
        }
        assert reached == CELL_FUNCTIONS

    def test_analysis_experiments_exposes_cells_not_runners(self):
        """No per-figure runner hides beside the registry: the module's
        public callables are the cells and the two Barnes-Hut phase
        projections."""
        public = {
            name for name, obj in vars(experiments).items()
            if callable(obj) and not name.startswith("_")
            and getattr(obj, "__module__", None) == experiments.__name__
        }
        expected = {fn.__name__ for fn in CELL_FUNCTIONS} | {
            "fig9_rows_from_cells", "fig10_rows_from_cells",
        }
        assert public == expected
        assert set(experiments.__all__) == expected

    def test_hand_picked_sizes_reject_a_parameter_the_spec_lacks(self):
        """What the wrappers' keyword arguments used to catch: a typo in a
        hand-picked size must not silently run the default sizes."""
        with pytest.raises(ValueError, match="unknown parameter override"):
            run_experiment("ablation-tree-degree", param_overrides={"sides": 4})

    def test_workload_cell_rows_are_uniform_across_run_all(self):
        """Every workload_cell row of a run-all carries one key set --
        identity and everything measured -- next to its own label and
        workload parameters, and the label columns lead the row.  (Key
        sets do not depend on sizes, so the sweep runs at toy ones.)"""
        toy = {"side": 4, "nodes": (16,), "ops": 2, "keys": 16, "size": 16,
               "block": 16, "block_entries": 16, "bodies": 32}
        uniform = None
        for name in ALL_NAMES:
            spec = get_spec(name)
            if spec.cells(scale="quick")[0].fn is not experiments.workload_cell:
                continue
            overrides = {k: v for k, v in toy.items() if k in spec.params_for("quick")}
            run = run_experiment(name, scale="quick", param_overrides=overrides)
            cells = spec.make_cells(run.params)
            assert len(run.rows) == len(cells)
            for cell, row in zip(cells, run.rows):
                kwargs = dict(cell.kwargs)
                label = kwargs.get("label") or {}
                assert list(row)[:len(label)] == list(label), name
                own = set(label) | set(kwargs["params"])
                assert own <= set(row), name
                rest = set(row) - own
                uniform = uniform or rest
                assert rest == uniform, (name, rest ^ uniform)
        assert {"strategy_family", "congestion_per_node", "ctrl_msgs",
                "max_startups", "requests_failed", "latency_p99"} <= uniform
