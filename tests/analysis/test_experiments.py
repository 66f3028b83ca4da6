"""Experiment tests (quick scale) with paper-shape assertions."""

import pytest

from repro.analysis import PAPER, format_table, workload_cell
from repro.exp import MemoryCache, get_spec, run_experiment
from repro.network.topology import make_topology
from repro.workloads import get_workload


def rows_of(name, **overrides):
    """Rows of one registered experiment at quick scale, optionally at
    hand-picked sizes."""
    return run_experiment(name, scale="quick", param_overrides=overrides or None).rows


def by(rows, **match):
    out = [r for r in rows if all(r.get(k) == v for k, v in match.items())]
    assert out, f"no rows match {match}"
    return out


class TestScaleParams:
    def test_known_scales(self):
        for scale in ("quick", "default", "paper"):
            p = get_spec("fig3").params_for(scale)
            assert "blocks" in p

    def test_paper_scale_matches_paper(self):
        p = get_spec("fig4").params_for("paper")
        assert p["sides"] == (4, 8, 16, 32)
        assert p["block_entries"] == 4096
        p8 = get_spec("fig8").params_for("paper")
        assert p8["bodies"] == (10000, 20000, 30000, 40000, 50000, 60000)
        assert p8["side"] == 16

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            get_spec("fig3").params_for("huge")


class TestFig2:
    def test_access_tree_lowers_total_load_and_congestion(self):
        rows = rows_of("fig2", side=8, block_entries=256)
        fh = by(rows, strategy="fixed-home")[0]
        at = by(rows, strategy="4-ary")[0]
        # Theta(mP) vs Theta(m sqrtP logP): both metrics favour the tree.
        assert at["total_bytes"] < fh["total_bytes"]
        assert at["congestion_bytes"] < fh["congestion_bytes"]


class TestFig3:
    def test_shapes(self):
        p = get_spec("fig3").params_for("quick")
        rows = rows_of("fig3")
        for block in p["blocks"]:
            fh = by(rows, strategy="fixed-home", block=block)[0]
            at = by(rows, strategy="4-ary", block=block)[0]
            assert at["congestion_ratio"] < fh["congestion_ratio"]
            assert at["congestion_ratio"] > 1.0
            assert at["time_ratio"] < fh["time_ratio"] * 1.5
        # Ratios decrease (weakly) with block size, like the paper.
        fh_ratios = [by(rows, strategy="fixed-home", block=b)[0]["congestion_ratio"] for b in p["blocks"]]
        assert fh_ratios[-1] <= fh_ratios[0]


class TestFig4:
    def test_gap_grows_with_network(self):
        p = get_spec("fig4").params_for("quick")
        rows = rows_of("fig4")
        gaps = []
        for side in p["sides"]:
            fh = by(rows, strategy="fixed-home", side=side)[0]
            at = by(rows, strategy="4-ary", side=side)[0]
            gaps.append(fh["congestion_ratio"] / at["congestion_ratio"])
        assert gaps[-1] > gaps[0]  # fixed home degrades faster


class TestFig6Fig7:
    def test_fig6_shapes(self):
        p = get_spec("fig6").params_for("quick")
        rows = rows_of("fig6")
        for m in p["keys"]:
            fh = by(rows, strategy="fixed-home", keys=m)[0]
            at = by(rows, strategy="2-4-ary", keys=m)[0]
            assert at["congestion_ratio"] < fh["congestion_ratio"]

    def test_fig7_fixed_home_degrades(self):
        p = get_spec("fig7").params_for("quick")
        rows = rows_of("fig7")
        fh = [by(rows, strategy="fixed-home", side=s)[0]["congestion_ratio"] for s in p["sides"]]
        at = [by(rows, strategy="2-4-ary", side=s)[0]["congestion_ratio"] for s in p["sides"]]
        assert fh[-1] > fh[0]
        assert at[-1] / at[0] < fh[-1] / fh[0]


class TestFig8Family:
    @pytest.fixture(scope="class")
    def cache(self):
        """Figures 9 and 10 are phase views of the Figure 8 runs: one
        cache makes the three experiments share their cells."""
        return MemoryCache()

    @pytest.fixture(scope="class")
    def fig8_rows(self, cache):
        return run_experiment("fig8", scale="quick", cache=cache).rows

    def test_congestion_ordering(self, fig8_rows):
        """Paper: the higher the tree, the smaller the congestion; fixed
        home worst."""
        n = max(r["bodies"] for r in fig8_rows)
        cong = {r["strategy"]: r["congestion_msgs"] for r in fig8_rows if r["bodies"] == n}
        assert cong["2-ary"] < cong["fixed-home"]
        assert cong["4-ary"] < cong["fixed-home"]
        # On the quick 4x4 mesh the 16-ary tree degenerates to one root with
        # 16 leaf children -- the P-ary tree the paper equates with fixed
        # home -- so only near-parity can be asserted here; the strict
        # five-way ordering is checked by the default-scale bench (8x8+).
        assert cong["16-ary"] <= 1.15 * cong["fixed-home"]
        assert cong["2-ary"] <= 1.15 * cong["4-ary"]

    def test_congestion_grows_with_n(self, fig8_rows):
        for name in ("fixed-home", "4-ary"):
            series = [r["congestion_msgs"] for r in fig8_rows if r["strategy"] == name]
            assert series == sorted(series) or series[-1] > series[0]

    def test_fig9_treebuild_fixed_home_offset(self, fig8_rows, cache):
        run = run_experiment("fig9", scale="quick", cache=cache)
        assert run.cells_cached == run.cells_total  # the Figure 8 runs
        fig9 = run.rows
        n = max(r["bodies"] for r in fig9)
        tb = {r["strategy"]: r["congestion_msgs"] for r in fig9 if r["bodies"] == n}
        assert tb["fixed-home"] > tb["4-ary"]

    def test_fig10_force_views(self, fig8_rows, cache):
        fig10 = run_experiment("fig10", scale="quick", cache=cache).rows
        n = max(r["bodies"] for r in fig10)
        rows = {r["strategy"]: r for r in fig10 if r["bodies"] == n}
        assert rows["4-ary"]["congestion_msgs"] < rows["fixed-home"]["congestion_msgs"]
        assert rows["4-ary"]["local_compute"] > 0
        # Local compute is strategy-independent (same physics).
        assert rows["4-ary"]["local_compute"] == pytest.approx(
            rows["fixed-home"]["local_compute"], rel=1e-9
        )


class TestFig11:
    def test_advantage_grows_with_p(self):
        p = get_spec("fig11").params_for("quick")
        rows = rows_of("fig11")
        ratios = []
        for r, c in p["meshes"]:
            label = f"{r}x{c}"
            fh = by(rows, strategy="fixed-home", mesh=label)[0]
            at = by(rows, strategy="4-8-ary", mesh=label)[0]
            ratios.append(at["time"] / fh["time"])
        assert ratios[-1] < 1.0  # access tree wins at the largest mesh
        assert ratios[-1] <= ratios[0] * 1.1  # and the gap does not shrink


class TestAblations:
    def test_tree_degree_congestion_monotone(self):
        rows = rows_of("ablation-tree-degree", side=4, size=256)
        cong = {r["strategy"]: r["congestion_bytes"] for r in rows}
        assert cong["2-ary"] <= cong["4-ary"] <= cong["16-ary"]

    def test_flat_trees_fewer_startups(self):
        rows = rows_of("ablation-tree-degree", side=4, size=256)
        st = {r["strategy"]: r["max_startups"] for r in rows}
        assert st["16-ary"] < st["2-ary"]

    def test_embedding_modified_beats_random(self):
        rows = rows_of("ablation-embedding", side=4, size=256)
        d = {r["embedding"]: r for r in rows}
        assert d["modified"]["total_bytes"] < d["random"]["total_bytes"]

    def test_barrier_tree_beats_central(self):
        rows = rows_of("ablation-barrier", side=4, keys=256)
        d = {r["barrier"]: r for r in rows}
        assert d["tree"]["max_startups"] <= d["central"]["max_startups"]


class TestWorkloadCell:
    """The one general cell behind the ablations and the x* sweeps."""

    ZIPF = {"n_vars": 16, "ops": 8, "alpha": 0.8, "read_frac": 0.8}

    @pytest.mark.parametrize("machine", [{}, {"side": 4, "nodes": 16}])
    def test_needs_exactly_one_machine_size(self, machine):
        with pytest.raises(ValueError, match="exactly one of side= / nodes="):
            workload_cell("zipf", "4-ary", params=self.ZIPF, **machine)

    def test_side_and_nodes_name_the_same_machine(self):
        by_side = workload_cell("zipf", "4-ary", side=4, params=self.ZIPF)
        by_nodes = workload_cell("zipf", "4-ary", nodes=16, params=self.ZIPF)
        assert by_side == by_nodes
        assert by_side[0]["nodes"] == 16 and by_side[0]["network"] == "4x4"

    def test_default_services_are_the_runtime_defaults(self):
        """Spelling out barrier / capacity / failures changes nothing: the
        cell runs exactly the ``Workload.run`` call it wraps."""
        row, = workload_cell("bitonic", "2-4-ary", side=4, params={"keys": 64})
        res = get_workload("bitonic").run(
            make_topology("mesh", 4), "2-4-ary", params={"keys": 64})
        assert row["time"] == res.time
        assert row["congestion_bytes"] == res.congestion_bytes
        assert row["max_startups"] == res.stats.max_startups
        assert row["failure_events"] == 0 and row["evictions"] == 0

    def test_label_leads_and_params_ride_along(self):
        row, = workload_cell("zipf", "dynrep:threshold=3", side=4, params=self.ZIPF,
                             label={"sweep": "x"})
        assert list(row)[0] == "sweep"
        assert {k: row[k] for k in self.ZIPF} == self.ZIPF
        assert row["strategy_family"] == "dynrep"
        assert row["strategy_params"]["threshold"] == 3
        assert row["congestion_per_node"] == row["congestion_bytes"] / 16


class TestFormatting:
    def test_format_table(self):
        rows = [{"a": 1.23456, "b": "x"}, {"a": 2, "b": "y"}]
        out = format_table(rows, ["a", "b"], title="T")
        assert "T" in out and "1.23" in out and "y" in out

    def test_paper_reference_data_consistent(self):
        for fig in ("fig3", "fig4", "fig6", "fig7"):
            data = PAPER[fig]
            for metric in ("congestion_ratio", "time_ratio"):
                for series in data[metric].values():
                    assert len(series) == len(data["x"])
