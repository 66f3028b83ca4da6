"""The paper-shape bench: every registered experiment against the paper's
qualitative findings.

One parametrized test runs each experiment of :data:`repro.exp.EXPERIMENTS`
through :func:`repro.exp.run_experiment` at the scale ``REPRO_SCALE``
selects (``default`` if unset; ``paper`` is slow in pure Python; ``quick``
for smoke runs) against the shared result cache, so after ``python -m
repro run-all --scale S`` it costs seconds.  It prints the experiment's
table -- with ``paper_*`` reference columns where
:data:`repro.analysis.PAPER` transcribes the figure's series -- records
it under the results directory (``<name>.<scale>.txt`` plus
``<name>.<scale>.bench.json``, the ``--json`` payload with the
``paper_*`` columns added; the CLI owns the plain ``<name>.<scale>.json``
stem) and asserts the figure's *shape*: who wins, how ratios scale.
Absolute agreement is not expected -- the substrate is a simulator, not
the authors' GCel.

What is claimed about an experiment lives in :data:`SHAPES`; an
experiment nobody makes an ordering claim about is listed in
:data:`NO_SHAPE_CLAIM` with the reason.

    REPRO_SCALE=quick python -m pytest benchmarks/bench_experiments.py -q
"""

import os

import pytest

from repro.analysis import PAPER, format_table
from repro.exp import (
    EXPERIMENTS,
    ResultCache,
    default_cache_dir,
    default_results_dir,
    get_spec,
    run_experiment,
    write_json,
)

SCALE = os.environ.get("REPRO_SCALE", "default")

#: The paper's strategy orderings (congestion offsets, ratio growth) only
#: separate once the runs are big enough: quick runs assert the
#: scale-robust part of a shape only.
PAPER_SHAPES = SCALE != "quick"


def _pair(rows, tree, **match):
    """The (fixed-home, ``tree``) rows of one sweep point."""
    def pick(strategy):
        return next(r for r in rows if r["strategy"] == strategy
                    and all(r[k] == v for k, v in match.items()))
    return pick("fixed-home"), pick(tree)


# ---------------------------------------------------------------- figures
def _fig2(rows, p):
    """Total load (hence congestion) Theta(m*P) for fixed home vs
    Theta(m*sqrtP*logP) for the access tree."""
    fh, at = _pair(rows, "4-ary")
    assert at["total_bytes"] < fh["total_bytes"]
    assert at["congestion_bytes"] < fh["congestion_bytes"]


def _fig3(rows, p):
    """Fixed-home congestion ratio ~25-33 >> access tree ~6.5-9.3, both
    slightly decreasing with block size; time ratios below congestion."""
    for block in p["blocks"]:
        fh, at = _pair(rows, "4-ary", block=block)
        assert at["congestion_ratio"] < fh["congestion_ratio"]
        assert at["time_ratio"] < fh["time_ratio"]
        # Time ratios improve on congestion ratios (hand-opt pays startups).
        assert fh["time_ratio"] < fh["congestion_ratio"]
    fh_series = [_pair(rows, "4-ary", block=b)[0]["congestion_ratio"] for b in p["blocks"]]
    assert fh_series[-1] <= fh_series[0]  # decreasing with block size


def _fig4(rows, p):
    """Fixed-home congestion ratio grows like Theta(sqrt P) (5.56 ->
    47.98), the access tree like Theta(log P) (3.87 -> 8.10)."""
    fh = {r["side"]: r for r in rows if r["strategy"] == "fixed-home"}
    at = {r["side"]: r for r in rows if r["strategy"] == "4-ary"}
    sides = list(p["sides"])
    # Fixed home degrades much faster than the access tree.
    assert fh[sides[-1]]["congestion_ratio"] > 2 * fh[sides[0]]["congestion_ratio"]
    growth_at = at[sides[-1]]["congestion_ratio"] / at[sides[0]]["congestion_ratio"]
    growth_fh = fh[sides[-1]]["congestion_ratio"] / fh[sides[0]]["congestion_ratio"]
    assert growth_at < growth_fh
    # The access tree's time advantage grows with the network size.
    adv = [at[s]["time_ratio"] / fh[s]["time_ratio"] for s in sides]
    assert adv[-1] < adv[0]
    assert at[sides[-1]]["time_ratio"] < fh[sides[-1]]["time_ratio"]


def _fig6(rows, p):
    """Fixed-home congestion ratio ~7-8, 2-4-ary access tree ~2.7-3.0,
    both slightly decreasing with the key count (control amortizes)."""
    for m in p["keys"]:
        fh, at = _pair(rows, "2-4-ary", keys=m)
        assert at["congestion_ratio"] < fh["congestion_ratio"]
        assert at["time_ratio"] < fh["time_ratio"]
    # Congestion ratios weakly decreasing with key count.
    fh_series = [_pair(rows, "2-4-ary", keys=m)[0]["congestion_ratio"] for m in p["keys"]]
    assert fh_series[-1] <= fh_series[0] * 1.05


def _fig7(rows, p):
    """Fixed-home congestion ratio grows ~log^2 P (2.81 -> 10.48); the
    2-4-ary access tree converges towards a constant near 3."""
    sides = list(p["sides"])
    fh = {r["side"]: r for r in rows if r["strategy"] == "fixed-home"}
    at = {r["side"]: r for r in rows if r["strategy"] == "2-4-ary"}
    if PAPER_SHAPES:
        # Fixed home's ratio keeps growing; the access tree's stays much
        # flatter.  (The 1.5x growth needs the full side sweep: quick only
        # spans 4 -> 8, where the log^2 P growth has barely started.)
        assert fh[sides[-1]]["congestion_ratio"] > 1.5 * fh[sides[0]]["congestion_ratio"]
    growth_at = at[sides[-1]]["congestion_ratio"] / at[sides[0]]["congestion_ratio"]
    growth_fh = fh[sides[-1]]["congestion_ratio"] / fh[sides[0]]["congestion_ratio"]
    assert growth_at < growth_fh
    assert at[sides[-1]]["time_ratio"] < fh[sides[-1]]["time_ratio"]


def _fig8(rows, p):
    """"The higher the access tree is, the smaller is the congestion";
    execution time is best for the 4-ary tree -- the 2-ary tree's low
    congestion is eaten by its startup overhead."""
    n = max(r["bodies"] for r in rows)
    cong = {r["strategy"]: r["congestion_msgs"] for r in rows if r["bodies"] == n}
    time = {r["strategy"]: r["time"] for r in rows if r["bodies"] == n}
    # Scale-robust sanity: the deep trees always beat fixed home.
    assert cong["2-ary"] < cong["fixed-home"]
    assert cong["4-ary"] < cong["fixed-home"]
    if PAPER_SHAPES:
        # The paper's full congestion ordering (strict where scales
        # separate it; at quick scale the flat 16-ary tree and fixed home
        # are within noise of each other).
        assert cong["4-ary"] < cong["16-ary"] < cong["fixed-home"]
        assert cong["4-16-ary"] <= cong["16-ary"]
        assert cong["2-ary"] <= 1.1 * cong["4-ary"]
        # Execution time: every access tree beats fixed home; 4-ary is not
        # beaten by the 2-ary tree (startups).
        for name in ("2-ary", "4-ary", "4-16-ary", "16-ary"):
            assert time[name] < time["fixed-home"]
        assert time["4-ary"] <= 1.05 * time["2-ary"]
    # Congestion grows with N for every strategy.
    for name in cong:
        series = [r["congestion_msgs"] for r in rows if r["strategy"] == name]
        assert series[-1] > series[0]


def _fig9(rows, p):
    """Tree building: the fixed home delivers the root cell to every
    processor one by one, a large congestion offset; trees multicast it."""
    n = max(r["bodies"] for r in rows)
    cong = {r["strategy"]: r["congestion_msgs"] for r in rows if r["bodies"] == n}
    time = {r["strategy"]: r["time"] for r in rows if r["bodies"] == n}
    # Scale-robust sanity: every strategy built the tree and moved data.
    for name, c in cong.items():
        assert c > 0, f"{name}: no tree-building traffic recorded"
    if PAPER_SHAPES:
        # The fixed home offset: well above every access-tree variant.
        # Needs enough bodies per processor to make the root hot.
        for name in ("2-ary", "4-ary", "4-16-ary"):
            assert cong["fixed-home"] > 1.5 * cong[name]
            assert time["fixed-home"] > time[name]


def _fig10(rows, p):
    """Force computation: access trees win, and the communication share
    is smaller for the 4-ary tree (~25%) than for fixed home (~33%)."""
    n = max(r["bodies"] for r in rows)
    fh, at = _pair(rows, "4-ary", bodies=n)
    assert at["congestion_msgs"] < fh["congestion_msgs"]
    assert at["time"] <= fh["time"]
    # Local computation is identical physics -> identical charge.
    assert abs(at["local_compute"] - fh["local_compute"]) < 1e-9 * max(1.0, fh["local_compute"])
    # Communication share smaller for the access tree.
    assert at["comm_share"] <= fh["comm_share"]


def _fig11(rows, p):
    """N = bodies_per_proc * P: the access tree's congestion and time
    advantage grows with P -- time ratio ~49% and communication-time
    ratio ~33% at 512 processors."""
    time_ratio, comm_ratio = [], []
    for label in [f"{r}x{c}" for r, c in p["meshes"]]:
        fh, at = _pair(rows, "4-8-ary", mesh=label)
        time_ratio.append(at["time"] / fh["time"])
        comm_ratio.append(at["comm_time"] / fh["comm_time"])
        assert at["congestion_msgs"] < fh["congestion_msgs"]
    # Access tree wins at the largest configuration, and communication time
    # improves at least as much as total time (compute is shared).
    assert time_ratio[-1] < 1.0
    assert comm_ratio[-1] <= time_ratio[-1] + 0.05
    # Advantage does not shrink with growing P.
    assert time_ratio[-1] <= time_ratio[0] + 0.05


# -------------------------------------------------------------- ablations
def _tree_degree(rows, p):
    """"The smaller the degree of the access tree, the smaller the
    congestion", but the 4-ary tree wins matmul time (fewer startups);
    for bitonic the 2-ary and 2-4-ary trees do slightly better."""
    d = {r["strategy"]: r for r in rows}
    if p["workload"] == "matmul":
        # Congestion grows with the degree...
        assert d["2-ary"]["congestion_bytes"] <= d["4-ary"]["congestion_bytes"]
        assert d["4-ary"]["congestion_bytes"] <= d["16-ary"]["congestion_bytes"]
        # ... while flat trees save startups.
        assert d["16-ary"]["max_startups"] < d["2-ary"]["max_startups"]
        # 4-ary's execution time beats the 2-ary tree (the paper's compromise).
        assert d["4-ary"]["time"] <= d["2-ary"]["time"]
    else:
        # The bitonic circuit's locality matches the binary decomposition:
        # 2-ary variants hold the congestion edge over flat trees.
        assert d["2-ary"]["congestion_bytes"] <= d["16-ary"]["congestion_bytes"]
        assert d["2-4-ary"]["congestion_bytes"] <= d["16-ary"]["congestion_bytes"]
        # 2-4-ary does not lose time to the plain 4-ary variant.
        assert d["2-4-ary"]["time"] <= 1.1 * d["4-ary"]["time"]


def _embedding(rows, p):
    """The modified embedding "decreases the expected distances between
    the processors simulating neighbored access tree nodes"."""
    d = {r["embedding"]: r for r in rows}
    # Shorter tree edges => less total traffic (and, for matmul, time).
    assert d["modified"]["total_bytes"] < d["random"]["total_bytes"]
    if p["workload"] == "matmul":
        assert d["modified"]["time"] < d["random"]["time"]


def _invalidation(rows, p):
    """The paper squares because squaring forces copy invalidation."""
    d = {(r["strategy"], r["variant"]): r for r in rows}
    # Invalidation is control traffic: the square variant sends clearly
    # more control messages than the general one, for both strategies.
    for strategy in ("4-ary", "fixed-home"):
        assert d[(strategy, "square")]["ctrl_msgs"] > 1.3 * d[(strategy, "general")]["ctrl_msgs"]


def _remapping(rows, p):
    """Remapping "will not be retained in practice" (omitted by the paper)."""
    off, aggressive = rows[0], rows[-1]
    assert off["remaps"] == 0
    assert aggressive["remaps"] > 0
    # The paper's conjecture: remapping's overhead is not repaid at these
    # scales -- it must not *help* time by more than noise.
    assert aggressive["time"] > 0.9 * off["time"]


def _barrier(rows, p):
    """DIVA's combining-tree barrier distributes synchronization traffic."""
    d = {r["barrier"]: r for r in rows}
    # The central coordinator concentrates startups on one processor.
    assert d["tree"]["max_startups"] <= d["central"]["max_startups"]


def _bounded_memory(rows, p):
    """The Figure 8 kink of the 2-ary tree at 60,000 bodies: LRU copy
    replacement, reproduced by shrinking per-processor capacity."""
    unbounded, tightest = rows[0], rows[-1]
    assert unbounded["evictions"] == 0
    assert tightest["evictions"] > 0
    # Replacement raises congestion and time (the Figure 8 kink).
    assert tightest["congestion_msgs"] > unbounded["congestion_msgs"]
    assert tightest["time"] > unbounded["time"]


# ------------------------------------------------- post-paper comparisons
def _xtopo_congestion(rows, p):
    """Per-(topology, strategy) congestion, after checking that the
    paper's central claim carries over to every interconnect swept."""
    cong = {(r["topology"], r["strategy"]): r["congestion_bytes"] for r in rows}
    for topology in p["topologies"]:
        assert cong[(topology, "2-4-ary")] < cong[(topology, "fixed-home")]
        assert cong[(topology, "4-ary")] < cong[(topology, "fixed-home")]
    return cong


def _xtopo_torus(rows, p):
    """Every torus route is at most the mesh route, but shorter routes
    bound total load, not max-link load (rerouting can concentrate
    traffic on wrap wires): within a tolerance of the mesh."""
    cong = _xtopo_congestion(rows, p)
    for strategy in p["strategies"]:
        assert cong[("torus", strategy)] <= cong[("mesh", strategy)] * 1.25


def _xtopo_hypercube(rows, p):
    """The hypercube's wiring cuts absolute congestion well below the mesh."""
    cong = _xtopo_congestion(rows, p)
    for strategy in p["strategies"]:
        assert cong[("hypercube", strategy)] < cong[("mesh", strategy)]


def _xstrat(rows, p):
    """Every family head to head, on every topology (checks inline)."""
    def pick(workload, topology, strategy, read_frac=None):
        for r in rows:
            if (r["workload"] == workload and r["topology"] == topology
                    and r["strategy"] == strategy
                    and (read_frac is None or r.get("read_frac") == read_frac)):
                return r
        raise AssertionError(f"missing row {workload}/{topology}/{strategy}")

    for r in rows:
        assert r["time"] > 0
        assert 0.0 <= r["hit_rate"] <= 1.0
        assert r["strategy_family"] in p["strategies"]
    if not PAPER_SHAPES:
        return
    for topology in p["topologies"]:
        fh_bit = pick("bitonic", topology, "fixed-home")
        at_bit = pick("bitonic", topology, "2-4-ary")
        mig_bit = pick("bitonic", topology, "migratory")
        # The paper's claim survives the bigger field.
        assert at_bit["congestion_bytes"] < fh_bit["congestion_bytes"]
        # Migration wins the never-reread workload on both metrics.
        assert mig_bit["congestion_bytes"] < at_bit["congestion_bytes"]
        assert mig_bit["time"] < at_bit["time"]
        # Fewer replicas => cheaper invalidations: dynrep beats fixed home
        # on time for the read-heavy hotspot.
        fh_zipf = pick("zipf", topology, "fixed-home", read_frac=0.9)
        dr_zipf = pick("zipf", topology, "dynrep", read_frac=0.9)
        assert dr_zipf["time"] < fh_zipf["time"]
        # ... while the access tree keeps the congestion crown there.
        at_zipf = pick("zipf", topology, "2-4-ary", read_frac=0.9)
        assert at_zipf["congestion_bytes"] < fh_zipf["congestion_bytes"]
        assert at_zipf["congestion_bytes"] < dr_zipf["congestion_bytes"]


#: ``(rows, resolved params) -> None``; raises on a shape the paper rules out.
SHAPES = {
    "fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig6": _fig6, "fig7": _fig7,
    "fig8": _fig8, "fig9": _fig9, "fig10": _fig10, "fig11": _fig11,
    "ablation-tree-degree": _tree_degree,
    "ablation-embedding": _embedding,
    "ablation-invalidation": _invalidation,
    "ablation-remapping": _remapping,
    "ablation-barrier": _barrier,
    "bounded-memory": _bounded_memory,
    "xtopo-torus": _xtopo_torus,
    "xtopo-hypercube": _xtopo_hypercube,
    "xstrat": _xstrat,
}

#: Experiments that chart an axis without an ordering claim to hold them to.
NO_SHAPE_CLAIM = {
    "xwork-zipf": "exploratory skew sweep; tests/workloads pin the kernel",
    "xwork-readfrac": "exploratory read-mix sweep; tests/workloads pin the kernel",
    "xscale": "the paper's guarantee is asymptotic; the rows are the finding",
    "xcap": "eviction behaviour per family is pinned in tests/runtime and tests/core",
    "xfail": "availability counters are pinned by the slow CLI contract test",
    "xadapt": "metric-suite showcase; tests/core/test_adaptive.py pins the policy",
}

#: Every experiment, plus the bitonic variant of the ``--workload`` ablations.
CASES = [(name, "matmul") for name in EXPERIMENTS] + [
    (name, "bitonic") for name in EXPERIMENTS if get_spec(name).uses_workload
]


def test_every_experiment_is_accounted_for():
    assert not set(SHAPES) & set(NO_SHAPE_CLAIM)
    assert set(SHAPES) | set(NO_SHAPE_CLAIM) == set(EXPERIMENTS)


@pytest.mark.parametrize(
    "name,workload", CASES,
    ids=[n if w == "matmul" else f"{n}.{w}" for n, w in CASES],
)
def test_experiment_shape(name, workload):
    run = run_experiment(name, scale=SCALE, workload=workload,
                         cache=ResultCache(default_cache_dir()))
    assert run.rows, f"{name}: no rows"

    # A paper_<metric> column next to each metric whose series PAPER
    # transcribes, at the sweep points the paper also ran (the swept
    # parameter is the table's second column, after the strategy).
    columns = list(run.spec.columns)
    ref = PAPER.get(name, {})
    for metric in [c for c in columns if isinstance(ref.get(c), dict)]:
        columns.insert(columns.index(metric) + 1, f"paper_{metric}")
        for row in run.rows:
            if row["strategy"] in ref[metric] and row[columns[1]] in ref["x"]:
                row[f"paper_{metric}"] = ref[metric][row["strategy"]][
                    ref["x"].index(row[columns[1]])]

    text = format_table(run.rows, columns, title=run.title)
    print()
    print(text)
    stem = default_results_dir() / f"{run.file_stem}.{run.scale_label}"
    write_json(stem.with_name(stem.name + ".bench.json"),  # creates the directory
               {**run.payload(), "columns": columns})
    stem.with_name(stem.name + ".txt").write_text(text + "\n")

    if name in SHAPES:
        SHAPES[name](run.rows, run.params)
