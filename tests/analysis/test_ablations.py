"""Ablation tests (quick sizes)."""

from repro.exp import run_experiment


def rows_of(name, **overrides):
    """Rows of one registered ablation at hand-picked sizes."""
    return run_experiment(name, param_overrides=overrides).rows


class TestInvalidationAblation:
    def test_square_has_more_control_traffic(self):
        rows = rows_of("ablation-invalidation", side=4, block_entries=256)
        d = {(r["strategy"], r["variant"]): r for r in rows}
        for strategy in ("4-ary", "fixed-home"):
            assert d[(strategy, "square")]["ctrl_msgs"] > d[(strategy, "general")]["ctrl_msgs"]

    def test_rows_cover_all_combinations(self):
        rows = rows_of("ablation-invalidation", side=4, block_entries=64)
        combos = {(r["strategy"], r["variant"]) for r in rows}
        assert combos == {
            ("4-ary", "square"),
            ("4-ary", "general"),
            ("fixed-home", "square"),
            ("fixed-home", "general"),
        }


class TestRemappingAblation:
    def test_off_never_remaps_and_aggressive_does(self):
        rows = rows_of("ablation-remapping", side=4, rounds=6, thresholds=(None, 4))
        assert rows[0]["remaps"] == 0
        assert rows[1]["remaps"] > 0

    def test_hot_workload_is_deterministic(self):
        a = rows_of("ablation-remapping", side=4, rounds=4, thresholds=(8,))
        b = rows_of("ablation-remapping", side=4, rounds=4, thresholds=(8,))
        assert a[0]["time"] == b[0]["time"]
        assert a[0]["remaps"] == b[0]["remaps"]


class TestBoundedMemory:
    def test_unbounded_has_no_evictions(self):
        rows = rows_of("bounded-memory", side=4, bodies=96, capacity_copies=(None, 32))
        assert rows[0]["evictions"] == 0
        assert rows[1]["evictions"] > 0

    def test_tighter_capacity_means_more_congestion(self):
        rows = rows_of("bounded-memory", side=4, bodies=96, capacity_copies=(None, 16))
        assert rows[1]["congestion_msgs"] > rows[0]["congestion_msgs"]
