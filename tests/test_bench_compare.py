"""Perf-regression gate tests (tools/bench_compare.py).

The tool is not part of the installed package, so it is loaded from its
file path -- the same artifact CI executes.
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_compare.py"

spec = importlib.util.spec_from_file_location("bench_compare", TOOL)
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)


def payload(cells_per_sec, bench_version=1, pinned=None, peak_rss_mb=None,
            engine=None):
    data = {
        "cells_per_sec": cells_per_sec,
        "bench_version": bench_version,
        "pinned": pinned or {"workload": "zipf", "side": 8},
    }
    if peak_rss_mb is not None:
        data["peak_rss_mb"] = peak_rss_mb
    if engine is not None:
        data["engine"] = engine
    return data


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


class TestCompare:
    def test_equal_throughput_passes(self):
        v = bench_compare.compare(payload(10.0), payload(10.0), 0.2)
        assert v["ok"] and v["throughput"]["ratio"] == pytest.approx(1.0)

    def test_small_regression_within_threshold_passes(self):
        assert bench_compare.compare(payload(8.5), payload(10.0), 0.2)["ok"]

    def test_large_regression_fails(self):
        assert not bench_compare.compare(payload(7.0), payload(10.0), 0.2)["ok"]

    def test_improvement_passes(self):
        assert bench_compare.compare(payload(30.0), payload(10.0), 0.2)["ok"]

    def test_bench_version_mismatch_fails_loudly(self):
        with pytest.raises(SystemExit, match="bench_version mismatch"):
            bench_compare.compare(payload(10.0), payload(10.0, bench_version=2), 0.2)

    def test_pinned_config_mismatch_fails_loudly(self):
        with pytest.raises(SystemExit, match="pinned cell configuration"):
            bench_compare.compare(
                payload(10.0), payload(10.0, pinned={"workload": "uniform"}), 0.2
            )


class TestMemoryGate:
    """peak_rss_mb regresses *upward*: growth beyond the threshold fails
    even when throughput is fine, shrinkage always passes, and pre-v2
    payloads without the field gate throughput only."""

    def test_memory_growth_beyond_threshold_fails(self):
        v = bench_compare.compare(
            payload(10.0, peak_rss_mb=130.0), payload(10.0, peak_rss_mb=100.0), 0.2
        )
        assert not v["ok"] and v["throughput"]["ok"] and not v["memory"]["ok"]

    def test_memory_growth_within_threshold_passes(self):
        v = bench_compare.compare(
            payload(10.0, peak_rss_mb=115.0), payload(10.0, peak_rss_mb=100.0), 0.2
        )
        assert v["ok"] and v["memory"]["ratio"] == pytest.approx(1.15)

    def test_memory_improvement_passes(self):
        assert bench_compare.compare(
            payload(10.0, peak_rss_mb=50.0), payload(10.0, peak_rss_mb=100.0), 0.2
        )["ok"]

    def test_both_metrics_can_fail_at_once(self):
        v = bench_compare.compare(
            payload(5.0, peak_rss_mb=200.0), payload(10.0, peak_rss_mb=100.0), 0.2
        )
        assert not v["throughput"]["ok"] and not v["memory"]["ok"]

    @pytest.mark.parametrize("cur_peak, base_peak", [(None, 100.0), (100.0, None)])
    def test_missing_peak_on_either_side_gates_throughput_only(
        self, cur_peak, base_peak
    ):
        v = bench_compare.compare(
            payload(10.0, peak_rss_mb=cur_peak),
            payload(10.0, peak_rss_mb=base_peak),
            0.2,
        )
        assert v["ok"] and v["memory"] is None

    def test_engine_mismatch_fails_loudly(self):
        with pytest.raises(SystemExit, match="engine mismatch"):
            bench_compare.compare(
                payload(10.0, engine="pure"), payload(10.0, engine="c"), 0.2
            )

    def test_absent_engine_field_means_c(self):
        """Pre-v2 baselines carried no engine field; they gate the C run."""
        assert bench_compare.compare(
            payload(10.0), payload(10.0, engine="c"), 0.2
        )["ok"]


class TestBestRatchet:
    def test_baseline_without_best_ratchets_against_itself(self):
        v = bench_compare.compare(payload(8.0), payload(10.0), 0.2)
        assert v["best"]["best"] == 10.0
        assert v["best"]["ok"]  # -20% is within the 30% ratchet

    def test_drift_beyond_best_threshold_fails(self):
        base = payload(10.0)
        base["best"] = {"cells_per_sec": 20.0}
        v = bench_compare.compare(payload(10.0), base, 0.2)
        assert v["throughput"]["ok"]          # flat vs rolling baseline...
        assert not v["best"]["ok"]            # ...but -50% vs best-ever
        assert not v["ok"]

    def test_drift_within_best_threshold_passes(self):
        base = payload(10.0)
        base["best"] = {"cells_per_sec": 12.0}
        v = bench_compare.compare(payload(9.0), base, 0.2)
        assert v["ok"] and v["best"]["ratio"] == pytest.approx(0.75)

    def test_best_failure_exit_code_and_message(self, tmp_path, capsys):
        base = payload(10.0)
        base["best"] = {"cells_per_sec": 20.0}
        cur = write(tmp_path, "cur.json", payload(10.0))
        bp = write(tmp_path, "base.json", base)
        assert bench_compare.main(
            ["--current", str(cur), "--baseline", str(bp)]) == 1
        captured = capsys.readouterr()
        assert "best-ever 20.00" in captured.out
        assert "below the recorded best" in captured.err

    def test_update_baseline_carries_best_forward(self, tmp_path):
        base = payload(10.0, peak_rss_mb=40.0)
        base["best"] = {"cells_per_sec": 15.0, "peak_rss_mb": 35.0}
        bp = write(tmp_path, "base.json", base)
        cur = write(tmp_path, "cur.json", payload(12.0, peak_rss_mb=50.0))
        assert bench_compare.main(
            ["--current", str(cur), "--baseline", str(bp),
             "--update-baseline"]) == 0
        new = json.loads(bp.read_text())
        assert new["cells_per_sec"] == 12.0          # rolling baseline moved
        assert new["best"]["cells_per_sec"] == 15.0  # best kept (max)
        assert new["best"]["peak_rss_mb"] == 35.0    # best RSS kept (min)

    def test_update_baseline_advances_best_on_record(self, tmp_path):
        base = payload(10.0)
        base["best"] = {"cells_per_sec": 15.0}
        bp = write(tmp_path, "base.json", base)
        cur = write(tmp_path, "cur.json", payload(18.0))
        bench_compare.main(["--current", str(cur), "--baseline", str(bp),
                            "--update-baseline"])
        assert json.loads(bp.read_text())["best"]["cells_per_sec"] == 18.0

    def test_update_baseline_seeds_best_from_pre_ratchet_file(self, tmp_path):
        bp = write(tmp_path, "base.json", payload(14.0))  # no "best" key
        cur = write(tmp_path, "cur.json", payload(12.0))
        bench_compare.main(["--current", str(cur), "--baseline", str(bp),
                            "--update-baseline"])
        assert json.loads(bp.read_text())["best"]["cells_per_sec"] == 14.0

    def test_update_baseline_resets_best_on_version_change(self, tmp_path):
        base = payload(10.0)
        base["best"] = {"cells_per_sec": 99.0}
        bp = write(tmp_path, "base.json", base)
        cur = write(tmp_path, "cur.json", payload(8.0, bench_version=2))
        bench_compare.main(["--current", str(cur), "--baseline", str(bp),
                            "--update-baseline"])
        assert json.loads(bp.read_text())["best"]["cells_per_sec"] == 8.0


class TestCli:
    def test_pass_and_fail_exit_codes(self, tmp_path, capsys):
        cur = write(tmp_path, "cur.json", payload(9.0))
        base = write(tmp_path, "base.json", payload(10.0))
        assert bench_compare.main(["--current", str(cur), "--baseline", str(base)]) == 0
        bad = write(tmp_path, "bad.json", payload(5.0))
        assert bench_compare.main(["--current", str(bad), "--baseline", str(base)]) == 1
        out = capsys.readouterr().out
        assert "-50.0%" in out

    def test_update_baseline(self, tmp_path):
        cur = write(tmp_path, "cur.json", payload(12.0))
        base = tmp_path / "nested" / "base.json"
        rc = bench_compare.main(
            ["--current", str(cur), "--baseline", str(base), "--update-baseline"]
        )
        assert rc == 0
        assert json.loads(base.read_text())["cells_per_sec"] == 12.0

    def test_missing_current_is_a_clean_error(self, tmp_path):
        base = write(tmp_path, "base.json", payload(10.0))
        with pytest.raises(SystemExit, match="cannot read"):
            bench_compare.main(
                ["--current", str(tmp_path / "absent.json"), "--baseline", str(base)]
            )

    def test_step_summary_written(self, tmp_path, monkeypatch):
        summary = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        cur = write(tmp_path, "cur.json", payload(11.0))
        base = write(tmp_path, "base.json", payload(10.0))
        assert bench_compare.main(["--current", str(cur), "--baseline", str(base)]) == 0
        text = summary.read_text()
        assert "Engine perf gate" in text and "+10.0%" in text

    def test_memory_regression_exit_code_and_output(self, tmp_path, capsys):
        cur = write(tmp_path, "cur.json", payload(10.0, peak_rss_mb=150.0))
        base = write(tmp_path, "base.json", payload(10.0, peak_rss_mb=100.0))
        assert bench_compare.main(["--current", str(cur), "--baseline", str(base)]) == 1
        captured = capsys.readouterr()
        assert "+50.0%" in captured.out
        assert "peak RSS regressed" in captured.err

    def test_every_row_the_baseline_knows_is_gated(self, tmp_path, capsys):
        """A result may carry further pinned rows (``rows``: name -> a
        result of its own); each is held to the same gates."""
        home = dict(payload(40.0, pinned={"strategy": "fixed-home"}), bench="serve_home")
        base = write(tmp_path, "base.json", dict(payload(10.0), rows={"serve_home": home}))
        args = ["--baseline", str(base), "--current"]
        good = write(tmp_path, "good.json", dict(payload(10.0), rows={"serve_home": home}))
        assert bench_compare.main(args + [str(good)]) == 0
        assert "serve_home perf" in capsys.readouterr().out
        slow = dict(home, cells_per_sec=20.0)
        bad = write(tmp_path, "bad.json", dict(payload(10.0), rows={"serve_home": slow}))
        assert bench_compare.main(args + [str(bad)]) == 1
        lacking = write(tmp_path, "lacking.json", payload(10.0))
        with pytest.raises(SystemExit, match="lacks the 'serve_home' row"):
            bench_compare.main(args + [str(lacking)])

    def test_update_baseline_ratchets_every_row(self, tmp_path):
        home = payload(40.0, pinned={"strategy": "fixed-home"})
        base = write(tmp_path, "base.json", dict(payload(10.0), rows={"serve_home": home}))
        cur = write(tmp_path, "cur.json", dict(
            payload(9.0), rows={"serve_home": dict(home, cells_per_sec=30.0)}))
        assert bench_compare.main(
            ["--current", str(cur), "--baseline", str(base), "--update-baseline"]) == 0
        data = json.loads(base.read_text())
        assert data["best"]["cells_per_sec"] == 10.0
        assert data["rows"]["serve_home"]["cells_per_sec"] == 30.0
        assert data["rows"]["serve_home"]["best"]["cells_per_sec"] == 40.0

    def test_committed_baselines_are_valid(self):
        """The baseline artifacts CI diffs against must stay well-formed:
        v2, per-engine, with the memory envelope present."""
        for name, engine in [
            (bench_compare.DEFAULT_BASELINE, "c"),
            (bench_compare.DEFAULT_BASELINE.with_name(
                "BENCH_engine.pure.baseline.json"), "pure"),
        ]:
            baseline = bench_compare.load(name)
            assert baseline["cells_per_sec"] > 0
            assert baseline["peak_rss_mb"] > 0
            assert baseline["engine"] == engine
