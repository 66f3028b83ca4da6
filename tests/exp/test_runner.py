"""Parallel runner: determinism, cache skipping, derivation, errors."""

import pathlib

import pytest

from repro.exp import (
    Cell,
    ExperimentSpec,
    ResultCache,
    get_spec,
    run_cells,
    run_experiment,
    sanitize_rows,
)


def _counting_cell(marker_dir, value):
    """Module-level so cells pickle; appends a marker per execution.
    ``value=0`` simulates a crashing cell (ZeroDivisionError)."""
    10 // value
    root = pathlib.Path(marker_dir)
    root.mkdir(parents=True, exist_ok=True)
    with open(root / "runs.log", "a") as fh:
        fh.write(f"{value}\n")
    return [{"value": value, "doubled": 2 * value}]


def _runs(marker_dir) -> int:
    log = pathlib.Path(marker_dir) / "runs.log"
    return len(log.read_text().splitlines()) if log.exists() else 0


def counting_spec(marker_dir, values=(1, 2, 3)):
    return ExperimentSpec(
        name="synthetic",
        columns=("value", "doubled"),
        make_params=lambda scale, app: {"values": list(values)},
        make_cells=lambda p: [
            Cell.make(_counting_cell, marker_dir=str(marker_dir), value=v)
            for v in p["values"]
        ],
        title=lambda p, scale, app: "synthetic",
    )


class TestCacheSkipsFinishedCells:
    def test_second_run_recomputes_nothing(self, tmp_path):
        spec = counting_spec(tmp_path / "m")
        cache = ResultCache(tmp_path / "cache")
        first = run_experiment(spec, cache=cache)
        assert _runs(tmp_path / "m") == 3
        assert first.cells_cached == 0 and first.cells_total == 3
        second = run_experiment(spec, cache=cache)
        assert _runs(tmp_path / "m") == 3  # nothing re-ran
        assert second.cells_cached == 3
        assert second.rows == first.rows

    def test_parameter_change_recomputes_only_new_cells(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        run_experiment(counting_spec(tmp_path / "m", values=(1, 2)), cache=cache)
        assert _runs(tmp_path / "m") == 2
        run_experiment(counting_spec(tmp_path / "m", values=(1, 2, 5)), cache=cache)
        # Resumed sweep: only the new cell (5) ran.
        assert _runs(tmp_path / "m") == 3

    def test_no_cache_recomputes(self, tmp_path):
        spec = counting_spec(tmp_path / "m")
        run_experiment(spec, cache=None)
        run_experiment(spec, cache=None)
        assert _runs(tmp_path / "m") == 6

    def test_failed_sweep_keeps_finished_cells(self, tmp_path):
        """Cache writes are per cell, so a crash mid-sweep persists every
        finished cell and the retry resumes instead of restarting."""
        spec = counting_spec(tmp_path / "m", values=(1, 2, 0))  # 0 explodes
        cache = ResultCache(tmp_path / "cache")
        with pytest.raises(ZeroDivisionError):
            run_experiment(spec, cache=cache)
        assert _runs(tmp_path / "m") == 2  # 1 and 2 ran before the crash
        fixed = counting_spec(tmp_path / "m", values=(1, 2, 3))
        run_experiment(fixed, cache=cache)
        assert _runs(tmp_path / "m") == 3  # only cell 3 was recomputed


class TestDeterminism:
    def test_jobs2_identical_to_serial(self):
        """--jobs N must not change results or row order."""
        spec = get_spec("fig2")
        serial = run_experiment(spec, scale="quick", jobs=1)
        parallel = run_experiment(spec, scale="quick", jobs=2)
        assert parallel.rows == serial.rows
        assert parallel.table() == serial.table()

    def test_warm_cache_rows_identical_to_cold(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = run_experiment("fig2", scale="quick", cache=cache)
        warm = run_experiment("fig2", scale="quick", cache=cache)
        assert warm.cells_cached == warm.cells_total
        assert warm.rows == cold.rows
        assert warm.table() == cold.table()


class TestDerive:
    def test_derive_applies_to_concatenated_rows(self, tmp_path):
        spec = counting_spec(tmp_path / "m")
        spec = ExperimentSpec(
            name=spec.name,
            columns=("value",),
            make_params=spec.make_params,
            make_cells=spec.make_cells,
            title=spec.title,
            derive=lambda rows, params: [r for r in rows if r["value"] > 1],
        )
        run = run_experiment(spec)
        assert [r["value"] for r in run.rows] == [2, 3]


class TestErrors:
    def test_bad_scale_rejected(self):
        with pytest.raises(ValueError, match="quick/default/paper"):
            run_experiment("fig3", scale="enormous")

    def test_bad_jobs_rejected(self):
        with pytest.raises(ValueError, match="jobs"):
            run_cells([], jobs=0)


class TestPeakRss:
    """The runner reports the worker-side memory high-water mark next to
    the rows -- but never inside the payload (byte-identity)."""

    def test_helper_reports_positive_mib(self):
        from repro.exp.runner import peak_rss_mb

        assert peak_rss_mb() > 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_run_records_worker_peak(self, tmp_path, jobs):
        run = run_experiment(counting_spec(tmp_path / "m"), jobs=jobs)
        assert run.peak_rss_mb is not None and run.peak_rss_mb > 0

    def test_fully_cached_run_measures_nothing(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        spec = counting_spec(tmp_path / "m")
        run_experiment(spec, cache=cache)
        warm = run_experiment(spec, cache=cache)
        assert warm.cells_cached == warm.cells_total
        assert warm.peak_rss_mb is None

    def test_not_part_of_the_payload(self, tmp_path):
        run = run_experiment(counting_spec(tmp_path / "m"))
        assert "peak_rss_mb" not in run.payload()


class TestParamOverrides:
    def test_nodes_override_restricts_the_xscale_sweep(self):
        run = run_experiment(
            "xscale", scale="quick", param_overrides={"nodes": (16,)}
        )
        assert run.rows and {r["nodes"] for r in run.rows} == {16}

    def test_override_equal_to_scale_default_changes_nothing(self, tmp_path):
        plain = run_experiment(counting_spec(tmp_path / "a"))
        overridden = run_experiment(
            counting_spec(tmp_path / "b"),
            param_overrides={"values": [1, 2, 3]},
        )
        assert overridden.rows == plain.rows

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown parameter override"):
            run_experiment("xscale", scale="quick", param_overrides={"nodez": 1})


class TestSanitize:
    def test_non_serializable_fields_stripped_without_mutation(self):
        marker = object()
        rows = [{"a": 1, "result": marker, "nested": (1, 2)}]
        clean = sanitize_rows(rows)
        assert clean == [{"a": 1, "nested": [1, 2]}]
        # Emit-layer stripping must never destroy the caller's rows.
        assert rows[0]["result"] is marker


class TestWorkloadLabel:
    """The schema-v3 payload ``workload`` must reflect what the rows
    actually ran, not the CLI axis default (regression: fig6 payloads
    once claimed workload=matmul)."""

    def test_fig6_payload_labels_bitonic(self):
        run = run_experiment("fig6", scale="quick")
        assert run.payload()["workload"] == "bitonic"

    def test_fig2_payload_labels_its_micro_kernel(self):
        run = run_experiment("fig2", scale="quick")
        assert run.payload()["workload"] == "fig2-flow"

    def test_xwork_readfrac_payload_labels_zipf(self):
        run = run_experiment("xwork-readfrac", scale="quick")
        assert run.payload()["workload"] == "zipf"
