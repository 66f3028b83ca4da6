"""The perf gate CI runs on a pull request: ``benchmarks/suite/run.py --compare``.

CI runs the suite at the base commit and at the head on the same runner and
fails the job on any ``OUT OF BOUND`` row of ``--compare base.json head.json``.
The orchestrator is not part of the installed package, so it is loaded from
its file path -- the same artifact CI executes.  The verdicts are exercised on
the committed reference result (all six workloads, per-layer metrics and
fingerprints), edited one cell at a time; nothing here runs a workload.
"""

import copy
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
SUITE = REPO_ROOT / "benchmarks" / "suite"
REFERENCE = SUITE / "reference" / "BENCH_suite.f9ef02bfec70.A.json"
REFERENCE_B = SUITE / "reference" / "BENCH_suite.f9ef02bfec70.B.json"
WORKFLOWS = REPO_ROOT / ".github" / "workflows"
CI = WORKFLOWS / "ci.yml"

_spec = importlib.util.spec_from_file_location("suite_run", SUITE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)
defs, stats = run.defs, run.stats

#: End-to-end metrics held to a bound (the rest must repeat exactly).
BOUNDED = [m for m in defs.END_TO_END if m["name"] not in defs.EXACT]


def steady(result: dict) -> dict:
    """``result`` with every end-to-end cell's repeats equal to its median,
    so no pair is ``unresolved`` unless a test makes it so."""
    result = copy.deepcopy(result)
    for w in result["workloads"].values():
        for cell in w["end_to_end"].values():
            cell["values"] = [cell["median"]] * 3
    return result


@pytest.fixture
def base() -> dict:
    return steady(json.loads(REFERENCE.read_text()))


def set_values(result: dict, workload: str, metric: str, values) -> None:
    cell = result["workloads"][workload]["end_to_end"][metric]
    cell["values"] = list(values)
    cell["median"] = stats.median(values)


def rows_of(a: dict, b: dict) -> dict:
    return {(r[0], r[1]): r for r in run.compare(a, b)}


def worsened(value: float, by: float, better: str) -> float:
    """``value`` made worse by the share ``by`` in the metric's direction."""
    return value * (1 + by) if better == "lower" else value * (1 - by)


class TestVerdicts:
    def test_a_result_against_itself_is_all_ok(self, base):
        rows = run.compare(base, base)
        assert rows and all(r[-1] == "ok" for r in rows)
        assert all(r[4] == 0.0 for r in rows)

    def test_every_end_to_end_metric_of_every_workload_is_compared(self, base):
        rows = rows_of(base, base)
        for name in defs.ALL:
            for m in defs.END_TO_END:
                assert (name, m["name"]) in rows
            assert (name, "failed_frac") in rows

    @pytest.mark.parametrize("metric", BOUNDED, ids=lambda m: m["name"])
    def test_worsening_past_the_metric_bound_is_out_of_bound(self, base, metric):
        name, bound = metric["name"], metric["bound"]
        set_values(base, "serve_tree_read", name, [100.0] * 3)
        inside, beyond = copy.deepcopy(base), copy.deepcopy(base)
        set_values(inside, "serve_tree_read", name,
                   [worsened(100.0, 0.9 * bound, metric["better"])] * 3)
        set_values(beyond, "serve_tree_read", name,
                   [worsened(100.0, 1.1 * bound, metric["better"])] * 3)

        row = rows_of(base, inside)["serve_tree_read", name]
        assert row[4] == pytest.approx(0.9 * bound) and row[5] == bound
        assert row[-1] == "ok"
        row = rows_of(base, beyond)["serve_tree_read", name]
        assert row[4] == pytest.approx(1.1 * bound)
        assert row[-1] == "OUT OF BOUND"

    @pytest.mark.parametrize("metric", BOUNDED, ids=lambda m: m["name"])
    def test_an_improvement_of_any_size_is_ok(self, base, metric):
        name = metric["name"]
        set_values(base, "batch_paper", name, [100.0] * 3)
        better = copy.deepcopy(base)
        set_values(better, "batch_paper", name, [worsened(100.0, -0.5, metric["better"])] * 3)
        row = rows_of(base, better)["batch_paper", name]
        assert row[4] == pytest.approx(-0.5)
        assert row[-1] == "ok"

    def test_a_noisy_head_is_unresolved_not_a_verdict(self, base):
        set_values(base, "serve_tree_read", "ops_per_sec", [100.0] * 3)
        noisy = copy.deepcopy(base)
        # IQR 40% of the median, far past the 15% bound: the runs cannot tell
        set_values(noisy, "serve_tree_read", "ops_per_sec", [40.0, 50.0, 60.0])
        assert rows_of(base, noisy)["serve_tree_read", "ops_per_sec"][-1] == "unresolved"

    def test_a_noisy_base_is_unresolved_too(self, base):
        head = copy.deepcopy(base)
        set_values(base, "serve_tree_read", "cpu_us_per_op", [5.0, 10.0, 15.0])
        set_values(head, "serve_tree_read", "cpu_us_per_op", [20.0] * 3)
        assert rows_of(base, head)["serve_tree_read", "cpu_us_per_op"][-1] == "unresolved"

    def test_an_exact_metric_must_not_move_in_either_direction(self, base):
        value = base["workloads"]["serve_tree_read"]["end_to_end"]["sim_bytes_per_op"]["median"]
        for changed in (value * (1 + 1e-9), value * (1 - 1e-9)):
            head = copy.deepcopy(base)
            set_values(head, "serve_tree_read", "sim_bytes_per_op", [changed] * 3)
            row = rows_of(base, head)["serve_tree_read", "sim_bytes_per_op"]
            assert row[5] == 0.0 and row[-1] == "OUT OF BOUND"

    def test_frontend_socket_holds_its_simulated_metric_to_a_bound(self, base):
        # arrivals follow the wall clock there, so nothing simulated repeats
        assert "frontend_socket" in defs.INEXACT_WORKLOADS
        value = base["workloads"]["frontend_socket"]["end_to_end"]["sim_bytes_per_op"]["median"]
        head = copy.deepcopy(base)
        set_values(head, "frontend_socket", "sim_bytes_per_op", [value * 1.01] * 3)
        row = rows_of(base, head)["frontend_socket", "sim_bytes_per_op"]
        assert row[5] == defs.METRICS["sim_bytes_per_op"]["bound"] and row[-1] == "ok"

    def test_a_larger_failed_fraction_is_out_of_bound(self, base):
        head = copy.deepcopy(base)
        head["workloads"]["fleet_w2"]["failed_frac"] = base["workloads"]["fleet_w2"]["failed_frac"] + 0.01
        assert rows_of(base, head)["fleet_w2", "failed_frac"][-1] == "OUT OF BOUND"
        # ... and a smaller one is fine
        assert rows_of(head, base)["fleet_w2", "failed_frac"][-1] == "ok"

    def test_an_exact_per_layer_count_must_not_move(self, base):
        head = copy.deepcopy(base)
        head["workloads"]["batch_paper"]["per_layer"]["sim.legs"]["median"] -= 1
        row = rows_of(base, head)["batch_paper", "sim.legs"]
        assert row[-1] == "OUT OF BOUND"

    def test_per_layer_timings_are_not_gated(self, base):
        assert "core.build_s" in base["workloads"]["serve_tree_read"]["per_layer"]
        head = copy.deepcopy(base)
        head["workloads"]["serve_tree_read"]["per_layer"]["core.build_s"]["median"] *= 10
        rows = rows_of(base, head)
        assert ("serve_tree_read", "core.build_s") not in rows
        assert all(r[-1] == "ok" for r in rows.values())

    def test_a_changed_fingerprint_is_out_of_bound(self, base):
        head = copy.deepcopy(base)
        head["workloads"]["serve_home_read"]["fingerprint"] = {"changed": True}
        assert rows_of(base, head)["serve_home_read", "fingerprint"][-1] == "OUT OF BOUND"

    def test_frontend_socket_has_no_exact_rows(self, base):
        rows = rows_of(base, base)
        assert ("frontend_socket", "fingerprint") not in rows
        assert not [k for k in rows if k[0] == "frontend_socket" and k[1] in defs.EXACT
                    and k[1] not in {m["name"] for m in defs.END_TO_END}]

    def test_worsening_is_relative_and_signed_by_direction(self):
        assert stats.worsening(100.0, 120.0, "lower") == pytest.approx(0.2)
        assert stats.worsening(100.0, 120.0, "higher") == pytest.approx(-0.2)
        assert stats.worsening(0.0, 0.0, "lower") == 0.0
        assert stats.worsening(0.0, 1.0, "lower") == float("inf")


class TestGate:
    def test_identical_results_exit_0_with_a_summary(self, base, tmp_path, capsys):
        path = tmp_path / "base.json"
        path.write_text(json.dumps(base))
        assert run.main(["--compare", str(path), str(path)]) == 0
        out = capsys.readouterr().out
        assert f"# A: commit {base['header']['commit']}" in out
        assert f"0 out of bound, 0 unresolved, {len(run.compare(base, base))} compared" in out

    def test_one_out_of_bound_row_fails_the_job(self, base, tmp_path, capsys):
        head = copy.deepcopy(base)
        value = base["workloads"]["fleet_w2"]["end_to_end"]["peak_rss_mb"]["median"]
        set_values(head, "fleet_w2", "peak_rss_mb", [value * 1.2] * 3)
        a, b = tmp_path / "base.json", tmp_path / "head.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(head))
        assert run.main(["--compare", str(a), str(b)]) == 1
        out = capsys.readouterr().out
        assert "1 out of bound" in out
        assert [line for line in out.splitlines()
                if line.startswith("fleet_w2") and "peak_rss_mb" in line
                and line.endswith("OUT OF BOUND")]

    def test_unresolved_rows_alone_do_not_fail_the_job(self, base, tmp_path, capsys):
        head = copy.deepcopy(base)
        set_values(head, "serve_tree_write", "wall_p95_ms", [1.0, 2.0, 3.0])
        a, b = tmp_path / "base.json", tmp_path / "head.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(head))
        assert run.main(["--compare", str(a), str(b)]) == 0
        assert "0 out of bound, 1 unresolved" in capsys.readouterr().out

    @pytest.mark.parametrize("regressed", [False, True])
    def test_the_command_ci_runs_exits_by_verdict(self, base, tmp_path, regressed):
        head = copy.deepcopy(base)
        if regressed:
            head["workloads"]["batch_paper"]["per_layer"]["sim.legs"]["median"] += 1
        a, b = tmp_path / "base.json", tmp_path / "head.json"
        a.write_text(json.dumps(base))
        b.write_text(json.dumps(head))
        proc = subprocess.run(
            [sys.executable, str(SUITE / "run.py"), "--compare", str(a), str(b)],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == (1 if regressed else 0), proc.stderr
        assert ("1 out of bound" if regressed else "0 out of bound") in proc.stdout

    def test_the_committed_reference_pair_compares_clean(self):
        a, b = (json.loads(p.read_text()) for p in (REFERENCE, REFERENCE_B))
        rows = run.compare(a, b)
        assert not [r for r in rows if r[-1] == "OUT OF BOUND"]
        assert {r[0] for r in rows} == set(defs.ALL)


class TestWorkflow:
    def test_ci_compares_base_and_head_on_a_pull_request(self):
        text = CI.read_text()
        assert "fetch-depth: 0" in text
        assert 'git worktree add "$RUNNER_TEMP/base" ${{ github.event.pull_request.base.sha }}' in text
        assert '--compare "$RUNNER_TEMP/base.json" "$RUNNER_TEMP/head.json"' in text
        assert text.count("benchmarks/suite/run.py --repeats 3 --seconds 4") == 2

    @pytest.mark.parametrize("workflow", sorted(WORKFLOWS.glob("*.yml")), ids=lambda p: p.name)
    def test_every_script_a_workflow_names_exists(self, workflow):
        scripts = set(re.findall(r"\b(?:benchmarks|tools|tests|examples)/[\w/.-]+\.py\b",
                                 workflow.read_text()))
        assert scripts
        assert not [s for s in sorted(scripts) if not (REPO_ROOT / s).is_file()]
