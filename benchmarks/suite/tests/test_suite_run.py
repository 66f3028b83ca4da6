"""The orchestrator end to end: the driver's form, ``--quick`` and ``--compare``."""

import copy
import json
import subprocess
import sys

import pytest
from conftest import ROOT, SUITE

import defs
import run

RUN = [sys.executable, str(SUITE / "run.py")]


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, declared", [(0, defs.END_TO_END), (1, defs.PER_LAYER)])
def test_one_workload_prints_the_result_object_last(trace, declared):
    proc = subprocess.run(RUN + ["--workload", "serve_tree_write", "--seed", "5", "--seconds", "1",
                                 "--trace", str(trace), "--quick"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        cell = result["metrics"][m["name"]]
        assert set(cell) == {"value", "unit"} and cell["unit"] == m["unit"]
        if "serve_tree_write" in m["workloads"]:
            assert f"\n{m['name']} " in proc.stdout  # printed by name, with its unit
        else:
            assert cell["value"] == 0.0
    if not trace:
        assert all(cell["value"] > 0 for cell in result["metrics"].values())


def test_unknown_workload_and_missing_program_fail_without_a_result(tmp_path):
    proc = subprocess.run(RUN + ["--workload", "nope"], cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2 and not proc.stdout
    # a directory with only BENCHMARK.json and the benchmark's own files
    bare = tmp_path / "bare"
    (bare / "benchmarks").mkdir(parents=True)
    subprocess.run(["cp", "-r", str(SUITE), str(bare / "benchmarks" / "suite")], check=True)
    subprocess.run(["cp", str(ROOT / "BENCHMARK.json"), str(bare)], check=True)
    proc = subprocess.run([sys.executable, "benchmarks/suite/run.py", "--workload", "serve_tree_read",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0 and not proc.stdout


@pytest.fixture(scope="module")
def quick_result(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite") / "quick.json"
    proc = subprocess.run(RUN + ["--quick", "--trace", "--seed", "1", "--out", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return out, proc, json.loads(out.read_text())


def test_quick_completes_with_every_metric_on_exactly_its_workloads(quick_result):
    out, proc, result = quick_result
    assert result["ok"] and list(result["workloads"]) == list(defs.ALL)
    header = result["header"]
    assert {"commit", "nproc", "python", "numpy", "engine", "seed", "repeats", "utc"} <= set(header)
    assert header["engine"] == "ckern" and header["seed"] == 1 and header["quick"]
    for name, w in result["workloads"].items():
        assert set(w["end_to_end"]) == {m["name"] for m in defs.END_TO_END}
        assert set(w["per_layer"]) == {m["name"] for m in defs.PER_LAYER if name in m["workloads"]}
        for section in ("end_to_end", "per_layer"):
            for metric, cell in w[section].items():
                assert cell["unit"] == defs.METRICS[metric]["unit"]
                assert f"{metric} " in proc.stdout
        assert w["failed"] == 0 and w["failed_frac"] == 0.0 and w["correct"]
        assert all(v["median"] > 0 for v in w["end_to_end"].values())
        assert (w["fingerprint"] is None) == (name in defs.INEXACT_WORKLOADS)
        assert w["trace"]["spans"] or name == "frontend_socket"
    # a result is never overwritten
    again = subprocess.run(RUN + ["--quick", "--workloads", "batch_paper", "--out", str(out)],
                           cwd=ROOT, capture_output=True, text=True, timeout=60)
    assert again.returncode == 2 and "never overwritten" in again.stderr


def test_compare_a_result_with_itself_and_with_a_regression(quick_result, tmp_path, capsys):
    out, _, result = quick_result
    assert run.main(["--compare", str(out), str(out)]) == 0
    assert "0 out of bound" in capsys.readouterr().out

    worse = copy.deepcopy(result)
    cell = worse["workloads"]["serve_tree_read"]["end_to_end"]["ops_per_sec"]
    cell["median"] *= 0.8
    cell["values"] = [v * 0.8 for v in cell["values"]]
    worse["workloads"]["batch_paper"]["per_layer"]["sim.legs"]["median"] += 1
    path = tmp_path / "worse.json"
    path.write_text(json.dumps(worse))
    assert run.main(["--compare", str(out), str(path)]) == 1
    rows = {(r[0], r[1]): r for r in run.compare(result, worse)}
    assert rows["serve_tree_read", "ops_per_sec"][-1] == "OUT OF BOUND"
    assert rows["serve_tree_read", "ops_per_sec"][4] == pytest.approx(0.2)
    assert rows["batch_paper", "sim.legs"][-1] == "OUT OF BOUND"
    assert rows["serve_tree_read", "cpu_us_per_op"][-1] == "ok"


def _result(values_a, values_b, metric="ops_per_sec"):
    def one(values):
        m = defs.METRICS[metric]
        cells = {e["name"]: {"median": 1.0, "values": [1.0], "unit": e["unit"]} for e in defs.END_TO_END}
        cells[metric] = {"median": run.stats.median(values), "values": values, "unit": m["unit"]}
        return {"header": {}, "workloads": {"serve_tree_read": {
            "end_to_end": cells, "per_layer": {}, "failed_frac": 0.0, "fingerprint": {"x": 1}}}}
    return one(values_a), one(values_b)


def test_compare_marks_noisy_pairs_unresolved_and_uses_the_metric_direction():
    def verdict(a, b, metric="ops_per_sec"):
        rows = run.compare(*_result(a, b, metric))
        return next(r for r in rows if r[1] == metric)

    assert verdict([100.0, 101.0, 102.0], [96.0, 97.0, 98.0])[-1] == "ok"          # -4% is inside the bound
    assert verdict([100.0, 101.0, 102.0], [80.0, 81.0, 82.0])[-1] == "OUT OF BOUND"
    assert verdict([100.0, 101.0, 102.0], [120.0, 121.0, 122.0])[-1] == "ok"       # faster
    assert verdict([80.0, 100.0, 120.0], [80.0, 81.0, 82.0])[-1] == "unresolved"  # IQR 40% of the median
    # lower-is-better metrics worsen upwards
    assert verdict([10.0, 10.0, 10.0], [12.0, 12.0, 12.0], "cpu_us_per_op")[-1] == "OUT OF BOUND"
    # simulated quantities are exact: any difference is out of bound
    assert verdict([1318.6], [1318.7], "sim_bytes_per_op")[-1] == "OUT OF BOUND"
    assert verdict([1318.6], [1318.6], "sim_bytes_per_op")[-1] == "ok"
