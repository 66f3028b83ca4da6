"""``BENCHMARK.json`` and the suite's own tables say the same thing."""

import json
import re

from conftest import ROOT, SUITE

import defs

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert DECLARED["paths"] == ["benchmarks/suite"]
    assert DECLARED["command"] == ["python3", "benchmarks/suite/run.py"]
    assert (ROOT / DECLARED["command"][1]).resolve() == SUITE / "run.py"
    assert isinstance(DECLARED["run_seconds"], int) and 1 <= DECLARED["run_seconds"] <= 60


def test_workloads_match():
    assert [w["name"] for w in DECLARED["workloads"]] == list(defs.WORKLOADS)
    for w in DECLARED["workloads"]:
        assert set(w) == {"name", "why"}
        assert w["why"] == defs.WORKLOADS[w["name"]]["why"]
        assert len(w["why"]) <= 200 and "\n" not in w["why"]


def test_end_to_end_metrics_match_and_are_universal():
    assert [m["name"] for m in DECLARED["end_to_end"]] == [m["name"] for m in defs.END_TO_END]
    for declared, mine in zip(DECLARED["end_to_end"], defs.END_TO_END):
        assert declared == {k: mine[k] for k in ("name", "unit", "better", "bound")}
        assert 0 < declared["bound"] <= 0.25
        # the driver wants every end-to-end metric on every workload
        assert mine["workloads"] == defs.ALL
    setup = DECLARED["end_to_end"][0]
    assert (setup["name"], setup["unit"], setup["better"]) == ("setup_s", "s", "lower")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def test_per_layer_metrics_match():
    assert [m["name"] for m in DECLARED["per_layer"]] == [m["name"] for m in defs.PER_LAYER]
    for declared, mine in zip(DECLARED["per_layer"], defs.PER_LAYER):
        assert declared == {k: mine[k] for k in ("name", "unit", "better")}
        assert set(mine["workloads"]) <= set(defs.ALL) and mine["workloads"]
    assert len(DECLARED["per_layer"]) <= 128


def test_names_and_units_are_well_formed_and_unique():
    names = [m["name"] for sec in ("workloads", "end_to_end", "per_layer") for m in DECLARED[sec]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in DECLARED["end_to_end"] + DECLARED["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("lower", "higher")


def test_exact_metrics_are_declared():
    assert defs.EXACT <= set(defs.METRICS)
    assert defs.INEXACT_WORKLOADS <= set(defs.WORKLOADS)
