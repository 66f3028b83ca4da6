"""The child's measuring code against the program itself."""

import pytest

import defs
import worker
from repro.core.registry import get_strategy
from repro.network.stats import LinkStats
from repro.network.topology import make_topology
from repro.serve import run_loadgen
from repro.sim.engine import Simulator
from repro.workloads.base import Workload
from tracing import Tracer, patched


@pytest.mark.parametrize("name", defs.SERVE_LIKE)
def test_traced_loop_reproduces_run_loadgen_bit_for_bit(name):
    cfg = defs.WORKLOADS[name]
    opts = worker.serve_options(cfg, seed=3, requests=20_000)
    plain = run_loadgen(worker.build_session(cfg), **opts)

    tracer = Tracer()
    session = worker.build_session(cfg)
    strategy = session.rt.strategy
    with patched(tracer, worker.strategy_targets(strategy) + [(Simulator, "run", "sim.run")]):
        with tracer.span("timed") as root:
            traced = worker.traced_loadgen(tracer, session, **opts)
    assert worker.fingerprint(traced) == worker.fingerprint(plain)
    assert (traced.accepted, traced.rejected, traced.requests) == (20_000, 0, 20_000)
    assert traced.engine == "ckern"
    # the wrappers are gone again
    assert not set(defs.STRATEGY_CALLS) & set(vars(strategy))
    assert "__wrapped__" not in vars(Simulator.run)
    # and the spans between the calls account for the timed region
    assert tracer.coverage(root) > 0.97
    summary = tracer.summary()
    assert summary["session.submit"]["count"] == summary["session.pump"]["count"] == 3
    crossings = summary["core.read"]["count"] + summary["core.write"]["count"]
    assert crossings > 0
    if name == "serve_tree_read":
        assert summary["core.read"]["count"] == 0  # native tree flow: reads never cross


def test_serve_round_counts_and_fingerprints():
    kind = worker.Serve(defs.WORKLOADS["serve_home_read"], seed=1, quick=True)
    plain = kind.run(kind.prepare(False), None)
    traced = kind.run(kind.prepare(True), Tracer())
    assert plain["fingerprint"] == traced["fingerprint"]
    assert plain["attempted"] == plain["ops"] == 10_000 and plain["failed"] == 0
    assert all(c["ok"] for c in kind.checks)
    values = traced["values"]
    assert values["core.read_calls"] + values["core.write_calls"] == pytest.approx(
        values["core.crossings_per_kop"] * 10)
    assert values["sim.run_self_s"] <= values["sim.run_s"] <= values["session.pump_s"] + values[
        "session.close_s"]
    assert values["trace.coverage_frac"] > 0.97


def test_traced_batch_round_removes_its_class_wrappers():
    kind = worker.Batch(defs.WORKLOADS["batch_paper"], seed=0, quick=True)
    classes = [type(get_strategy(spec, make_topology("mesh", 2))) for spec in defs.BATCH_STRATEGIES]
    before = [(owner, attr, vars(owner).get(attr))
              for owner in classes + [Simulator, LinkStats, Workload]
              for attr in defs.STRATEGY_CALLS + ("run", "snapshot", "make_strategy")]
    plain = kind.run(kind.prepare(False), None)
    traced = kind.run(kind.prepare(True), Tracer())
    assert [(o, a, vars(o).get(a)) for o, a, _ in before] == before
    assert plain["fingerprint"] == traced["fingerprint"]
    assert all(c["ok"] for c in kind.checks)
    values = traced["values"]
    assert values["trace.coverage_frac"] > 0.97
    assert values["workloads.run_s"] == pytest.approx(
        sum(values[f"batch.{c['app']}_s"] for c in kind.cells))
    assert values["core.read_calls"] > 0 and values["core.lock_calls"] > 0
    assert 0 < values["sim_congestion_ratio"] < 1 and 0 < values["sim_time_ratio"] < 1
    assert plain["failed"] == 0 and plain["attempted"] == plain["ops"] > 0


def test_a_failed_app_verification_fails_the_cell(monkeypatch):
    kind = worker.Batch(defs.WORKLOADS["batch_paper"], seed=0, quick=True)
    real_row = worker.Batch.row

    def unverified(cell, spec, result, wall):
        result.extra.pop("verified", None)
        return real_row(cell, spec, result, wall)

    monkeypatch.setattr(worker.Batch, "row", staticmethod(unverified))
    record = kind.run(kind.prepare(False), None)
    assert not kind.checks[-1]["ok"] and "matmul/4-ary" in kind.checks[-1]["detail"]
    assert 0 < record["failed"] < record["attempted"]  # zipf has no verifier, so it still counts
