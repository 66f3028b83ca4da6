"""Batch runs on the kernel's residency mirror equal the pure engine.

On the C kernel a batch :meth:`Runtime.run` arms the residency mirror
for a family with a static flow: reads and writes go to ``sim_access``,
which completes hits and local writes in place and replays read misses
and remote writes as the flows the strategy would launch.  The pure
engine always calls the strategy.  Every simulated quantity must match
exactly, and the static-flow cells must not call ``read`` / ``write`` at
all.
"""

import random

import pytest

from repro.core.access_tree import AccessTreeStrategy
from repro.core.fixed_home import FixedHomeStrategy
from repro.core.registry import get_strategy
from repro.network.machine import GCEL
from repro.network.mesh import Mesh2D
from repro.runtime.launcher import Runtime
from repro.sim import _ckern, engine
from repro.sim.engine import Simulator
from repro.workloads import get_workload

HAS_KERNEL = _ckern.load_kernel() is not None
kernel_only = pytest.mark.skipif(not HAS_KERNEL, reason="C kernel unavailable")

#: app -> (mesh side, params): small enough for tier-1.
CELLS = {
    "matmul": (4, {"block_entries": 64}),
    "bitonic": (4, {"keys": 64}),
    "barneshut": (4, {"bodies": 32, "steps": 2, "warm": 1}),
    "zipf": (4, {"n_vars": 32, "ops": 24, "alpha": 0.9, "read_frac": 0.8}),
}
STATIC = {"4-ary": "tree", "2-4-ary": "tree", "fixed-home": "directory"}


def count_strategy_calls(monkeypatch):
    """Count every ``read`` / ``write`` call on the two static-flow
    families (``dynrep`` inherits the fixed-home ``read``)."""
    calls = {"read": 0, "write": 0}
    for cls in (AccessTreeStrategy, FixedHomeStrategy):
        for name in calls:
            original = getattr(cls, name)

            def counting(self, *args, _original=original, _name=name):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(cls, name, counting)
    return calls


def outcome(result):
    """Everything a batch run reports, plus the strategy's copy placement
    after the run (the mirror hands it back at the end)."""
    rt = result.extra["runtime"]
    strategy = rt.strategy
    return (
        result.time, result.end_time, result.stats,
        [(ph.name, ph.stats, ph.time) for ph in result.phases],
        result.hits, result.misses, result.storage_cost,
        result.latency_p50, result.latency_p95, result.latency_p99,
        result.compute_time, result.lock_acquisitions, result.barrier_episodes,
        result.extra.get("verified"),
        [strategy.residency(vid) for vid in range(len(rt.registry))],
    )


def run_cell(app, spec, **runtime_kwargs):
    side, params = CELLS[app]
    return get_workload(app).run(Mesh2D(side, side), spec, seed=3, params=params, **runtime_kwargs)


@pytest.mark.parametrize("spec", sorted(STATIC))
@pytest.mark.parametrize("app", sorted(CELLS))
def test_mirror_run_equals_the_pure_engine(app, spec, monkeypatch):
    calls = count_strategy_calls(monkeypatch)
    kernel = run_cell(app, spec)
    kernel_calls = dict(calls)
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure = run_cell(app, spec)
    assert outcome(kernel) == outcome(pure)
    assert pure.extra["execution"]["access"] == "strategy"
    assert calls["read"] > kernel_calls["read"]
    how = kernel.extra["execution"]
    if not HAS_KERNEL:
        assert "no C kernel" in how["reason"]
        return
    assert (how["engine"], how["access"], how["flow"]) == ("ckern", "mirror", STATIC[spec])
    assert kernel_calls == {"read": 0, "write": 0}
    assert how["crossed_reads"] == how["crossed_writes"] == how["native_fallbacks"] == 0
    assert how["native_reads"] >= kernel.hits + kernel.misses > 0


#: One cell per wake-up the grid above does not reach: sends and receives,
#: the central barrier's releases, a failure view (the tree barrier's
#: pass runs in Python and pushes its releases one by one; the mirror is
#: refused) and compute delays.
WAKEUP_CELLS = {
    "handopt-matmul": ("matmul", "handopt", {}),
    "central-barrier": ("barneshut", "4-ary", {"barrier": "central"}),
    "linkflap": ("bitonic", "4-ary", {"failures": "linkflap:rate=0.05:seed=7"}),
    "charge-compute": ("matmul", "fixed-home", {"charge_compute": True}),
}


@pytest.mark.parametrize("name", sorted(WAKEUP_CELLS))
def test_every_wake_up_kind_equals_the_pure_engine(name, monkeypatch):
    app, spec, kwargs = WAKEUP_CELLS[name]
    kernel = run_cell(app, spec, **kwargs)
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure = run_cell(app, spec, **kwargs)
    assert outcome(kernel) == outcome(pure)
    assert kernel.failure_events == pure.failure_events
    if name == "linkflap":
        assert kernel.failure_events > 0
    if name == "charge-compute":
        assert kernel.compute_time > 0.0


@pytest.mark.parametrize("spec", ["dynrep:threshold=2", "4-ary:remap=2"])
def test_a_family_without_a_static_flow_calls_the_strategy(spec, monkeypatch):
    calls = count_strategy_calls(monkeypatch)
    kernel = run_cell("zipf", spec)
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure = run_cell("zipf", spec)
    assert outcome(kernel) == outcome(pure)
    how = kernel.extra["execution"]
    assert how["access"] == "strategy" and how["flow"] is None
    assert how["native_reads"] == how["crossed_reads"] == 0
    if HAS_KERNEL:
        assert how["engine"] == "ckern"
        assert how["reason"].endswith("declares no static flow: its misses and remote writes would cross")
    assert calls["read"] > 0


def random_program(variables, seed, n_procs):
    """Reads and writes over a few variables, created mid-run, with a
    measurement reset half way."""
    ops = random.Random(seed)
    plan = [
        [(ops.choice("rrw"), ops.randrange(4)) for _ in range(12)]
        for _ in range(n_procs)
    ]

    def program(env):
        if env.rank == 0:
            variables.extend(env.create(f"v{i}", 64 << i, value=0) for i in range(4))
        yield from env.barrier()
        for step, (kind, i) in enumerate(plan[env.rank]):
            if step == 6:
                yield from env.barrier(reset=True)
            if kind == "r":
                yield from env.read(variables[i])
            else:
                yield from env.write(variables[i], (env.rank, step))

    return program


def run_direct(spec, arm, seed=5):
    mesh = Mesh2D(4, 4)
    rt = Runtime(mesh, get_strategy(spec, mesh, seed=seed), GCEL, seed=seed)
    if arm:
        rt.arm_mirror(static_flow=False)
    variables = []
    result = rt.run(random_program(variables, seed, mesh.n_nodes))
    result.extra["runtime"] = rt
    return result


@kernel_only
@pytest.mark.parametrize("spec", ["dynrep:threshold=2", "migratory", "fixed-home"])
def test_crossings_in_a_batch_run_equal_the_pure_engine(spec, monkeypatch):
    """Armed without a static flow, every miss and remote write crosses
    into the strategy through ``Runtime.cross`` -- and a variable created
    after arming, a measurement reset and the hand-back at the end all
    keep the run identical to the strategy path."""
    kernel = run_direct(spec, arm=True)
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure = run_direct(spec, arm=False)
    assert outcome(kernel) == outcome(pure)
    how = kernel.extra["execution"]
    assert how["access"] == "mirror"
    if spec != "fixed-home":
        assert how["crossed_reads"] + how["crossed_writes"] > 0


@kernel_only
def test_failure_schedules_refuse_the_mirror_with_a_reason():
    mesh = Mesh2D(4, 4)
    rt = Runtime(mesh, get_strategy("4-ary", mesh), GCEL,
                 failures="linkflap:rate=0.01:seed=7")
    result = rt.run(random_program([], 1, mesh.n_nodes))
    how = result.extra["execution"]
    assert how["access"] == "strategy"
    assert how["reason"].startswith("a failure schedule is installed")


def test_execution_is_not_a_result_row_column():
    """The block rides in ``extra``, so result rows (and the CLI goldens
    built from them) do not change."""
    result = run_cell("zipf", "4-ary")
    assert "execution" in result.extra
    assert not {"execution", "access", "engine"} & set(result.as_dict())


@kernel_only
def test_a_staging_buffer_grown_past_its_capacity_keeps_the_run(monkeypatch):
    """A large machine stages rows longer than ``STAGE_CAP`` (the tree
    shape the mirror arms, a wide flow); the kernel grows the buffer
    (``sim_ensure_stage``) and the run stays equal to the pure engine.  A
    tiny initial capacity makes a 4x4 cell grow it."""
    monkeypatch.setattr(engine, "STAGE_CAP", 4)
    kernel = run_cell("zipf", "4-ary")
    assert kernel.extra["runtime"].sim._stage_cap > 4
    assert kernel.extra["execution"]["access"] == "mirror"
    monkeypatch.setattr(Simulator, "force_pure", True)
    assert outcome(kernel) == outcome(run_cell("zipf", "4-ary"))
