"""Every processor wake-up is one kernel resume.

A blocked processor resumes through the simulator's resume hook and
nothing else: a finished flow, a compute delay, a later completion, a
lock grant, a receive, the program start and a barrier release are all
``K_RESUME`` events (``Simulator.resume_at``; a barrier's pass pushes
its releases itself).  So on the C kernel a failure-free batch run never
calls ``Simulator.schedule``, and under a failure schedule the only
generic events are the schedule's own.
"""

import pytest

from repro.network.mesh import Mesh2D
from repro.sim import _ckern
from repro.sim.engine import Simulator
from repro.workloads import get_workload

pytestmark = pytest.mark.skipif(_ckern.load_kernel() is None, reason="C kernel unavailable")

#: (app, strategy, params, runtime kwargs): the four apps on both static
#: families, and the hand-optimized matmul (message passing: sends and
#: receives).  Barnes-Hut takes locks, matmul with compute charged takes
#: compute delays.
CELLS = [
    ("matmul", "4-ary", {"block_entries": 64}, {"charge_compute": True}),
    ("matmul", "handopt", {"block_entries": 64}, {"charge_compute": True}),
    ("bitonic", "fixed-home", {"keys": 64}, {}),
    ("barneshut", "4-ary", {"bodies": 32, "steps": 2, "warm": 1}, {}),
    ("barneshut", "fixed-home", {"bodies": 32, "steps": 2, "warm": 1}, {"barrier": "central"}),
    ("zipf", "2-4-ary", {"n_vars": 32, "ops": 24, "alpha": 0.9, "read_frac": 0.8}, {}),
]


def count_generic_events(monkeypatch):
    """Count ``Simulator.schedule`` calls by callback name, and processor
    wake-ups pushed from Python."""
    seen = {"schedule": [], "resume_at": 0}
    schedule, resume_at = Simulator.schedule, Simulator.resume_at

    def counting_schedule(self, time, callback, *args):
        seen["schedule"].append(callback.__name__)
        schedule(self, time, callback, *args)

    def counting_resume_at(self, time, proc):
        seen["resume_at"] += 1
        resume_at(self, time, proc)

    monkeypatch.setattr(Simulator, "schedule", counting_schedule)
    monkeypatch.setattr(Simulator, "resume_at", counting_resume_at)
    return seen


@pytest.mark.parametrize("app,spec,params,kwargs", CELLS,
                         ids=[f"{c[0]}-{c[1]}-{'-'.join(c[3]) or 'plain'}" for c in CELLS])
def test_a_failure_free_batch_run_pushes_no_generic_event(app, spec, params, kwargs, monkeypatch):
    seen = count_generic_events(monkeypatch)
    result = get_workload(app).run(Mesh2D(4, 4), spec, seed=3, params=params, **kwargs)
    assert result.extra["execution"]["engine"] == "ckern"
    assert seen["schedule"] == []
    assert seen["resume_at"] >= 16  # the program starts, at least


def test_under_a_failure_schedule_only_failure_events_are_generic(monkeypatch):
    seen = count_generic_events(monkeypatch)
    result = get_workload("barneshut").run(
        Mesh2D(4, 4), "4-ary", seed=3, params={"bodies": 32, "steps": 2, "warm": 1},
        failures="churn:nodes=0.2:seed=5",
    )
    assert seen["schedule"] and set(seen["schedule"]) == {"_apply_failure"}
    assert len(seen["schedule"]) == result.failure_events
    assert result.lock_acquisitions > 0 and result.barrier_episodes > 0
