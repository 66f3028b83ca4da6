"""A read, write or unlock completes at its issue time or launches a flow.

The request loop continues inline on the first and blocks until the flow
resumes the processor on the second.  There is no third way: a strategy
that returns a completion time later than the issue time is broken, and
the runtime raises, naming it, instead of waiting for that time -- on
both engines, on the serving kernel rings' crossings and on the
session's own rings.
"""

import pytest

from repro.core.registry import get_strategy
from repro.network.machine import GCEL
from repro.network.mesh import Mesh2D
from repro.runtime.launcher import Runtime
from repro.serve import ServeSession
from repro.sim import _ckern
from repro.sim.engine import Simulator

#: op -> an override that completes one second after the issue time.
LATE = {
    "read": lambda self, proc, var, t: (t + 1.0, self.registry.get(var)),
    "write": lambda self, proc, var, value, t: t + 1.0,
    "unlock": lambda self, proc, var, t: type(self).__mro__[1].unlock(self, proc, var, t) + 1.0,
}


def late(spec, op, topology, declare=False):
    """The family of ``spec`` with ``op`` completing late; ``declare``
    keeps its residency mirror (a subclass must declare it in its body)."""
    strategy = get_strategy(spec, topology, seed=0)
    base = type(strategy)
    body = {op: LATE[op]}
    if declare:
        body["_mirror"] = base._mirror
    strategy.__class__ = type("Late" + base.__name__, (base,), body)
    return strategy


def program(op):
    def run(env):
        if env.rank != 0:
            return
        var = env.create("v", 64, value=0)
        if op == "read":
            yield from env.read(var)
        elif op == "write":
            yield from env.write(var, 1)
        else:
            yield from env.lock(var)
            yield from env.unlock(var)

    return run


@pytest.mark.parametrize("engine", ["kernel", "pure"])
@pytest.mark.parametrize("op", sorted(LATE))
def test_a_late_completion_raises_and_names_the_strategy(op, engine, monkeypatch):
    if engine == "pure":
        monkeypatch.setattr(Simulator, "force_pure", True)
    elif _ckern.load_kernel() is None:
        pytest.skip("C kernel unavailable")
    mesh = Mesh2D(4, 4)
    rt = Runtime(mesh, late("fixed-home", op, mesh), GCEL, seed=0)
    with pytest.raises(RuntimeError, match=rf"LateFixedHomeStrategy\.{op} issued at t=.* "
                                           "must complete at its issue time or launch a flow"):
        rt.run(program(op))


@pytest.mark.parametrize("rings", ["kernel", "session", "pure"])
@pytest.mark.parametrize("kind", ["r", "w"])
def test_a_late_completion_of_a_crossed_request_raises(kind, rings, monkeypatch):
    """dynrep declares a mirror without a static flow, so a read miss and a
    remote write cross into the strategy from the kernel's serving rings;
    the session's own rings (``fast=False``, the pure engine) call the
    strategy for every request.  Either way the late time raises."""
    if rings == "pure":
        monkeypatch.setattr(Simulator, "force_pure", True)
    elif _ckern.load_kernel() is None:
        pytest.skip("C kernel unavailable")
    mesh = Mesh2D(4, 4)
    op = "read" if kind == "r" else "write"
    session = ServeSession(mesh, late("dynrep:threshold=2", op, mesh, declare=True),
                           seed=0, fast={"kernel": True, "session": False}.get(rings))
    vid = session.create(0)
    session.submit(kind, 5, vid, value=1)
    with pytest.raises(RuntimeError, match=rf"LateDynRepStrategy\.{op} issued at t="):
        session.pump()
