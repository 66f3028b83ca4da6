"""Layering guard: ``serve/`` knows the residency-mirror contract, never a
strategy family.

The serving fast path used to import all five family classes, pick its
flags from an exact-class table and reach into ``_states`` / ``_copies``.
What a family lets the kernel assume is now declared once, on the
strategy (``DataManagementStrategy.residency_mirror``); these tests keep
it that way, and keep the kernel's serving ABI from growing back.
"""

import ast
import inspect
import pathlib
import re
import textwrap

import pytest

import repro.core.registry
import repro.serve
from repro.core.registry import STRATEGIES, get_strategy
from repro.core.strategy import ResidencyMirror
from repro.network.mesh import Mesh2D
from repro.network.stats import LinkStats
from repro.runtime.launcher import Runtime
from repro.serve import ServeSession
from repro.serve.frontend import ServeFrontend
from repro.sim import _ckern
from repro.sim.engine import Simulator

ABI = (_ckern.SOURCE_DIR / "abi.h").read_text()
KERNEL_C = (_ckern.SOURCE_DIR / "kernel.c").read_text()
SERVE_DIR = pathlib.Path(repro.serve.__file__).parent
SERVE_FILES = sorted(SERVE_DIR.glob("*.py"))

FAMILY_MODULES = ("access_tree", "fixed_home", "dynrep", "adaptive", "migratory")

#: Registered families that declare no mirror, and why they cannot.
UNMIRRORED = {
    "handopt": "hand-optimized message passing: programs create no global "
               "variables, so there is no residency to mirror",
}

#: Family class -> the module whose differential sweep (``test_three_
#: paths_agree``) holds the native replay of its static flow to the
#: Python ``read``/``write``.  A mirror that declares a flow arms C code
#: in place of the strategy's, so it needs an entry here.
NATIVE_DIFFERENTIAL = {
    "AccessTreeStrategy": "test_native_write.py",
    "FixedHomeStrategy": "test_native_directory.py",
}


def _imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom):
            yield node.module or ""
            for alias in node.names:
                yield f"{node.module or ''}.{alias.name}"


@pytest.mark.parametrize("path", SERVE_FILES, ids=lambda p: p.name)
class TestServeKnowsNoFamily:
    def test_imports_no_family_module(self, path):
        for name in _imported_modules(ast.parse(path.read_text())):
            assert name.split(".")[-1] not in FAMILY_MODULES, (
                f"{path.name} imports {name}")

    def test_no_class_dispatch_on_the_strategy(self, path):
        """No ``isinstance(<strategy>, SomeClass)`` / ``type(<strategy>)``:
        the session consumes the declaration, it does not recognise classes
        (telling a spec *string* from a built strategy is not dispatch)."""
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call) or not isinstance(node.func, ast.Name):
                continue
            if node.func.id not in ("isinstance", "type") or not node.args:
                continue
            if "strat" not in ast.unparse(node.args[0]):
                continue
            against = ast.unparse(node.args[1]) if len(node.args) > 1 else None
            assert node.func.id == "isinstance" and against == "str", (
                f"{path.name}:{node.lineno} dispatches on the strategy's class")

    def test_no_family_name_or_private_state(self, path):
        pattern = re.compile(
            r"core\.(access_tree|fixed_home|dynrep|adaptive|migratory)"
            r"|(AccessTree|FixedHome|DynRep|Adaptive|Migratory)Strategy"
            r"|\._states\b|\._copies\b|\._leg_costs\b")
        hits = [line for line in path.read_text().splitlines() if pattern.search(line)]
        assert not hits, f"{path.name}: {hits}"


def test_session_assigns_no_attribute_on_the_strategy():
    tree = ast.parse((SERVE_DIR / "session.py").read_text())
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                assert "strat" not in ast.unparse(target.value), (
                    f"session.py:{node.lineno} assigns {ast.unparse(target)}")


def test_kernel_serving_abi_stays_small():
    protos = re.findall(r"\bsim_serve_\w+\s*\(", ABI)
    assert len(protos) == len(set(protos))
    assert len(protos) <= 12, protos


def test_one_flow_entry_point_and_one_completion_code():
    """Every protocol is one flow, and every wake-up one resume: the
    kernel exposes one flow push and one resume push beside the generic
    event push, and a finished flow and a timed wake-up have one way back
    into Python -- "resume this processor"."""
    pushes = set(re.findall(r"\bsim_push_\w+", ABI))
    assert pushes == {"sim_push_generic", "sim_push_flow", "sim_push_resume"}
    codes = set(re.findall(r"\bR_\w+", ABI))
    assert codes == {"R_DONE", "R_GENERIC", "R_RESUME", "R_NEED_ROUTE", "R_SREQ"}


def test_traffic_has_one_accumulator_and_no_counter_side_channel():
    """LinkStats is one representation the kernel adds into through
    borrowed pointers: nothing to choose at construction, and no accessor
    for message counts kept on the C side."""
    protos = re.findall(r"\bsim_\w+\s*\(", ABI)
    assert len(protos) == len(set(protos))
    assert len(protos) <= 25, protos
    assert not re.search(r"\bsim_\w+_msgs\b", ABI)
    assert list(inspect.signature(LinkStats.__init__).parameters) == ["self", "topology"]


def _enumerators(c_text):
    return {name for body in re.findall(r"\benum\s*\{([^}]*)\}", c_text)
            for name in re.findall(r"\b([A-Z]\w*)", body)}


def _typedefs(c_text):
    return set(re.findall(r"\btypedef\b(?:[^{;]|\{[^}]*\})*?(\w+)\s*;", c_text))


def test_the_abi_header_is_the_one_declaration_of_what_both_languages_name():
    """kernel.c includes abi.h and repeats none of its enumerators, type
    names or prototypes, and the kernel loop in Python compares against
    the codes ``lib`` carries, never a bare number."""
    assert '#include "abi.h"' in KERNEL_C
    assert not re.search(r"^\s*#", ABI, re.M)  # cdef parses the header as it is
    shared = _enumerators(ABI)
    assert {"R_SREQ", "A_FLOW", "MC_N", "TOPO_MESH", "FLOW_TREE"} <= shared
    assert not shared & _enumerators(KERNEL_C)
    types = _typedefs(ABI)
    assert {"i64", "Crossing", "SReq", "ServeDrain", "Sim"} <= types
    assert not types & _typedefs(KERNEL_C)
    assert not re.findall(r"^\w[\w \*]*?\b(sim_\w+)\s*\([^;{)]*\)\s*;", KERNEL_C, re.M)
    run = ast.parse(textwrap.dedent(inspect.getsource(Simulator._run_kernel)))
    numbers = [ast.unparse(node) for node in ast.walk(run) if isinstance(node, ast.Compare)
               and any(isinstance(c, ast.Constant) and type(c.value) is int
                       for c in [node.left, *node.comparators])]
    assert not numbers


CORE_DIR = pathlib.Path(repro.core.registry.__file__).parent


@pytest.mark.parametrize("path", sorted(CORE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_strategy_reads_and_writes_hold_no_continuation(path):
    """``read`` / ``write`` compute hosts, update state and launch one
    flow; the engine sequences it.  No nested function, no callback."""
    for fn in ast.walk(ast.parse(path.read_text())):
        if isinstance(fn, ast.keyword):
            assert fn.arg != "done", f"{path.name}:{fn.value.lineno} passes done="
        if not isinstance(fn, ast.FunctionDef) or fn.name not in ("read", "write"):
            continue
        for node in ast.walk(fn):
            nested = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            assert not nested or node is fn, (
                f"{path.name}:{node.lineno} nests a function in {fn.name}()")


def test_session_assigns_no_attribute_on_the_runtime():
    """Completion routing belongs to the runtime (``Simulator.resume_hook``)
    and the kernel (``K_SDONE`` once armed): the session overrides neither."""
    for node in ast.walk(ast.parse((SERVE_DIR / "session.py").read_text())):
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if isinstance(target, ast.Attribute):
                assert ast.unparse(target.value) not in ("rt", "self.rt"), (
                    f"session.py:{node.lineno} assigns {ast.unparse(target)}")


@pytest.mark.parametrize("engine,fast", [("kernel", None), ("kernel", False), ("pure", None)])
def test_a_session_launches_no_generator_and_never_enters_the_request_loop(
        engine, fast, monkeypatch):
    """Serving is the request rings on either engine: no program generator
    per processor, no batch request loop, and Runtime.run is the only
    place that starts programs."""
    if engine == "pure":
        monkeypatch.setattr(Simulator, "force_pure", True)
    elif _ckern.load_kernel() is None:
        pytest.skip("C kernel unavailable")

    def refuse(self):
        raise AssertionError("the batch request loop was bound")

    monkeypatch.setattr(Runtime, "_bind_step", refuse)
    session = ServeSession(Mesh2D(4, 4), "4-ary", seed=0, fast=fast)
    vid = session.create(0)
    for i in range(24):
        session.submit("w" if i % 3 == 0 else "r", (5 * i) % 16, vid, value=i)
    report = session.close()
    assert report.requests == 24
    assert session.rt._gens == [None] * 16
    rings = "fast" if engine == "kernel" and fast is None else "classic"
    assert report.extra["dispatch"]["mode"] == rings
    assert (session.rt.sim.resume_hook is None) == (rings == "fast")
    assert not hasattr(Runtime, "launch")


def test_completions_carry_ids_not_callbacks():
    """One completion API on both rings: no per-request callback to force
    the session's own rings, no creation value the kernel's value
    cell would not see, and a frontend that pumps when lines arrive -- no
    batch timer, no per-request future or lock."""
    assert "on_done" not in inspect.signature(ServeSession.try_submit).parameters
    assert "value" not in inspect.signature(ServeSession.create).parameters
    assert "batch_interval" not in inspect.signature(ServeFrontend.__init__).parameters
    source = (SERVE_DIR / "frontend.py").read_text()
    assert "create_future" not in source and "asyncio.Lock" not in source
    assert not re.search(r"callback|on_done", inspect.getsource(ServeSession._decide_mode))


def _attached(spec):
    topology = Mesh2D(4, 4)
    strategy = get_strategy(spec, topology, seed=0)
    Runtime(topology, strategy, seed=0)
    return strategy


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_every_registered_family_declares_a_mirror_or_is_listed(name):
    declared = _attached(name).residency_mirror()
    if name in UNMIRRORED:
        assert isinstance(declared, str) and "declares no residency mirror" in declared
    else:
        assert isinstance(declared, ResidencyMirror), declared
        assert len(declared.site_of) == 16
        assert all(0 <= site < declared.n_sites for site in declared.site_of)


@pytest.mark.parametrize("name", sorted(set(STRATEGIES) - set(UNMIRRORED)))
def test_every_declared_static_flow_has_a_native_differential_sweep(name):
    strategy = _attached(name)
    if strategy.residency_mirror().flow is None:
        return
    family = type(strategy).__name__
    assert family in NATIVE_DIFFERENTIAL, (
        f"{family} declares the {strategy.residency_mirror().flow} flow "
        "but no differential sweep compares its native replay to Python")
    sweep = pathlib.Path(__file__).with_name(NATIVE_DIFFERENTIAL[family])
    assert "def test_three_paths_agree" in sweep.read_text()


def test_bounded_memory_refuses_the_mirror_with_a_reason():
    topology = Mesh2D(4, 4)
    strategy = get_strategy("fixed-home", topology, seed=0)
    Runtime(topology, strategy, seed=0, capacity_bytes=4096)
    assert "bounded memory" in strategy.residency_mirror()


def _undeclaring(spec, topology):
    """A strategy whose class inherits a family's mirror without declaring
    one in its own body."""
    strategy = get_strategy(spec, topology, seed=0)
    base = type(strategy)
    strategy.__class__ = type("Quiet" + base.__name__, (base,), {})
    return strategy


@pytest.mark.parametrize("spec", ["4-ary", "fixed-home", "dynrep:threshold=2"])
def test_subclass_declaring_nothing_is_served_classically(spec):
    """A subclass may override the hit path, so inheriting a mirror is not
    declaring one: it gets the session's own rings (``mode: classic``), and
    the report says so."""
    topology = Mesh2D(4, 4)
    session = ServeSession(topology, _undeclaring(spec, topology), seed=0)
    vid = session.create(0)
    session.submit("r", 5, vid)
    report = session.close()
    assert report.requests == 1
    how = report.extra["dispatch"]
    assert how["mode"] == "classic"
    if _ckern.load_kernel() is None:
        assert "no C kernel" in how["reason"]
        return
    assert re.fullmatch(r"Quiet\w+Strategy declares no residency mirror", how["reason"])
    insisting = ServeSession(topology, _undeclaring(spec, topology), seed=0, fast=True)
    insisting.create(0)
    with pytest.raises(RuntimeError, match="fast=True .* declares no residency mirror"):
        insisting.pump()
