"""Phase accounting as a property: a phase is its own traffic accumulator.

One Hypothesis property draws a small SPMD program -- a few recurring
phase labels, an optional ``reset`` barrier, random reads and writes over
a handful of variables -- and requires that both engines report the same
run, phase for phase, that the additive counters of the phases sum to the
run's (the run total *is* the sum of the phase accumulators), and that the
total equals that of the same program with its barriers unlabelled.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import get_strategy
from repro.network.machine import GCEL
from repro.network.mesh import Mesh2D
from repro.runtime.launcher import Runtime
from repro.sim import _ckern
from repro.sim.engine import Simulator

ADDITIVE = ("total_bytes", "total_msgs", "data_msgs", "local_msgs", "total_startups")
LABELS = ("build", "compute", "exchange")


@st.composite
def programs(draw):
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    payloads = draw(st.lists(st.sampled_from([8, 256, 4096]), min_size=2, max_size=4))
    labels = LABELS[: draw(st.integers(2, 3))]
    op = st.tuples(
        st.integers(0, rows * cols - 1),  # the processor issuing it
        st.sampled_from("rw"),
        st.integers(0, len(payloads) - 1),
    )
    n_segments = draw(st.integers(2, 6))
    # segment 0 runs under "main"; each later one is opened by a labelled
    # barrier, at most one of which also resets the measurement
    segments = [
        (draw(st.sampled_from(labels)) if i else None, draw(st.lists(op, max_size=8)))
        for i in range(n_segments)
    ]
    reset_at = draw(st.one_of(st.none(), st.integers(1, n_segments - 1)))
    strategy = draw(st.sampled_from(["4-ary", "2-4-ary", "fixed-home"]))
    return rows, cols, payloads, segments, reset_at, strategy


def run_program(drawn, pure, monkeypatch, labelled=True):
    rows, cols, payloads, segments, reset_at, strategy = drawn
    monkeypatch.setattr(Simulator, "force_pure", pure)
    mesh = Mesh2D(rows, cols)
    rt = Runtime(mesh, get_strategy(strategy, mesh), GCEL)
    variables = []

    def program(env):
        if env.rank == 0:
            variables.extend(
                env.create(f"v{i}", size, value=0) for i, size in enumerate(payloads)
            )
        yield from env.barrier()
        for i, (label, ops) in enumerate(segments):
            if label is not None:
                yield from env.barrier(
                    phase=label if labelled else None, reset=i == reset_at
                )
            for proc, kind, var in ops:
                if proc != env.rank:
                    continue
                if kind == "r":
                    yield from env.read(variables[var])
                else:
                    yield from env.write(variables[var], i)

    res = rt.run(program)
    assert rt.sim.stats.snapshot() == res.stats  # sim.stats holds the run total
    return res


@given(programs())
@settings(max_examples=40, deadline=None)
def test_phases_are_engine_identical_and_sum_to_the_run(drawn):
    engines = [True] if _ckern.load_kernel() is None else [True, False]
    with pytest.MonkeyPatch.context() as mp:
        results = [run_program(drawn, pure, mp) for pure in engines]
        unlabelled = run_program(drawn, True, mp, labelled=False)
    reports = [res.as_dict() for res in results]
    assert all(report == reports[0] for report in reports)
    _, _, _, segments, reset_at, _ = drawn
    opened = ["main"] + [label for label, _ in segments[1:]]
    if reset_at is not None:
        opened = opened[reset_at:]  # a reset drops every earlier phase
    for res in results:
        assert res.stats == unlabelled.stats  # boundaries move no traffic
        assert [p.name for p in res.phases] == list(dict.fromkeys(opened))
        for counter in ADDITIVE:
            assert sum(getattr(p.stats, counter) for p in res.phases) == getattr(
                res.stats, counter
            )
