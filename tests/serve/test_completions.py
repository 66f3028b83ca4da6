"""Completions are one record per request, the same on either request rings.

``drain_completions()`` reports ``(ids, done, values)`` for the most
recent pump.  Served on the kernel's rings, on the session's own rings
(``mode: classic``) over the C kernel and over the pure engine, the
concatenation over every
pump -- sorted by id -- must be equal, ids must be the accept indices,
and values must follow *initiation* order: a write stores its value and
a read takes the variable's current one at the moment each is initiated,
whichever completes first.
"""

import numpy as np
import pytest

from repro.network.mesh import Mesh2D
from repro.network.topology import make_topology
from repro.serve import ServeSession
from repro.serve.session import _REC
from repro.sim import _ckern
from repro.sim.engine import Simulator

N_VARS = 5


def serve(topology, spec, fast, *, requests=400, chunk=40, window=24):
    """Seeded reads and writes (distinct write values), submitted in
    chunks with a window smaller than a chunk, one horizon-bounded pump
    per chunk and then pumps until idle; every pump drained."""
    sess = ServeSession(make_topology(topology, 4), spec, seed=0, fast=fast,
                        max_inflight=window, record=False)
    n = sess.n_procs
    for vid in range(N_VARS):
        sess.create(vid % n, 96)
    rng = np.random.default_rng(7)
    drained = []
    t = 0.0
    for start in range(0, requests, chunk):
        for i in range(start, start + chunk):
            t += float(rng.exponential(2e-5))
            write = rng.random() < 0.4
            sess.submit("w" if write else "r", int(rng.integers(n)),
                        int(rng.integers(N_VARS)), value=1000 + i if write else 0,
                        arrival=t)
        sess.pump(until=t)
        drained.append(sess.drain_completions())
    while sess.queue_depth or sess.inflight:
        sess.pump()
        drained.append(sess.drain_completions())
    ids, done, values = (np.concatenate(col) for col in zip(*drained))
    order = np.argsort(ids, kind="stable")
    report = sess.close()
    return (ids[order], done[order], values[order]), report


@pytest.mark.skipif(_ckern.load_kernel() is None, reason="C kernel unavailable")
def test_the_record_dtype_is_the_kernels_sreq_field_for_field():
    """The session reads the kernel's completion records through ``_REC``;
    a field that drifted from ``SReq`` in ``abi.h`` would corrupt every
    completion without an error."""
    ffi = _ckern.load_kernel().ffi
    fields = ffi.typeof("SReq").fields
    assert [name for name, _ in fields] == list(_REC.names)
    for name, field in fields:
        assert ffi.offsetof("SReq", name) == _REC.fields[name][1], name
        assert ffi.sizeof(field.type) == _REC[name].itemsize, name
    assert ffi.sizeof("SReq") == _REC.itemsize


@pytest.mark.skipif(_ckern.load_kernel() is None,
                    reason="C kernel unavailable; only the pure engine runs here")
@pytest.mark.parametrize("topology", ["mesh", "hypercube"])
@pytest.mark.parametrize("spec", ["4-ary", "fixed-home", "dynrep:threshold=2"])
def test_three_paths_complete_the_same_records(monkeypatch, spec, topology):
    fast, report = serve(topology, spec, fast=True)
    how = report.extra["dispatch"]
    assert how["mode"] == "fast"
    if spec.startswith("dynrep"):
        assert how["crossed_reads"] and how["crossed_writes"]  # values cross too
    else:
        assert how["crossed_reads"] == how["crossed_writes"] == 0
    ids, done, values = fast
    assert ids.tolist() == list(range(report.accepted)) and report.accepted == 400
    # reads before a variable's first write see 0, the rest echo writes
    assert 0 < (values == 0).sum() < (values >= 1000).sum()
    classic, _ = serve(topology, spec, fast=False)
    monkeypatch.setattr(Simulator, "force_pure", True)
    pure, report = serve(topology, spec, fast=None)
    assert report.extra["dispatch"]["mode"] == "classic"
    for a, b, c in zip(fast, classic, pure):
        assert np.array_equal(a, b) and np.array_equal(b, c)


@pytest.mark.parametrize("fast", [None, False])
def test_a_read_returns_the_write_initiated_before_it_though_it_completes_first(fast):
    """Processor 15's write to a variable held at processor 0 is initiated
    first (its flow takes simulated time); processor 0's read right after
    is a local hit (the copy stays on the write's path) and completes
    first -- with the write's value."""
    sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0, fast=fast, record=False)
    vid = sess.create(0, 64)
    w = sess.submit("w", 15, vid, value=7, arrival=0.0)
    r = sess.submit("r", 0, vid, arrival=1e-9)
    sess.pump()
    ids, done, values = sess.drain_completions()
    assert ids.tolist() == [r, w]
    assert done[0] < done[1]
    assert values.tolist() == [7, 7]
    assert sess.rt.strategy.hits == 1
