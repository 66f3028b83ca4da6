"""Shard-parallel serving fleet: N engine replicas in worker processes.

One :class:`~repro.serve.session.ServeSession` is single-threaded by
construction (one event heap, one strategy state).  The fleet scales
serving *out* instead of up: the offered request stream is partitioned
deterministically across ``workers`` independent engine replicas, each
running the full session + loadgen stack in its own forked process with
a derived seed, and the per-worker results are merged into one
:class:`FleetReport`.  Its merged view is itself a
:class:`~repro.serve.session.ServeReport`, derived by the
:meth:`~repro.serve.session.ServeReport.make` a session's ``close()``
runs, from merged accounting:

* the :attr:`~repro.serve.session.ServeReport.ADDITIVE` counters
  (accepted / rejected / completed / hits / misses / evictions / storage
  cost / the availability counters) merge by addition -- order-exact,
  so the aggregate is independent of worker scheduling;
* latency percentiles merge through the
  :class:`~repro.metrics.StreamingQuantiles` sketch (bucket addition):
  the merged percentiles equal a single sketch fed the concatenation of
  every worker's samples, which is what the fleet property tests pin;
* link traffic merges through :meth:`LinkStats.merge_state
  <repro.network.stats.LinkStats.merge_state>` into a fleet-wide
  accumulator (sharded :class:`~repro.network.stats.LinkStats`);
* throughput aggregates as total completed requests over the slowest
  worker's wall clock -- the fleet serves shards concurrently, so the
  makespan is the widest worker.

``workers=1`` never forks: :func:`run_fleet` falls through to a plain
:func:`~repro.serve.loadgen.run_loadgen` call in-process, byte-identical
to driving the session directly.

Determinism: worker ``i`` of ``N`` serves ``requests // N`` (+1 for the
first ``requests % N`` workers) requests with loadgen seed
``spawn_seed(seed, i)`` (derived via :class:`numpy.random.SeedSequence`
spawning, so worker streams are independent and reproducible).  The
same ``(seed, workers, requests)`` triple always produces the same
fleet report, whatever the interleaving of the worker processes.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..metrics import StreamingQuantiles
from ..network.stats import LinkStats
from .loadgen import run_loadgen
from .session import ServeReport, ServeSession

__all__ = ["FleetReport", "run_fleet", "spawn_seed", "split_requests"]

#: How often the parent, waiting for results, checks that the workers
#: still owed one are alive.
_POLL_SECONDS = 0.5


def split_requests(requests: int, workers: int) -> List[int]:
    """Deterministic shard sizes: as even as possible, remainder to the
    lowest-indexed workers, every shard nonempty when ``requests >=
    workers``."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if requests < workers:
        raise ValueError(
            f"cannot shard {requests} requests across {workers} workers "
            "(each worker needs at least one request)"
        )
    base, extra = divmod(requests, workers)
    return [base + (1 if i < extra else 0) for i in range(workers)]


def spawn_seed(seed: int, worker: int) -> int:
    """Worker ``worker``'s derived loadgen seed (SeedSequence spawning:
    independent streams, reproducible from the parent seed alone)."""
    child = np.random.SeedSequence(seed).spawn(worker + 1)[worker]
    return int(child.generate_state(1, dtype=np.uint64)[0])


@dataclass
class FleetReport:
    """Merged result of a fleet run: per-worker reports plus aggregates.

    ``workers`` holds each replica's full :class:`ServeReport` (its shard
    size, seed, and counters in ``extra``); ``fleet`` is the merged view,
    the ``as_dict()`` of one merged :class:`ServeReport` (without
    ``extra``) plus ``workers``: summed counters, sketch-merged
    percentiles, fleet-wide link aggregates, and ``requests_per_sec`` =
    total completed / slowest worker wall clock."""

    workers: List[ServeReport]
    fleet: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fleet": dict(self.fleet),
            "workers": [w.as_dict() for w in self.workers],
        }


def _shipped(session: ServeSession, report: ServeReport) -> Dict[str, Any]:
    """What one closed session contributes to the merge: its report and
    the picklable state of its traffic and latency sketches."""
    return {
        "report": report,
        "links": session.rt.sim.stats.state(),
        "lat_sim": session._lat_sim.state(),
        "lat_wall": session._lat_wall.state(),
        "topology": session.rt.sim.topology,
    }


def _run_worker(
    index: int,
    make_session: Callable[[], ServeSession],
    loadgen_opts: Dict[str, Any],
    out_q,
) -> None:
    """Worker body (forked): fresh session, its shard of the load, state
    shipped back through the queue."""
    try:
        session = make_session()
        out_q.put((index, _shipped(session, run_loadgen(session, **loadgen_opts))))
    except BaseException as exc:  # surfaced by the parent as a fleet error
        out_q.put((index, {"error": repr(exc)}))
        raise


def _lat_merge(states) -> StreamingQuantiles:
    """One merged latency sketch from per-worker sketch states (bucket
    addition)."""
    merged = StreamingQuantiles()
    for state in states:
        merged.merge(StreamingQuantiles.from_state(state))
    return merged


def run_fleet(
    make_session: Callable[[], ServeSession],
    *,
    workers: int = 1,
    requests: int = 10_000,
    seed: int = 0,
    **loadgen_opts: Any,
) -> FleetReport:
    """Run ``requests`` total requests across ``workers`` engine replicas.

    ``make_session`` builds one fresh :class:`ServeSession` (called once
    per worker, inside the forked process); remaining keyword options are
    forwarded to :func:`~repro.serve.loadgen.run_loadgen`.  With
    ``workers=1`` the call never forks and is byte-identical to
    ``run_loadgen(make_session(), requests=requests, seed=seed, ...)``.
    """
    if workers == 1:
        session = make_session()
        report = run_loadgen(session, requests=requests, seed=seed, **loadgen_opts)
        return FleetReport(workers=[report], fleet=_aggregate([_shipped(session, report)]))

    shards = split_requests(requests, workers)
    ctx = mp.get_context("fork")
    out_q = ctx.Queue()
    procs = []
    for i in range(workers):
        opts = dict(loadgen_opts)
        opts["requests"] = shards[i]
        opts["seed"] = spawn_seed(seed, i)
        p = ctx.Process(
            target=_run_worker, args=(i, make_session, opts, out_q)
        )
        p.start()
        procs.append(p)
    results: List[Optional[Dict[str, Any]]] = [None] * workers
    pending = workers
    while pending:
        try:
            i, payload = out_q.get(timeout=_POLL_SECONDS)
        except queue.Empty:
            # A worker that died before reporting (killed, os._exit, a
            # crash in native code) never will: fail instead of waiting.
            dead = [
                f"worker {i} exited with code {p.exitcode}"
                for i, p in enumerate(procs)
                if results[i] is None and p.exitcode is not None
            ]
            if dead and out_q.empty():
                for p in procs:
                    p.terminate()
                    p.join()
                raise RuntimeError(
                    "fleet worker(s) died before reporting: " + "; ".join(dead)
                )
            continue
        results[i] = payload
        pending -= 1
    for p in procs:
        p.join()
    errors = [
        f"worker {i}: {r['error']}"
        for i, r in enumerate(results)
        if r is not None and "error" in r
    ]
    if errors:
        raise RuntimeError("fleet worker(s) failed: " + "; ".join(errors))

    reports = [r["report"] for r in results]
    # Annotate each worker's report with its shard parameters so the
    # fleet JSON is self-describing.
    for i, rep in enumerate(reports):
        rep.extra.update(worker=i, workers=workers, parent_seed=seed)
    return FleetReport(workers=reports, fleet=_aggregate(results))


def _aggregate(results: List[Dict[str, Any]]) -> Dict[str, Any]:
    """The merged fleet view (the ``"fleet"`` half of the report JSON): one
    :meth:`ServeReport.make` over the summed :attr:`ServeReport.ADDITIVE`
    counters, the merged sketches and the merged traffic, as a dict (no
    ``extra``) plus the worker count."""
    reports = [r["report"] for r in results]
    links = LinkStats(results[0]["topology"])
    for r in results:
        links.merge_state(r["links"])
    first = reports[0]
    merged = ServeReport.make(
        (first.strategy, first.network, first.engine),
        {k: sum(getattr(rep, k) for rep in reports) for k in ServeReport.ADDITIVE},
        max(rep.sim_time for rep in reports),
        max(rep.wall_seconds for rep in reports),
        _lat_merge(r["lat_sim"] for r in results),
        _lat_merge(r["lat_wall"] for r in results),
        links.snapshot(),
    )
    view = merged.as_dict()
    del view["extra"]
    view["workers"] = len(reports)
    return view
