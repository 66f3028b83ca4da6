"""Access-trace record and replay.

Recording hooks into the runtime (``Runtime(recorder=...)``): every
variable creation and every program request (read, write, lock, unlock,
barrier, send, recv, compute, mark) is appended to a per-processor op
list.  The resulting :class:`Trace` is the application's *access stream*
-- everything the data-management strategy ever sees -- with the
application logic stripped out.

Replay re-issues the recorded stream under **any strategy × topology**
(same processor count): a recorded Barnes-Hut run can be re-simulated
against every strategy without re-running tree builds or force
traversals.  Replayed under the *same* configuration, the stream drives
the simulator through the identical sequence of timed operations, so
traffic totals and execution time reproduce exactly (the equivalence
tests pin this).

Mechanics worth knowing:

* **Creates are hoisted.**  Variable creation is local bookkeeping (zero
  messages, zero time), so replay pre-creates all variables -- in
  recorded vid order, by the recorded creator -- before the programs
  start.  Recorded vids therefore map to replay vids *identically*, and
  a stream op can reference a variable that a slower processor only
  creates "later": timing shifts under a different strategy can never
  order a use before its creation.  (Corollary: replay under *bounded*
  memory can evict differently than the live run, which interleaved
  creates with accesses.)
* **Values are not replayed.**  Payload sizes determine all traffic;
  replayed writes store tokens.  Anything value-dependent already
  happened when the trace was recorded.
* The machine model is not serialized; pass the same ``machine`` to
  :func:`replay` that the recording ran under (default GCEL) when
  comparing times.

On disk a trace is one JSON document (gzip-compressed when the path ends
in ``.gz``): a header (format version, workload, params, topology spec,
strategy, seed, barrier kind, compute charging) plus one op array per
processor, each op a compact tagged list (``["r", vid]``,
``["s", dst, payload, tag]``, ...).
"""

from __future__ import annotations

import gzip
import json
import math
import os
import pathlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..core.registry import get_strategy
from ..network.machine import GCEL, MachineModel
from ..network.topology import Topology
from ..runtime.api import (
    BarrierReq,
    ComputeReq,
    LockReq,
    MarkReq,
    ReadReq,
    RecvReq,
    SendReq,
    UnlockReq,
    WriteReq,
)
from ..runtime.launcher import Runtime
from ..runtime.results import RunResult
from .base import Workload, get_workload

__all__ = [
    "Trace",
    "TraceRecorder",
    "record",
    "replay",
    "retarget_topology",
    "topology_spec",
    "topology_from_spec",
    "TRACE_FORMAT_VERSION",
]

TRACE_FORMAT_VERSION = 1

#: Tag values a recorded send/recv may carry (JSON round-trip must
#: preserve identity and hashability).
_TAG_TYPES = (str, int, float, bool, type(None))


def topology_spec(topology: Topology) -> Dict[str, Any]:
    """JSON description from which :func:`topology_from_spec` rebuilds
    the topology."""
    if topology.kind in ("mesh", "torus"):
        return {"kind": topology.kind, "rows": topology.rows, "cols": topology.cols}
    if topology.kind == "hypercube":
        return {"kind": "hypercube", "dim": topology.n_nodes.bit_length() - 1}
    raise ValueError(f"cannot serialize topology kind {topology.kind!r}")


def retarget_topology(spec: Dict[str, Any], kind: str) -> Topology:
    """A ``kind`` topology with the same processor count as the recorded
    spec -- and the same grid shape where both are grids (a 2x8 torus
    trace retargets to the 2x8 mesh, not a re-squared 4x4)."""
    if kind == spec["kind"]:
        return topology_from_spec(spec)
    if spec["kind"] in ("mesh", "torus"):
        n = spec["rows"] * spec["cols"]
    else:
        n = 1 << spec["dim"]
    if kind in ("mesh", "torus"):
        if spec["kind"] in ("mesh", "torus"):
            rows, cols = spec["rows"], spec["cols"]
        else:
            rows = cols = math.isqrt(n)
            if rows * cols != n:
                raise ValueError(
                    f"cannot shape {n} processors into a square grid for "
                    f"topology {kind!r}"
                )
        return topology_from_spec({"kind": kind, "rows": rows, "cols": cols})
    if kind == "hypercube":
        dim = n.bit_length() - 1
        if 1 << dim != n:
            raise ValueError(
                f"hypercube needs a power-of-two processor count, got {n}"
            )
        return topology_from_spec({"kind": "hypercube", "dim": dim})
    raise ValueError(f"unknown topology kind {kind!r}")


def topology_from_spec(spec: Dict[str, Any]) -> Topology:
    """Rebuild a topology from :func:`topology_spec` output."""
    kind = spec["kind"]
    if kind == "mesh":
        from ..network.mesh import Mesh2D

        return Mesh2D(spec["rows"], spec["cols"])
    if kind == "torus":
        from ..network.torus import Torus2D

        return Torus2D(spec["rows"], spec["cols"])
    if kind == "hypercube":
        from ..network.topology import Hypercube

        return Hypercube(spec["dim"])
    raise ValueError(f"unknown topology kind {kind!r}")


@dataclass
class Trace:
    """A recorded access stream: header + one op list per processor."""

    header: Dict[str, Any]
    ops: List[List[list]]

    @property
    def n_procs(self) -> int:
        return len(self.ops)

    def creates(self) -> List[Tuple[int, int, int]]:
        """All variable creations as ``(vid, creator, payload_bytes)``,
        in vid order (the original global creation order)."""
        out: List[Tuple[int, int, int]] = []
        for proc, stream in enumerate(self.ops):
            for op in stream:
                if op[0] == "c":
                    out.append((op[1], proc, op[2]))
        out.sort()
        for i, (vid, _, _) in enumerate(out):
            if vid != i:
                raise ValueError(f"trace creates are not dense: expected vid {i}, got {vid}")
        return out

    def counts(self) -> Dict[str, int]:
        """Op-tag histogram (diagnostics / tests)."""
        out: Dict[str, int] = {}
        for stream in self.ops:
            for op in stream:
                out[op[0]] = out.get(op[0], 0) + 1
        return out

    # -------------------------------------------------------------- on disk
    def save(self, path: Union[str, os.PathLike]) -> pathlib.Path:
        """Write the trace as JSON (gzipped when ``path`` ends in .gz)."""
        path = pathlib.Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"header": self.header, "ops": self.ops}
        blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
        if path.suffix == ".gz":
            with gzip.open(path, "wt", encoding="utf-8") as fh:
                fh.write(blob)
        else:
            path.write_text(blob)
        return path

    @classmethod
    def load(cls, path: Union[str, os.PathLike]) -> "Trace":
        path = pathlib.Path(path)
        if path.suffix == ".gz":
            with gzip.open(path, "rt", encoding="utf-8") as fh:
                payload = json.load(fh)
        else:
            payload = json.loads(path.read_text())
        header = payload["header"]
        if header.get("format") != "repro-trace":
            raise ValueError(f"{path}: not a repro trace file")
        if header.get("version") != TRACE_FORMAT_VERSION:
            raise ValueError(
                f"{path}: trace format version {header.get('version')!r}, "
                f"expected {TRACE_FORMAT_VERSION}"
            )
        return cls(header=header, ops=payload["ops"])


class TraceRecorder:
    """Runtime hook that accumulates the access stream of one run.

    Pass as ``Runtime(..., recorder=TraceRecorder())`` (every workload
    and app runner forwards it through ``**runtime_kwargs``), then call
    :meth:`to_trace` after the run.
    """

    def __init__(self) -> None:
        self.ops: Optional[List[List[list]]] = None
        self._runtime: Optional[Runtime] = None

    # ------------------------------------------------------- runtime hooks
    def attach(self, runtime: Runtime) -> None:
        if self._runtime is not None:
            raise RuntimeError("a TraceRecorder records exactly one run")
        self._runtime = runtime
        self.ops = [[] for _ in range(runtime.sim.topology.n_nodes)]

    def record_create(self, proc: int, var) -> None:
        self.ops[proc].append(["c", var.vid, var.payload_bytes])

    def record_request(self, proc: int, req) -> None:
        cls = req.__class__
        stream = self.ops[proc]
        if cls is ReadReq:
            stream.append(["r", req.var.vid])
        elif cls is WriteReq:
            stream.append(["w", req.var.vid])
        elif cls is ComputeReq:
            stream.append(["k", req.ops, req.seconds])
        elif cls is BarrierReq:
            stream.append(["b", req.phase, bool(req.reset)])
        elif cls is LockReq:
            stream.append(["l", req.var.vid])
        elif cls is UnlockReq:
            stream.append(["u", req.var.vid])
        elif cls is SendReq:
            if not isinstance(req.tag, _TAG_TYPES):
                raise TypeError(
                    f"trace recording needs JSON-scalar message tags, got {req.tag!r}"
                )
            stream.append(["s", req.dst, req.payload_bytes, req.tag])
        elif cls is RecvReq:
            if not isinstance(req.tag, _TAG_TYPES):
                raise TypeError(
                    f"trace recording needs JSON-scalar message tags, got {req.tag!r}"
                )
            stream.append(["v", req.tag])
        elif cls is MarkReq:
            stream.append(["m", req.kind])
        else:  # pragma: no cover - new request kinds must be added here
            raise TypeError(f"trace recorder cannot encode request {req!r}")

    # ------------------------------------------------------------- product
    def to_trace(
        self,
        workload: Optional[str] = None,
        params: Optional[Dict[str, Any]] = None,
        embedding: str = "modified",
    ) -> Trace:
        if self._runtime is None:
            raise RuntimeError("recorder was never attached to a Runtime")
        rt = self._runtime
        header = {
            "format": "repro-trace",
            "version": TRACE_FORMAT_VERSION,
            "workload": workload,
            "params": dict(params or {}),
            "topology": topology_spec(rt.sim.topology),
            "n_procs": rt.sim.topology.n_nodes,
            "strategy": rt.strategy.name,
            "embedding": embedding,
            "seed": rt.seed,
            "barrier": getattr(rt.barrier, "kind", "tree"),
            "charge_compute": rt.charge_compute,
            # Failure axis (canonical spec; "none" when absent).  Added
            # within format version 1: readers default via header.get,
            # so pre-failure traces stay loadable.
            "failures": getattr(rt, "failure_spec", "none"),
        }
        return Trace(header=header, ops=self.ops)


def record(
    workload: Union[str, Workload],
    topology: Topology,
    strategy: str = "4-ary",
    *,
    machine: MachineModel = GCEL,
    seed: int = 0,
    embedding: str = "modified",
    params: Optional[Dict[str, Any]] = None,
    path: Optional[Union[str, os.PathLike]] = None,
    **runtime_kwargs: Any,
) -> Tuple[RunResult, Trace]:
    """Run ``workload`` with recording on; returns ``(result, trace)``
    and saves the trace to ``path`` when given."""
    wl = get_workload(workload) if isinstance(workload, str) else workload
    recorder = TraceRecorder()
    result = wl.run(
        topology,
        strategy,
        machine=machine,
        seed=seed,
        embedding=embedding,
        params=params,
        recorder=recorder,
        **runtime_kwargs,
    )
    trace = recorder.to_trace(
        workload=wl.name, params=wl.resolve_params(params), embedding=embedding
    )
    if path is not None:
        trace.save(path)
    return result, trace


def replay(
    trace: Union[Trace, str, os.PathLike],
    topology: Optional[Topology] = None,
    strategy: Optional[str] = None,
    *,
    machine: MachineModel = GCEL,
    seed: Optional[int] = None,
    embedding: Optional[str] = None,
    barrier: Optional[str] = None,
    charge_compute: Optional[bool] = None,
    failures: Optional[str] = None,
    **runtime_kwargs: Any,
) -> RunResult:
    """Re-simulate a recorded access stream.

    Every axis defaults to the recorded configuration -- including the
    failure schedule, so a trace recorded under failures replays under
    the identical schedule; override ``topology`` (same processor
    count), ``strategy`` and/or ``failures`` (``"none"`` disables the
    recorded schedule) to re-evaluate the identical stream elsewhere.
    """
    if not isinstance(trace, Trace):
        trace = Trace.load(trace)
    header = trace.header
    if topology is None:
        topology = topology_from_spec(header["topology"])
    if topology.n_nodes != trace.n_procs:
        raise ValueError(
            f"trace was recorded on {trace.n_procs} processors; "
            f"replay topology has {topology.n_nodes}"
        )
    strategy = strategy if strategy is not None else header["strategy"]
    seed = seed if seed is not None else header.get("seed", 0)
    embedding = embedding if embedding is not None else header.get("embedding", "modified")
    barrier = barrier if barrier is not None else header.get("barrier", "tree")
    if charge_compute is None:
        charge_compute = header.get("charge_compute", True)
    if failures is None:
        failures = header.get("failures", "none")

    strat = get_strategy(strategy, topology, seed=seed, embedding=embedding)
    rt = Runtime(
        topology,
        strat,
        machine,
        charge_compute=charge_compute,
        barrier=barrier,
        seed=seed,
        failures=failures,
        **runtime_kwargs,
    )
    # Hoist creates (see module docstring): recorded vid order, recorded
    # creator, so vids map identically and no use precedes its creation.
    for vid, creator, payload in trace.creates():
        var = rt.create_var(f"t{vid}", payload, creator, value=0)
        assert var.vid == vid

    ops = trace.ops

    def program(env):
        registry = env._rt.registry
        by_id = registry.by_id
        for op in ops[env.rank]:
            tag = op[0]
            if tag == "r":
                yield ReadReq(by_id(op[1]))
            elif tag == "w":
                yield WriteReq(by_id(op[1]), 0)
            elif tag == "k":
                yield ComputeReq(ops=op[1], seconds=op[2])
            elif tag == "b":
                yield BarrierReq(op[1], op[2])
            elif tag == "l":
                yield LockReq(by_id(op[1]))
            elif tag == "u":
                yield UnlockReq(by_id(op[1]))
            elif tag == "s":
                yield SendReq(op[1], op[2], op[3], 0)
            elif tag == "v":
                yield RecvReq(op[1])
            elif tag == "m":
                yield MarkReq(op[1])
            elif tag == "c":
                pass  # hoisted
            else:
                raise ValueError(f"unknown trace op tag {tag!r}")

    result = rt.run(program)
    result.extra["runtime"] = rt
    result.extra["app"] = "trace-replay"
    result.extra["workload"] = header.get("workload")
    result.extra["recorded_strategy"] = header["strategy"]
    result.extra["recorded_topology"] = dict(header["topology"])
    return result
