"""Traffic statistics: per-link counters, congestion, startups, phases.

The paper's two measured quantities are

* **congestion** -- "the maximum amount of data that is transmitted by the
  same link during the execution of an application".  For the matrix and
  sorting experiments the unit is data volume (congestion "grows linear in
  the block size"); for the Barnes-Hut figures the unit is *messages*
  ("congestion in 10000 messages").  We therefore keep both a byte counter
  and a message counter per directed link.
* **startups** -- the number of message sends per processor (the paper:
  "The sending of a message by a processor is called a startup"), the second
  important cost factor identified by the experiments.

Phases: the Barnes-Hut evaluation breaks congestion and time down by
algorithm phase (Figures 9 and 10), and the matrix experiments measure the
communication time of specific call types.  A phase is its own
:class:`LinkStats`: the runtime swaps the accumulator the engine adds into
at each labelled barrier and sums the phase accumulators into the run
total (:meth:`LinkStats.merge_state`).

One representation: five preallocated numpy arrays (bytes and messages per
directed link, startups and receives per processor, and the three message
counts).  The C event kernel increments all five eagerly through borrowed
pointers.  The pure loop feeds them through a **batched record path**: the
hot path (one :meth:`record` per message leg, millions per large run) only
appends to a flat Python buffer, which is folded into the arrays with
``numpy.bincount`` whenever an aggregate is read.  Reads flush first, and
every counter is an integer-valued sum -- exact in float64 whatever the
accumulation order -- so both engines, any fold cadence and any merge
order produce identical values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, Sequence, Tuple

import numpy as np

from .topology import Topology

__all__ = ["LinkStats", "StatsSnapshot", "PhaseStats"]


@dataclass(frozen=True)
class StatsSnapshot:
    """Immutable summary of one accumulator: a run, or one phase of it."""

    congestion_bytes: float
    congestion_msgs: int
    total_bytes: float
    total_msgs: int
    max_startups: int
    total_startups: int
    data_msgs: int
    ctrl_msgs: int
    local_msgs: int

    def as_dict(self) -> Dict[str, float]:
        return dict(self.__dict__)


@dataclass(frozen=True)
class PhaseStats:
    """Traffic and time attributed to one named phase of an application."""

    name: str
    stats: StatsSnapshot
    time: float

    def as_dict(self) -> Dict[str, object]:
        d = self.stats.as_dict()
        d["name"] = self.name
        d["time"] = self.time
        return d


class LinkStats:
    """Mutable per-directed-link traffic counters for one simulation run.

    Message legs are recorded with :meth:`record`.  Local (same-processor)
    deliveries cross no link and contribute no congestion, but are counted
    separately so hit-ratio style statistics remain possible.
    """

    __slots__ = (
        "topology",
        "_link_bytes",
        "_link_msgs",
        "_startups",
        "_receives",
        "_counts",
        "_pending",
    )

    def __init__(self, topology: Topology):
        self.topology = topology
        n = topology.n_links
        p = topology.n_nodes
        self._link_bytes = np.zeros(n, dtype=np.float64)
        self._link_msgs = np.zeros(n, dtype=np.int64)
        self._startups = np.zeros(p, dtype=np.int64)  # message sends per proc
        self._receives = np.zeros(p, dtype=np.int64)
        self._counts = np.zeros(3, dtype=np.int64)  # total, data, local msgs
        # Batched record path: one (links, size, src, dst, is_data) tuple
        # per leg, folded into the arrays by _flush().  The pure loop
        # appends to this buffer directly; the C kernel never does (it
        # increments the arrays above in place).
        self._pending: list = []

    # ------------------------------------------------------------- recording
    def record(
        self,
        links: Sequence[int],
        size_bytes: float,
        src: int,
        dst: int,
        is_data: bool,
    ) -> None:
        """Account one message leg of ``size_bytes`` crossing ``links``."""
        self._pending.append((tuple(links), size_bytes, src, dst, is_data))

    def _flush(self) -> None:
        """Fold the pending per-leg buffer into the counter arrays."""
        pend = self._pending
        m = len(pend)
        if not m:
            return
        self._pending = []
        links_col, sizes_col, src_col, dst_col, data_col = zip(*pend)
        counts = np.fromiter(map(len, links_col), dtype=np.intp, count=m)
        crossing = int(counts.sum())
        if crossing:
            flat = np.fromiter(chain.from_iterable(links_col), dtype=np.intp, count=crossing)
            sizes = np.fromiter(sizes_col, dtype=np.float64, count=m)
            nl = self._link_bytes.shape[0]
            self._link_bytes += np.bincount(flat, weights=np.repeat(sizes, counts), minlength=nl)
            self._link_msgs += np.bincount(flat, minlength=nl)
        p = self._startups.shape[0]
        self._startups += np.bincount(np.fromiter(src_col, dtype=np.intp, count=m), minlength=p)
        self._receives += np.bincount(np.fromiter(dst_col, dtype=np.intp, count=m), minlength=p)
        self._counts += (m, data_col.count(True), int((counts == 0).sum()))

    # ------------------------------------------------------------- counters
    @property
    def link_bytes(self) -> np.ndarray:
        """Bytes transmitted per directed link (float64 array)."""
        self._flush()
        return self._link_bytes

    @property
    def link_msgs(self) -> np.ndarray:
        """Messages transmitted per directed link (int64 array)."""
        self._flush()
        return self._link_msgs

    @property
    def startups(self) -> np.ndarray:
        """Message sends per processor (int64 array)."""
        self._flush()
        return self._startups

    @property
    def receives(self) -> np.ndarray:
        """Message receives per processor (int64 array)."""
        self._flush()
        return self._receives

    @property
    def counts(self) -> np.ndarray:
        """``(total, data, local)`` message counts (int64 array)."""
        self._flush()
        return self._counts

    @property
    def total_msgs(self) -> int:
        return int(self.counts[0])

    @property
    def data_msgs(self) -> int:
        return int(self.counts[1])

    @property
    def ctrl_msgs(self) -> int:
        total, data, _ = self.counts
        return int(total - data)

    @property
    def local_msgs(self) -> int:
        return int(self.counts[2])

    # ----------------------------------------------------------- aggregation
    @property
    def congestion_bytes(self) -> float:
        """Max bytes across any single directed link (the paper's congestion
        measured in data volume)."""
        return float(self.link_bytes.max(initial=0.0))

    @property
    def congestion_msgs(self) -> int:
        """Max messages across any single directed link (the paper's
        Barnes-Hut congestion unit)."""
        return int(self.link_msgs.max(initial=0))

    @property
    def total_bytes(self) -> float:
        """Total communication load: sum over links of transmitted bytes."""
        return float(self.link_bytes.sum())

    @property
    def total_link_msgs(self) -> int:
        return int(self.link_msgs.sum())

    def _touched(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, bytes, msgs)`` of the links that carried traffic."""
        lb, lm = self.link_bytes, self.link_msgs
        ids = np.flatnonzero((lb != 0.0) | (lm != 0))
        return ids, lb[ids], lm[ids]

    def hottest_links(self, k: int = 5) -> list[tuple[int, int, int, float, int]]:
        """The ``k`` most byte-loaded links as ``(link, src, dst, bytes,
        msgs)``; handy when debugging why a strategy saturates a region.
        Only links that carried traffic rank; ties break on the lower id."""
        ids, byt, msgs = self._touched()
        out = []
        for i in np.lexsort((ids, -byt))[:k]:
            link = int(ids[i])
            s, d = self.topology.link_endpoints(link)
            out.append((link, s, d, float(byt[i]), int(msgs[i])))
        return out

    def render(self, width: int = 4) -> str:
        """Topology-appropriate traffic picture: the grid heatmap for
        meshes (plus a wraparound-wire section for tori), the per-dimension
        link table for hypercubes."""
        kind = getattr(self.topology, "kind", "mesh")
        if kind in ("mesh", "torus"):
            return self.render_heatmap(width=width)
        return self.render_link_table()

    def render_heatmap(self, width: int = 4) -> str:
        """ASCII heatmap of per-link byte load (both directions of each wire
        summed), for eyeballing where a strategy congests the mesh.

        Nodes are ``+``; the number between two nodes is the wire's load as
        a percentage of the most loaded wire (``..`` = idle).  On a torus
        the wraparound wires cannot be drawn inside the grid; they are
        appended as per-row / per-column lines below it, normalized against
        the same peak."""
        m = self.topology
        lb = self.link_bytes
        interior = getattr(m, "_mesh_links", m.n_links)
        wire_load: Dict[Tuple[int, int], float] = {}
        for link in range(interior):
            a, b = m.link_endpoints(link)
            key = (min(a, b), max(a, b))
            wire_load[key] = wire_load.get(key, 0.0) + lb[link]
        wrap_pairs: list[float] = []
        if interior < m.n_links:
            wrap_pairs = [lb[m.h_wrap(r, True)] + lb[m.h_wrap(r, False)] for r in range(m.rows)]
            wrap_pairs += [lb[m.v_wrap(c, True)] + lb[m.v_wrap(c, False)] for c in range(m.cols)]
        peak = max(max(wire_load.values(), default=0.0), max(wrap_pairs, default=0.0))

        def fmt(load: float) -> str:
            if peak <= 0:
                return "..".center(width)
            pct = 100.0 * load / peak
            return (".." if pct < 0.5 else f"{pct:.0f}").center(width)

        def cell(a: int, b: int) -> str:
            return fmt(wire_load[(min(a, b), max(a, b))])

        lines = []
        for r in range(m.rows):
            row = []
            for c in range(m.cols):
                row.append("+")
                if c + 1 < m.cols:
                    row.append(cell(m.node(r, c), m.node(r, c + 1)))
            lines.append("".join(row))
            if r + 1 < m.rows:
                vert = []
                for c in range(m.cols):
                    vert.append(cell(m.node(r, c), m.node(r + 1, c)).replace(" ", " "))
                    if c + 1 < m.cols:
                        vert.append(" ")
                lines.append("".join(v for v in vert))
        if interior < m.n_links:
            lines.append("wrap wires (both directions summed):")
            row_loads = " ".join(
                fmt(lb[m.h_wrap(r, True)] + lb[m.h_wrap(r, False)]) for r in range(m.rows)
            )
            col_loads = " ".join(
                fmt(lb[m.v_wrap(c, True)] + lb[m.v_wrap(c, False)]) for c in range(m.cols)
            )
            lines.append(f"rows: {row_loads}")
            lines.append(f"cols: {col_loads}")
        return "\n".join(lines)

    def render_link_table(self, k: int = 10) -> str:
        """Per-dimension load table (hypercubes) or hottest-link table.

        A hypercube has no planar drawing worth ASCII art; what matters is
        which *dimension* carries the load (e-cube routing fixes dimensions
        in order, so imbalance shows up here) and which individual links
        run hottest."""
        topo = self.topology
        lb = self.link_bytes
        lm = self.link_msgs
        lines = []
        dim = getattr(topo, "dim", None)
        if dim is not None:
            lines.append("per-dimension directed-link load:")
            lines.append("dim  total_bytes  max_bytes  msgs")
            for d in range(dim):
                ids = range(d, topo.n_links, dim)
                total = sum(lb[i] for i in ids)
                peak = max(lb[i] for i in ids)
                msgs = sum(lm[i] for i in ids)
                lines.append(f"{d:<4d} {total:<12.0f} {peak:<10.0f} {msgs}")
        lines.append(f"hottest {k} directed links:")
        lines.append("link  src  dst  bytes  msgs")
        for link, s, d, b, msgs in self.hottest_links(k):
            lines.append(f"{link:<5d} {s:<4d} {d:<4d} {b:<6.0f} {msgs}")
        return "\n".join(lines)

    # ---------------------------------------------------------------- merging
    def state(self) -> Dict[str, object]:
        """Picklable counter state (worker -> parent transport for the
        serving fleet).  Per-link counters ship as indices plus counts, so
        the payload scales with links *touched*, not machine size."""
        ids, byt, msgs = self._touched()
        total, data, local = map(int, self._counts)
        return {
            "n_links": self.topology.n_links,
            "ids": ids,
            "bytes": byt,
            "msgs": msgs,
            "startups": self._startups.copy(),
            "receives": self._receives.copy(),
            "total_msgs": total,
            "data_msgs": data,
            "local_msgs": local,
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold a :meth:`state` dict into this accumulator: the one merge,
        across the fleet's processes and, in process, of a run's phase
        accumulators into its total.  Every counter is an integer-valued
        sum, so the result is independent of merge order (order-exact) --
        byte-identical to accumulating everything in one place."""
        if state["n_links"] != self.topology.n_links:
            raise ValueError("merge_state: topologies differ in link count")
        self._flush()
        ids = state["ids"]
        self._link_bytes[ids] += state["bytes"]
        self._link_msgs[ids] += state["msgs"]
        self._startups += state["startups"]
        self._receives += state["receives"]
        self._counts += (state["total_msgs"], state["data_msgs"], state["local_msgs"])

    def snapshot(self) -> StatsSnapshot:
        total, data, local = map(int, self.counts)
        return StatsSnapshot(
            congestion_bytes=self.congestion_bytes,
            congestion_msgs=self.congestion_msgs,
            total_bytes=self.total_bytes,
            total_msgs=total,
            max_startups=int(self._startups.max(initial=0)),
            total_startups=int(self._startups.sum()),
            data_msgs=data,
            ctrl_msgs=total - data,
            local_msgs=local,
        )
