"""Parallel experiment runner.

Runs a spec's independent cells, optionally sharded across a
``multiprocessing`` pool (``jobs > 1``) and optionally backed by the
content-addressed :class:`~repro.exp.cache.ResultCache`.  Determinism
contract: results are reassembled **in cell order**, and every fresh cell
result is sanitized to its JSON form before use, so

* ``jobs=N`` output is identical to serial output, and
* a warm-cache run is byte-identical to the cold run that filled it.

The cell is the parallelism grain: each worker reduces its cells to row
scalars itself, so nothing per-link ever crosses a process boundary.
What the parent folds across workers is the **memory envelope**: every
worker reports its peak RSS and :func:`run_cells` returns the max as
``peak_rss_mb``.
"""

from __future__ import annotations

import multiprocessing
import os
import resource
import sys
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis.tables import format_table
from .cache import ResultCache
from .emit import field_union, json_path, result_payload, sanitize_rows, write_json
from .spec import Cell, ExperimentSpec, concat, resolve_scale

__all__ = ["ExperimentRun", "peak_rss_mb", "run_cells", "run_experiment"]

Row = Dict[str, object]


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is KiB on Linux but bytes on macOS; normalize so the
    committed memory ceilings mean one thing everywhere."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def _run_cell(cell: Cell) -> Tuple[List[Row], float]:
    """Pool worker: execute one cell; returns its sanitized (JSON-form)
    rows plus the worker's peak RSS so the parent can fold the envelope."""
    return sanitize_rows(cell.run()), peak_rss_mb()


class CellResults(list):
    """Per-cell row lists (a plain list), annotated with the max peak RSS
    observed across the processes that produced them.

    ``peak_rss_mb`` is ``None`` when every cell came from the cache (no
    simulation ran); in serial runs it is the parent's own peak, which
    upper-bounds the simulations it hosted."""

    peak_rss_mb: Optional[float] = None


def _pool(jobs: int):
    # Prefer fork on Linux so workers inherit sys.path (PYTHONPATH=src
    # checkouts); elsewhere use the platform default (fork is unsafe on
    # macOS, which is why CPython switched its default to spawn there).
    # Cell functions are module-level, so spawn works too.
    use_fork = (
        sys.platform == "linux"
        and "fork" in multiprocessing.get_all_start_methods()
    )
    ctx = multiprocessing.get_context("fork" if use_fork else None)
    return ctx.Pool(processes=jobs)


def run_cells(
    cells: List[Cell],
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
) -> CellResults:
    """Run ``cells``, returning one row list per cell, in cell order.

    Cells with a cache entry are skipped; the remainder run serially
    (``jobs <= 1``) or on a process pool.  Fresh results are written back
    to the cache.  The returned list carries ``peak_rss_mb``: the max
    peak RSS across the worker processes that ran fresh cells.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results: List[Optional[List[Row]]] = [None] * len(cells)
    pending: List[int] = []
    peak: Optional[float] = None
    for i, cell in enumerate(cells):
        hit = cache.get(cell) if cache is not None else None
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)
    if pending:
        todo = [cells[i] for i in pending]
        # Cache writes happen per cell as results arrive (imap), so an
        # interrupted or failed sweep keeps every finished cell -- that is
        # what makes paper-scale runs resumable.
        if jobs > 1 and len(todo) > 1:
            with _pool(min(jobs, len(todo))) as pool:
                for i, (rows, rss) in zip(
                    pending, pool.imap(_run_cell, todo, chunksize=1)
                ):
                    if cache is not None:
                        cache.put(cells[i], rows)
                    results[i] = rows
                    peak = rss if peak is None else max(peak, rss)
        else:
            for i, cell in zip(pending, todo):
                rows, rss = _run_cell(cell)
                if cache is not None:
                    cache.put(cell, rows)
                results[i] = rows
                peak = rss if peak is None else max(peak, rss)
    # Every index is filled by the cache pass or the pending loop; a hole
    # would mean lost results, which must fail loudly, not render as an
    # empty table section.
    assert all(rows is not None for rows in results)
    out = CellResults(rows for rows in results if rows is not None)
    out.peak_rss_mb = peak
    return out


@dataclass
class ExperimentRun:
    """One resolved, executed experiment: rows plus presentation metadata."""

    spec: ExperimentSpec
    params: Dict[str, Any]
    rows: List[Row]
    #: The resolved scale (:func:`~repro.exp.spec.resolve_scale`).
    scale: str
    workload: str
    topology: str = "mesh"
    cells_total: int = 0
    cells_cached: int = 0
    #: Max worker peak RSS (MiB) over the fresh cells of this run; None
    #: when everything came from the cache.  Reported out-of-band (stderr,
    #: memory-report tools) -- deliberately NOT part of payload(), which
    #: must stay byte-identical across machines and cache states.
    peak_rss_mb: Optional[float] = None

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def file_stem(self) -> str:
        """Result-file stem; non-default workload / topology axes get
        their own files so axis values don't overwrite each other."""
        stem = self.name
        if self.spec.uses_workload and self.workload != "matmul":
            stem = f"{stem}.{self.workload}"
        if self.spec.uses_topology and self.topology != "mesh":
            stem = f"{stem}.{self.topology}"
        return stem

    @property
    def topology_label(self) -> str:
        """Topology recorded in the JSON payload: the topologies the rows
        actually cover (``"mesh+torus"`` for an internal sweep), falling
        back to the axis value."""
        default = self.topology if self.spec.uses_topology else "mesh"
        return field_union(self.rows, "topology", default)

    @property
    def workload_label(self) -> str:
        """Workload recorded in the JSON payload: the workloads the rows
        actually cover (``"zipf"`` for the xwork sweeps), falling back to
        the axis value."""
        default = self.workload if self.spec.uses_workload else "matmul"
        return field_union(self.rows, "workload", default)

    @property
    def title(self) -> str:
        return self.spec.title.format(scale=self.scale, workload=self.workload)

    def table(self) -> str:
        return format_table(self.rows, list(self.spec.columns), title=self.title)

    def payload(self) -> Dict[str, Any]:
        return result_payload(
            self.name,
            self.scale,
            self.rows,
            self.spec.columns,
            params=self.params,
            workload=self.workload_label,
            topology=self.topology_label,
        )

    def write_json(self, results_dir: Optional[os.PathLike] = None):
        """Emit the JSON result file; returns its path."""
        return write_json(
            json_path(self.file_stem, self.scale, results_dir), self.payload()
        )


def run_experiment(
    spec: Union[str, ExperimentSpec],
    scale: Optional[str] = None,
    workload: str = "matmul",
    jobs: int = 1,
    cache: Optional[ResultCache] = None,
    topology: str = "mesh",
    param_overrides: Optional[Dict[str, Any]] = None,
) -> ExperimentRun:
    """Resolve, shard, run, and reassemble one experiment.

    ``param_overrides`` replaces resolved parameter values after scale
    resolution (e.g. ``{"nodes": (16384, 131072)}`` to point ``xscale``
    at specific machine sizes); overriding a parameter the spec does not
    define is an error.
    """
    if isinstance(spec, str):
        from .registry import get_spec

        spec = get_spec(spec)
    scale = resolve_scale(scale)
    params = spec.params_for(scale, workload, topology)
    if param_overrides:
        unknown = set(param_overrides) - set(params)
        if unknown:
            raise ValueError(
                f"{spec.name}: unknown parameter override(s) {sorted(unknown)}"
            )
        params = {**params, **param_overrides}
    cells = spec.make_cells(params)
    hits_before = cache.hits if cache is not None else 0
    cell_rows = run_cells(cells, jobs=jobs, cache=cache)
    rows = concat(cell_rows)
    if spec.derive is not None:
        rows = spec.derive(rows, params)
    return ExperimentRun(
        spec=spec,
        params=params,
        rows=rows,
        scale=scale,
        workload=workload,
        topology=topology,
        cells_total=len(cells),
        cells_cached=(cache.hits - hits_before) if cache is not None else 0,
        peak_rss_mb=cell_rows.peak_rss_mb,
    )
