"""Experiment specifications: cells and per-figure specs.

A :class:`Cell` is the unit of work of the orchestrator: one independent
simulation run (or one tightly coupled group, e.g. a hand-optimized
baseline plus the strategies measured against it), expressed as a
module-level function plus JSON-serializable keyword arguments.  Because
the function is addressed by its import path and the arguments are plain
data, a cell can be

* shipped to a ``multiprocessing`` worker (pickled by reference), and
* content-addressed for the result cache (:func:`cell_key`).

An :class:`ExperimentSpec` declares one figure or ablation of the paper:
its parameters at each scale (:func:`resolve_scale` picks the scale),
how those parameters expand into cells, and how the cell rows are turned
into the displayed table (columns, title, optional derivation step --
Figures 9/10 are derivations of the Figure 8 cells, so they share cache
entries).
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..workloads import get_workload

__all__ = ["Cell", "ExperimentSpec", "SCALES", "cell_key", "resolve_scale",
           "CACHE_KEY_VERSION"]

Row = Dict[str, object]

#: ``quick`` (tests, CI smoke), ``default`` (the shape bench) and
#: ``paper`` (the paper's exact sizes).
SCALES = ("quick", "default", "paper")


def resolve_scale(scale: Optional[str] = None) -> str:
    """The scale a run uses: ``scale``, else ``$REPRO_SCALE``, else
    ``default``.  Raises ``ValueError`` for anything but :data:`SCALES`."""
    if scale is None:
        scale = os.environ.get("REPRO_SCALE", "default")
    if scale not in SCALES:
        raise ValueError(f"scale must be quick/default/paper, got {scale!r}")
    return scale


#: Manual escape hatch: bump to invalidate every cached cell result even
#: when the source fingerprint below cannot see the change (e.g. an
#: external data file).
CACHE_KEY_VERSION = 2  # schema v7: rows carry the metric-suite columns

_FINGERPRINT: Optional[str] = None

#: Subpackages whose code determines cell *results*.  Presentation-layer
#: edits (CLI help text, this orchestration package, docstring-only
#: modules) must not discard hours of cached paper-scale results.
_SIMULATION_PACKAGES = ("core", "network", "runtime", "apps", "analysis", "sim", "workloads")


def _source_fingerprint() -> str:
    """Content hash of the simulation-relevant ``repro`` source, folded
    into each cell key so that any change that could alter a cell's
    numbers invalidates the cache -- stale results must never be served
    after a code edit.  Computed once per process (cells are pure
    functions of parameters + code)."""
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = pathlib.Path(__file__).resolve().parents[1]
        digest = hashlib.sha256()
        for sub in _SIMULATION_PACKAGES:
            for path in sorted((package_root / sub).rglob("*.py")):
                digest.update(str(path.relative_to(package_root)).encode("utf-8"))
                digest.update(path.read_bytes())
        _FINGERPRINT = digest.hexdigest()
    return _FINGERPRINT


def _canonical(value: Any) -> Any:
    """JSON-stable form of a cell argument (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    return value


def cell_key(fn: Callable[..., List[Row]], kwargs: Mapping[str, Any]) -> str:
    """Content address of one cell: function import path + parameters +
    source fingerprint.

    Stable across processes and sessions for unchanged code; changes
    whenever the function identity, any parameter, any ``repro`` source
    file, or :data:`CACHE_KEY_VERSION` changes.
    """
    payload = {
        "v": CACHE_KEY_VERSION,
        "src": _source_fingerprint(),
        "fn": f"{fn.__module__}.{fn.__qualname__}",
        "kwargs": _canonical(dict(kwargs)),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Cell:
    """One independent unit of experiment work.

    ``fn`` must be a module-level function (so it pickles by reference for
    the process pool) returning a list of JSON-serializable row dicts;
    ``kwargs`` must contain only JSON-serializable values.
    """

    fn: Callable[..., List[Row]]
    kwargs: Tuple[Tuple[str, Any], ...]

    @staticmethod
    def make(fn: Callable[..., List[Row]], **kwargs: Any) -> "Cell":
        return Cell(fn=fn, kwargs=tuple(sorted(kwargs.items())))

    @property
    def key(self) -> str:
        return cell_key(self.fn, dict(self.kwargs))

    def run(self) -> List[Row]:
        return self.fn(**dict(self.kwargs))

    def describe(self) -> Dict[str, Any]:
        """Human-readable identity (stored next to cached rows)."""
        return {
            "fn": f"{self.fn.__module__}.{self.fn.__qualname__}",
            "kwargs": _canonical(dict(self.kwargs)),
        }


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one figure / ablation.

    Attributes
    ----------
    name:
        CLI name (``fig3``, ``ablation-tree-degree``, ...).
    columns:
        Columns of the displayed table, in order.
    params:
        ``scale -> params``: the concrete parameter dict at each of
        :data:`SCALES` (``paper`` is the paper's exact configuration;
        the ablations give the same dict at every scale).
    make_cells:
        ``params -> [Cell, ...]`` -- pure expansion of parameters into
        independent cells; the runner preserves this order.
    title:
        Table title, a format string over ``{scale}`` and ``{workload}``.
    derive:
        Optional ``(rows, params) -> rows`` applied to the concatenated
        cell rows (e.g. Figures 9/10 project phase columns out of the
        Figure 8 cells).
    uses_workload:
        Whether the ``--workload`` CLI axis changes the experiment (the
        tree-degree and embedding ablations run any registered
        workload): the resolved parameters gain a ``"workload"`` key, and
        a workload other than the two paper apps keeps its own default
        ``size``.  Result files for a non-default workload get a
        workload-suffixed name so axis values don't overwrite each other.
    uses_topology:
        Whether the ``--topology`` CLI axis changes the experiment: the
        resolved parameters gain a ``"topology"`` key the cell builder
        forwards into its cells.  Result files for a non-mesh topology get
        a topology-suffixed name.  (The cross-topology sweeps ``xtopo-*``
        and ``xwork-zipf`` iterate topologies *internally* and therefore
        do **not** set this.)
    """

    name: str
    columns: Tuple[str, ...]
    params: Mapping[str, Mapping[str, Any]]
    make_cells: Callable[[Dict[str, Any]], List[Cell]]
    title: str
    derive: Optional[Callable[[List[Row], Dict[str, Any]], List[Row]]] = None
    uses_workload: bool = field(default=False)
    uses_topology: bool = field(default=False)

    def params_for(
        self, scale: Optional[str] = None, workload: str = "matmul", topology: str = "mesh"
    ) -> Dict[str, Any]:
        """Resolve CLI-level knobs (scale, workload, topology) into a
        fresh parameter dict."""
        params = copy.deepcopy(dict(self.params[resolve_scale(scale)]))
        if self.uses_workload:
            params["workload"] = workload
            if workload not in ("matmul", "bitonic"):
                # A synthetic kernel sized like a matrix block would run
                # for minutes: it keeps its own default load.
                wl = get_workload(workload)
                if wl.size_param is not None:
                    params["size"] = wl.defaults[wl.size_param]
        if self.uses_topology:
            params["topology"] = topology
        return params

    def cells(
        self,
        scale: Optional[str] = None,
        workload: str = "matmul",
        topology: str = "mesh",
    ) -> List[Cell]:
        return self.make_cells(self.params_for(scale, workload, topology))


def concat(cell_rows: Sequence[Optional[List[Row]]]) -> List[Row]:
    """Flatten per-cell row lists (in cell order) into one table."""
    rows: List[Row] = []
    for chunk in cell_rows:
        if chunk:
            rows.extend(chunk)
    return rows
