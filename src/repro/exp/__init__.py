"""Experiment orchestration: registry, parallel runner, result cache, JSON.

The paper's evaluation is a grid of independent simulation runs
(figure x strategy x mesh size x scale).  This package turns that grid
into data:

* :mod:`repro.exp.spec` -- :class:`Cell` (one independent simulation run,
  a pure function of its parameters) and :class:`ExperimentSpec` (the
  declarative description of one figure/ablation: its parameters at
  each scale, how they expand into cells, how to derive display rows,
  columns, title).
* :mod:`repro.exp.registry` -- one spec per figure/ablation of the paper;
  replaces the CLI's historic ``if/elif`` dispatch chain.
* :mod:`repro.exp.runner` -- shards a spec's cells across a
  ``multiprocessing`` pool (``--jobs N``) and reassembles rows in
  deterministic cell order, so parallel output is identical to serial.
* :mod:`repro.exp.cache` -- content-addressed JSON result cache keyed by
  the cell's function + parameters, so re-runs and resumed sweeps skip
  finished cells.
* :mod:`repro.exp.emit` -- the JSON emitter (schema-versioned result
  files under ``benchmarks/results/``) consumed by CI.

See EXPERIMENTS.md for the user-facing tour.
"""

from .cache import MemoryCache, ResultCache, default_cache_dir
from .emit import (
    SCHEMA_VERSION,
    default_results_dir,
    field_union,
    json_path,
    result_payload,
    sanitize_rows,
    topology_union,
    write_json,
)
from .registry import EXPERIMENTS, REGISTRY, get_spec
from .runner import ExperimentRun, run_cells, run_experiment
from .spec import SCALES, Cell, ExperimentSpec, cell_key, resolve_scale

__all__ = [
    "Cell",
    "ExperimentSpec",
    "cell_key",
    "SCALES",
    "resolve_scale",
    "EXPERIMENTS",
    "REGISTRY",
    "get_spec",
    "ExperimentRun",
    "run_cells",
    "run_experiment",
    "MemoryCache",
    "ResultCache",
    "default_cache_dir",
    "SCHEMA_VERSION",
    "default_results_dir",
    "field_union",
    "json_path",
    "result_payload",
    "sanitize_rows",
    "topology_union",
    "write_json",
]
