"""JSON emitter: machine-readable experiment results for CI and tooling.

The text tables of :func:`repro.analysis.tables.format_table` stay the
human-facing output; this module produces the parallel JSON form that the
CI pipeline diffs and archives.  One file per (experiment, scale) under
``benchmarks/results/`` -- e.g. ``fig3.default.json`` -- with a
schema-versioned payload::

    {
      "schema_version": 8,
      "experiment": "fig3",
      "scale": "default",
      "workload": "matmul",     # --workload axis value (registry name)
      "topology": "mesh",       # --topology axis value, or the union an
                                # internal sweep covered ("mesh+torus")
      "params": {...},          # the resolved scale parameters
      "columns": [...],         # display column order
      "rows": [{...}, ...]      # every row field that is JSON-serializable
    }

Schema history: version 2 added the top-level ``topology`` field (the
cross-topology experiments additionally carry a per-row ``topology``);
version 3 added the top-level ``workload`` field (the ``--app`` axis
generalized to the workload registry; ``app`` was kept as an alias for
one cycle); version 4 removed the ``app`` alias on schedule -- readers
must use ``workload``; version 5 (the strategy registry) added the
cache-behavior row fields ``hits`` / ``misses`` / ``hit_rate`` /
``evictions`` to every cell row, and the ``xstrat`` / ``xcap`` rows
additionally carry ``strategy_family`` / ``strategy_params`` (the
resolved spec parameters) and -- for ``xcap`` -- ``capacity_bytes``;
version 6 (the failure axis) added the ``xfail`` rows' ``failures`` /
``failure_model`` fields and the availability columns
``requests_failed`` / ``requests_stalled`` / ``requests_retried`` /
``repairs`` / ``failure_events`` (zero-failure experiments are
otherwise row-identical to v5); version 7 (the metric suite,
:mod:`repro.metrics`) added the per-row metric columns
``latency_p50`` / ``latency_p95`` / ``latency_p99`` (simulated
issue->completion latency percentiles), ``storage_cost`` (time
integral of excess replica bytes) and ``effective_network_usage``
(bytes moved per access) to every cell row, emitted through one
shared ``MetricsBundle.to_row()``, plus the ``xadapt`` rows' ``drift``
field (v5/v6 simulated quantities are byte-identical, the new columns
ride along); version 8 (one
:func:`~repro.analysis.experiments.workload_cell` behind the ablations
and every ``x*`` sweep) made those rows uniform -- each carries its
swept-axis label, ``workload`` / ``strategy`` / ``strategy_family`` /
``strategy_params`` / ``topology`` / ``network`` / ``nodes``, the run's
workload parameters, ``congestion_bytes`` / ``congestion_msgs`` /
``congestion_per_node`` / ``total_bytes`` / ``total_msgs`` /
``ctrl_msgs`` / ``max_startups`` / ``time`` / ``lock_acquisitions``,
the availability counters and the metric suite, so rows only gained
keys and every v7 value is unchanged.

Sanitization policy: a row field that is not JSON-serializable is
stripped **here**, at the emit layer -- formatting and emission must
never mutate the rows the experiment produced.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Any, Dict, List, Mapping, Optional, Sequence

__all__ = [
    "SCHEMA_VERSION",
    "default_results_dir",
    "field_union",
    "json_path",
    "result_payload",
    "sanitize_rows",
    "sanitize_value",
    "topology_union",
    "write_json",
]

Row = Dict[str, object]

#: Version of the result-file schema consumed by CI.
SCHEMA_VERSION = 8

_DROP = object()  # sentinel: value is not JSON-serializable


def default_results_dir() -> pathlib.Path:
    """Where result files live.

    ``$REPRO_RESULTS_DIR`` if set; else ``benchmarks/results`` anchored at
    the repository root when running from a checkout, falling back to the
    current working directory for installed copies.
    """
    env = os.environ.get("REPRO_RESULTS_DIR")
    if env:
        return pathlib.Path(env)
    repo_root = pathlib.Path(__file__).resolve().parents[3]
    if (repo_root / "benchmarks").is_dir():
        return repo_root / "benchmarks" / "results"
    return pathlib.Path("benchmarks") / "results"


def json_path(name: str, scale: str, results_dir: Optional[os.PathLike] = None) -> pathlib.Path:
    """Canonical result-file path: ``<results>/<name>.<scale>.json``."""
    root = pathlib.Path(results_dir) if results_dir is not None else default_results_dir()
    return root / f"{name}.{scale}.json"


def sanitize_value(value: Any) -> Any:
    """JSON-serializable form of ``value``, or the drop sentinel."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    if isinstance(value, (list, tuple)):
        out = [sanitize_value(v) for v in value]
        return _DROP if any(v is _DROP for v in out) else out
    if isinstance(value, Mapping):
        out = {str(k): sanitize_value(v) for k, v in value.items()}
        return _DROP if any(v is _DROP for v in out.values()) else out
    return _DROP


def sanitize_rows(rows: Sequence[Mapping[str, object]]) -> List[Row]:
    """Copy ``rows`` with every non-serializable field stripped.

    Never mutates the input.
    """
    out: List[Row] = []
    for row in rows:
        clean: Row = {}
        for k, v in row.items():
            sv = sanitize_value(v)
            if sv is not _DROP:
                clean[str(k)] = sv
        out.append(clean)
    return out


def field_union(
    rows: Sequence[Mapping[str, object]], key: str, default: Optional[str]
) -> Optional[str]:
    """The distinct per-row string values of ``key`` joined with ``+`` in
    first-seen order (internal sweeps span several), or ``default`` when
    no row carries one.  Used for the payload-level ``topology`` and
    ``workload`` labels."""
    values: List[str] = []
    for row in rows:
        v = row.get(key)
        if isinstance(v, str) and v not in values:
            values.append(v)
    return "+".join(values) if values else default


def topology_union(rows: Sequence[Mapping[str, object]], default: str = "mesh") -> str:
    """The ``topology`` label for a row set (see :func:`field_union`)."""
    return field_union(rows, "topology", default)


def result_payload(
    experiment: str,
    scale: str,
    rows: Sequence[Mapping[str, object]],
    columns: Sequence[str],
    params: Optional[Mapping[str, object]] = None,
    workload: Optional[str] = None,
    topology: str = "mesh",
) -> Dict[str, Any]:
    """Schema-versioned result payload (rows/params sanitized)."""
    clean_params: Dict[str, Any] = {}
    for k, v in dict(params or {}).items():
        sv = sanitize_value(v)
        if sv is not _DROP:
            clean_params[str(k)] = sv
    return {
        "schema_version": SCHEMA_VERSION,
        "experiment": experiment,
        "scale": scale,
        "workload": workload,
        "topology": topology,
        "params": clean_params,
        "columns": list(columns),
        "rows": sanitize_rows(rows),
    }


def write_json(path: os.PathLike, payload: Mapping[str, Any]) -> pathlib.Path:
    """Atomically write ``payload`` as pretty-printed JSON."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        # mkstemp creates 0600; give result files normal umask-governed
        # permissions like the .txt tables written beside them.
        umask = os.umask(0)
        os.umask(umask)
        os.fchmod(fd, 0o666 & ~umask)
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
