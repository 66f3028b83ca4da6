"""Committed perf-trajectory history: one bench row per commit.

The bench scripts (``benchmarks/bench_engine_perf.py``,
``benchmarks/bench_serve.py``) write their headline numbers to gitignored
``benchmarks/results/`` for CI artifacts -- which left the repo's perf
*trajectory* empty.  This module maintains the committed companion:
``benchmarks/BENCH_history.json``, a flat list of rows

.. code-block:: json

    {"commit": "3774995", "date": "2026-08-08", "bench": "serve",
     "engine": "c", "workers": 1, "cpus": 2,
     "metric": "requests_per_sec", "value": 51234.0,
     "peak_rss_mb": 312.5, "bench_version": 1}

appended by each bench ``main``.  A row is keyed on ``(commit, bench,
engine, workers)``: re-running a bench on one commit updates that row,
and nothing else ever replaces it (rows used to be keyed on the date, so
the ``workers=2`` serve row replaced the ``workers=1`` one and a day's
second commit erased the first).  ``commit`` is ``git rev-parse --short
HEAD`` of the checkout holding the history file, with ``-dirty`` appended
when ``src/`` has uncommitted changes; ``cpus`` is ``os.cpu_count()``.
``tools/bench_compare.py --history`` prints the trend.  Rows are only as
comparable as the hardware that produced them -- commit and core count
travel with each row, the rest of the hardware caveat with the bench docs.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess
from typing import Any, Dict, List, Optional, Union

__all__ = ["append_history", "current_commit", "format_trend", "load_history"]

PathLike = Union[str, pathlib.Path]


def load_history(path: PathLike) -> List[Dict[str, Any]]:
    """The history rows at ``path`` (empty when the file doesn't exist)."""
    path = pathlib.Path(path)
    if not path.exists():
        return []
    rows = json.loads(path.read_text())
    if not isinstance(rows, list):
        raise ValueError(f"{path}: expected a JSON list of history rows")
    return rows


def current_commit(repo: PathLike) -> str:
    """``git rev-parse --short HEAD`` of the checkout at ``repo``, with
    ``-dirty`` appended when ``src/`` differs from it; ``"unknown"``
    outside a git checkout."""

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", *args], cwd=repo, check=True, capture_output=True,
            text=True, timeout=30,
        ).stdout.strip()

    try:
        commit = git("rev-parse", "--short", "HEAD")
        if git("status", "--porcelain", "--", ":/src"):
            commit += "-dirty"
        return commit
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def _key(row: Dict[str, Any]):
    return row.get("commit"), row.get("bench"), row.get("engine"), row.get("workers", 1)


def append_history(
    entry: Dict[str, Any],
    path: PathLike,
    date: Optional[str] = None,
    commit: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Add one row (replacing only the same commit's row of the same
    bench, engine and worker count); returns the full list.

    ``entry`` needs ``bench``, ``engine``, ``metric`` and ``value``;
    anything else (``peak_rss_mb``, ``bench_version``, ...) rides along.
    ``workers`` defaults to 1; ``commit`` to :func:`current_commit` of
    the history file's directory.
    """
    for key in ("bench", "engine", "metric", "value"):
        if key not in entry:
            raise ValueError(f"history entry lacks required key {key!r}")
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    row = {
        "commit": commit or current_commit(path.parent),
        "date": date or datetime.date.today().isoformat(),
        "cpus": os.cpu_count(),
        "workers": 1,
        **entry,
    }
    rows = [r for r in load_history(path) if _key(r) != _key(row)]
    rows.append(row)
    # stable: rows of one date, bench and engine stay in measurement order
    rows.sort(key=lambda r: (r.get("date", ""), r.get("bench", ""), r.get("engine", "")))
    path.write_text(json.dumps(rows, indent=2, sort_keys=True) + "\n")
    return rows


def format_trend(
    rows: List[Dict[str, Any]],
    bench: Optional[str] = None,
    engine: Optional[str] = None,
) -> str:
    """Human-readable trend table, oldest first, optionally filtered."""
    rows = [
        r for r in rows
        if (bench is None or r.get("bench") == bench)
        and (engine is None or r.get("engine") == engine)
    ]
    if not rows:
        return "(no history rows match)"
    header = f"{'date':<12} {'commit':<14} {'bench':<10} {'engine':<7} " \
             f"{'workers':>7} {'cpus':>5} {'metric':<17} {'value':>12} " \
             f"{'peak MiB':>9}"
    lines = [header, "-" * len(header)]
    for r in rows:
        rss = r.get("peak_rss_mb")
        rss_col = f"{rss:>9.1f}" if rss is not None else f"{'-':>9}"
        lines.append(
            f"{r.get('date', '?'):<12} {r.get('commit', '-'):<14} "
            f"{r.get('bench', '?'):<10} {r.get('engine', '?'):<7} "
            f"{r.get('workers', 1):>7} {r.get('cpus', '-'):>5} "
            f"{r.get('metric', '?'):<17} "
            f"{r.get('value', float('nan')):>12.2f} {rss_col}"
        )
    return "\n".join(lines)
