#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh bench result to its baseline.

Used by the CI ``perf`` job and by hand::

    python benchmarks/bench_engine_perf.py
    python tools/bench_compare.py                      # default paths
    python tools/bench_compare.py --update-baseline    # refresh the baseline
    python tools/bench_compare.py \\
        --current benchmarks/results/BENCH_serve.json \\
        --baseline benchmarks/baselines/BENCH_serve.baseline.json
    python tools/bench_compare.py --history            # committed trend

Compares the freshly measured throughput metric AND ``peak_rss_mb``
against the committed baseline and fails (exit 1) when either throughput
regressed (dropped) or peak memory regressed (grew) by more than
``--threshold`` (default 0.20 = 20%, overridable via
``$REPRO_BENCH_TOLERANCE``).  The throughput metric is detected from the
files: ``cells_per_sec`` for the engine bench, ``requests_per_sec`` for
the serving bench -- whichever key both sides carry.  Improvements and
small fluctuations pass; a baseline with a different ``bench_version``,
engine, or pinned configuration fails loudly (the trajectory broke --
re-baseline deliberately with ``--update-baseline``, which refreshes
both metrics at once).  When one side lacks ``peak_rss_mb`` (a pre-v2
result file) only throughput is gated, with a note.

The pure-Python engine has its own baseline
(``BENCH_engine.pure.baseline.json``); point ``--current``/``--baseline``
at the ``.pure`` files to gate it (the CI perf job gates both engines,
plus the serving bench on the C engine).

``--history`` prints the committed ``benchmarks/BENCH_history.json``
trajectory (optionally filtered with ``--bench``/``--engine``) and
exits -- the dated-trend companion to the point-in-time gate.

The deltas are printed human-readably, and appended as a Markdown table
to ``$GITHUB_STEP_SUMMARY`` when that file is available (the CI job
summary).

Caveat: cells/sec is machine-dependent.  The committed baseline tracks the
CI runner class; on other hardware use the tool with a locally produced
baseline, or read the delta and ignore the exit status.  Peak RSS is far
less machine-sensitive (same interpreter -> same allocations).
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
DEFAULT_CURRENT = REPO_ROOT / "benchmarks" / "results" / "BENCH_engine.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_engine.baseline.json"
DEFAULT_HISTORY = REPO_ROOT / "benchmarks" / "BENCH_history.json"
DEFAULT_THRESHOLD = 0.20

#: Throughput keys a bench result may gate on, in detection order.
METRIC_KEYS = ("cells_per_sec", "requests_per_sec")

#: Allowed drift below the best-ever throughput (the ratchet): a result
#: may fluctuate against the rolling baseline, but falling more than 30%
#: under the recorded best means sustained decay slipped through the
#: incremental gate -- fail loudly.
BEST_THRESHOLD = 0.30


def load(path: pathlib.Path) -> dict:
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise SystemExit(f"bench_compare: cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise SystemExit(f"bench_compare: {path} is not valid JSON: {exc}") from exc
    for key in ("bench_version", "pinned"):
        if key not in payload:
            raise SystemExit(f"bench_compare: {path} lacks required key {key!r}")
    if not any(key in payload for key in METRIC_KEYS):
        raise SystemExit(
            f"bench_compare: {path} carries none of the known throughput "
            f"metrics {METRIC_KEYS}"
        )
    return payload


def metric_key(current: dict, baseline: dict) -> str:
    """The throughput key both sides carry (``cells_per_sec`` for the
    engine bench, ``requests_per_sec`` for the serving bench)."""
    for key in METRIC_KEYS:
        if key in current and key in baseline:
            return key
    raise SystemExit(
        "bench_compare: current and baseline share no throughput metric "
        f"(candidates: {METRIC_KEYS}) -- comparing results of different "
        "benches?"
    )


def compare(current: dict, baseline: dict, threshold: float) -> dict:
    """Comparison verdict: ``{'ok': bool, 'throughput': {...},
    'memory': {...} | None, ...}``.

    Throughput regresses downward (``ratio < 1 - threshold`` fails);
    memory regresses upward (``ratio > 1 + threshold`` fails).  The
    memory entry is ``None`` when either side predates ``peak_rss_mb``.
    """
    if current["bench_version"] != baseline["bench_version"]:
        raise SystemExit(
            "bench_compare: bench_version mismatch "
            f"(current {current['bench_version']} vs baseline "
            f"{baseline['bench_version']}); the pinned cell changed -- "
            "refresh the baseline deliberately with --update-baseline"
        )
    if current["pinned"] != baseline["pinned"]:
        raise SystemExit(
            "bench_compare: pinned cell configuration differs from the "
            "baseline; refresh the baseline deliberately with --update-baseline"
        )
    if current.get("engine", "c") != baseline.get("engine", "c"):
        raise SystemExit(
            "bench_compare: engine mismatch "
            f"(current {current.get('engine', 'c')!r} vs baseline "
            f"{baseline.get('engine', 'c')!r}); compare each engine "
            "against its own baseline"
        )
    key = metric_key(current, baseline)
    cur = float(current[key])
    base = float(baseline[key])
    ratio = cur / base if base > 0 else float("inf")
    throughput = {
        "ok": ratio >= 1.0 - threshold,
        "ratio": ratio,
        "current": cur,
        "baseline": base,
        "metric": key,
    }
    memory = None
    if "peak_rss_mb" in current and "peak_rss_mb" in baseline:
        cur_m = float(current["peak_rss_mb"])
        base_m = float(baseline["peak_rss_mb"])
        m_ratio = cur_m / base_m if base_m > 0 else float("inf")
        memory = {
            "ok": m_ratio <= 1.0 + threshold,
            "ratio": m_ratio,
            "current": cur_m,
            "baseline": base_m,
        }
    # The ratchet: the committed baseline also remembers the best-ever
    # throughput; current must stay within BEST_THRESHOLD of it.  A
    # baseline predating the ratchet ratchets against itself.
    best_val = float(baseline.get("best", {}).get(key, baseline[key]))
    b_ratio = cur / best_val if best_val > 0 else float("inf")
    best = {
        "ok": b_ratio >= 1.0 - BEST_THRESHOLD,
        "ratio": b_ratio,
        "current": cur,
        "best": best_val,
        "metric": key,
    }
    return {
        "ok": throughput["ok"] and best["ok"] and (memory is None or memory["ok"]),
        "throughput": throughput,
        "memory": memory,
        "best": best,
        "threshold": threshold,
        "engine": current.get("engine", "c"),
        "bench": current.get("bench", "engine"),
    }


def emit_summary(verdict: dict) -> None:
    """Append a Markdown table to the GitHub job summary, if present."""
    path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not path:
        return
    thr = verdict["throughput"]
    t_pct = (thr["ratio"] - 1.0) * 100.0
    t_status = "✅ pass" if thr["ok"] else "❌ regression"
    label = thr["metric"].replace("_per_sec", "/sec")
    lines = [
        f"### {verdict['bench'].capitalize()} perf gate "
        f"({verdict['engine']} engine)",
        "",
        "| metric | baseline | current | delta | status |",
        "|---|---|---|---|---|",
        (
            f"| {label} | {thr['baseline']:.2f} | {thr['current']:.2f} "
            f"| {t_pct:+.1f}% | {t_status} |"
        ),
    ]
    best = verdict["best"]
    b_pct = (best["ratio"] - 1.0) * 100.0
    b_status = "✅ pass" if best["ok"] else "❌ decayed"
    lines.append(
        f"| {label} vs best | {best['best']:.2f} | {best['current']:.2f} "
        f"| {b_pct:+.1f}% | {b_status} |"
    )
    mem = verdict["memory"]
    if mem is not None:
        m_pct = (mem["ratio"] - 1.0) * 100.0
        m_status = "✅ pass" if mem["ok"] else "❌ regression"
        lines.append(
            f"| peak RSS (MiB) | {mem['baseline']:.1f} | {mem['current']:.1f} "
            f"| {m_pct:+.1f}% | {m_status} |"
        )
    lines += [
        "",
        (
            f"_Fails below -{verdict['threshold'] * 100:.0f}% throughput or "
            f"above +{verdict['threshold'] * 100:.0f}% memory._"
        ),
        "",
    ]
    with open(path, "a") as fh:
        fh.write("\n".join(lines))


def ratchet(current: dict, old: dict) -> dict:
    """The ``best`` block of a refreshed baseline: new best = max(old
    best, current) per throughput metric (min for peak RSS), reset when
    the pinned cell or bench version changed (numbers no longer
    comparable)."""
    best: dict = {}
    if (old.get("bench_version") == current.get("bench_version")
            and old.get("pinned") == current.get("pinned")):
        best = dict(old.get("best", {}))
        for key in METRIC_KEYS:
            if key in old and key not in best:
                best[key] = old[key]
        if "peak_rss_mb" in old and "peak_rss_mb" not in best:
            best["peak_rss_mb"] = old["peak_rss_mb"]
    for key in METRIC_KEYS:
        if key in current:
            best[key] = max(float(best.get(key, current[key])),
                            float(current[key]))
    if "peak_rss_mb" in current:
        best["peak_rss_mb"] = min(
            float(best.get("peak_rss_mb", current["peak_rss_mb"])),
            float(current["peak_rss_mb"]),
        )
    return best


def gate(current: dict, baseline: dict, threshold: float) -> bool:
    """Compare one result to its baseline, print the deltas (and the job
    summary); ``False`` = a gate failed."""
    verdict = compare(current, baseline, threshold)
    thr = verdict["throughput"]
    delta_pct = (thr["ratio"] - 1.0) * 100.0
    label = thr["metric"].replace("_per_sec", "/sec")
    name = verdict["bench"]
    print(
        f"{name} perf [{verdict['engine']}]: {thr['current']:.2f} {label} "
        f"vs baseline {thr['baseline']:.2f} ({delta_pct:+.1f}%; gate at "
        f"-{threshold * 100:.0f}%)"
    )
    best = verdict["best"]
    b_pct = (best["ratio"] - 1.0) * 100.0
    print(
        f"{name} best [{verdict['engine']}]: {best['current']:.2f} {label} "
        f"vs best-ever {best['best']:.2f} ({b_pct:+.1f}%; ratchet at "
        f"-{BEST_THRESHOLD * 100:.0f}%)"
    )
    mem = verdict["memory"]
    if mem is not None:
        m_pct = (mem["ratio"] - 1.0) * 100.0
        print(
            f"{name} mem  [{verdict['engine']}]: {mem['current']:.1f} MiB peak "
            f"vs baseline {mem['baseline']:.1f} ({m_pct:+.1f}%; gate at "
            f"+{threshold * 100:.0f}%)"
        )
    else:
        print("note: peak_rss_mb absent on one side; gating throughput only")
    emit_summary(verdict)
    if not verdict["ok"]:
        if not thr["ok"]:
            print("FAIL: throughput regressed beyond the allowed threshold",
                  file=sys.stderr)
        if not best["ok"]:
            print("FAIL: throughput drifted more than "
                  f"{BEST_THRESHOLD * 100:.0f}% below the recorded best",
                  file=sys.stderr)
        if mem is not None and not mem["ok"]:
            print("FAIL: peak RSS regressed beyond the allowed threshold",
                  file=sys.stderr)
    return verdict["ok"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=pathlib.Path, default=DEFAULT_CURRENT,
                        help="freshly measured BENCH_engine.json")
    parser.add_argument("--baseline", type=pathlib.Path, default=DEFAULT_BASELINE,
                        help="committed baseline JSON")
    parser.add_argument("--threshold", type=float,
                        default=float(os.environ.get("REPRO_BENCH_TOLERANCE",
                                                     DEFAULT_THRESHOLD)),
                        help="allowed fractional regression (default 0.20)")
    parser.add_argument("--update-baseline", action="store_true",
                        help="copy --current over --baseline and exit")
    parser.add_argument("--history", action="store_true",
                        help="print the committed perf trajectory and exit")
    parser.add_argument("--bench", default=None,
                        help="with --history: only rows for this bench")
    parser.add_argument("--engine", default=None,
                        help="with --history: only rows for this engine")
    args = parser.parse_args(argv)

    if args.history:
        sys.path.insert(0, str(REPO_ROOT / "src"))
        from repro.exp.history import format_trend, load_history

        print(format_trend(load_history(DEFAULT_HISTORY),
                           bench=args.bench, engine=args.engine))
        return 0

    if args.update_baseline:
        args.baseline.parent.mkdir(parents=True, exist_ok=True)
        current = load(args.current)
        old = json.loads(args.baseline.read_text()) if args.baseline.exists() else {}
        current["best"] = ratchet(current, old)
        for name, row in current.get("rows", {}).items():
            row["best"] = ratchet(row, old.get("rows", {}).get(name, {}))
        args.baseline.write_text(
            json.dumps(current, indent=2, sort_keys=True) + "\n"
        )
        print(f"baseline updated: {args.baseline} (best: {current['best']})")
        return 0

    current = load(args.current)
    baseline = load(args.baseline)
    ok = gate(current, baseline, args.threshold)
    # A result file may carry further pinned rows of the same bench
    # (``rows``: name -> a result of its own, e.g. BENCH_serve.json's
    # ``serve_home``); every row the baseline knows is gated the same way.
    for name, base_row in sorted(baseline.get("rows", {}).items()):
        row = current.get("rows", {}).get(name)
        if row is None:
            raise SystemExit(
                f"bench_compare: {args.current} lacks the {name!r} row the "
                "baseline gates"
            )
        ok = gate(row, base_row, args.threshold) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
