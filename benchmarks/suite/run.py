#!/usr/bin/env python3
"""The repo's benchmark: six pinned workloads, end-to-end and per-layer metrics.

One workload, one run (the form ``BENCHMARK.json`` names; the last line of
stdout is the result object)::

    python3 benchmarks/suite/run.py --workload serve_tree_read --seed 0 --seconds 10 --trace 0

The whole suite (repeats interleaved round-robin across workloads, a traced
repeat per workload with ``--trace``, one stamped JSON result)::

    python3 benchmarks/suite/run.py [--seed 0] [--repeats 3] [--workloads a,b] [--trace] [--quick]
                                    [--out PATH]

Two results against each other (A/A runs, parent vs change)::

    python3 benchmarks/suite/run.py --compare A.json B.json

This file never imports the program: every set-up probe, verify step and
measured repeat is a fresh ``worker.py`` process.  See ``README.md`` for the
workloads, the metrics and how they interact.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import json
import os
import pathlib
import platform
import signal
import subprocess
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import defs  # noqa: E402
import stats  # noqa: E402

#: Fresh-process set-ups timed per run besides the measured child's own.
SETUP_PROBES = 4
#: No child may outlive this (the driver allows a run 180 s).
CHILD_TIMEOUT_S = 170.0
EXPECTED = HERE / "expected.json"


class SuiteError(RuntimeError):
    """The benchmark cannot produce numbers (preflight, crashed child)."""


def child_env() -> dict:
    """Children find the program under ``src/`` and keep the compiled kernel
    inside the checkout (the default cache is the system temp directory)."""
    env = dict(os.environ)
    env["REPRO_CKERN_DIR"] = str(ROOT / ".bench_build" / "ckern")
    env.pop("REPRO_PURE_PYTHON", None)
    return env


def kill_group(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(job: dict):
    """Run one ``worker.py`` job; returns ``(exit code, seconds from spawn to
    its READY line or None, last other stdout line)``.  The child leads its
    own process group, which is killed on the way out, so neither a timeout
    nor a crash leaves a process (a frontend server, a fleet worker) behind."""
    (ROOT / ".bench_build" / "ckern").mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), json.dumps(job)],
                            stdout=subprocess.PIPE, text=True, env=child_env(),
                            start_new_session=True)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, kill_group, [proc])
    watchdog.start()
    ready, last = None, ""
    try:
        for line in proc.stdout:
            if line.strip() == "READY":
                ready = time.perf_counter() - t0
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        watchdog.cancel()
        kill_group(proc)
        proc.wait()
        proc.stdout.close()
    return code, ready, last


def job_for(workload: str, seed: int, quick: bool, mode: str, **more) -> dict:
    return {"workload": workload, "seed": seed, "quick": quick, "mode": mode, **more}


def verify(workload: str, seed: int, quick: bool) -> list:
    """Preflight and fast-vs-classic check, untimed; the first call in a
    checkout also pays the cold compile of the C kernel."""
    code, _, last = run_child(job_for(workload, seed, quick, "verify"))
    if code != 0:
        raise SuiteError(f"{workload}: verify step exited with {code}")
    return json.loads(last)["checks"]


def measure(workload: str, seed: int, quick: bool, seconds: float, trace: bool) -> dict:
    """One run: ``SETUP_PROBES`` set-up-only children, then the measured one."""
    setups = []
    for _ in range(1 if quick else SETUP_PROBES):
        code, ready, _ = run_child(job_for(workload, seed, quick, "setup"))
        if code != 0 or ready is None:
            raise SuiteError(f"{workload}: set-up probe exited with {code}")
        setups.append(ready)
    code, ready, last = run_child(
        job_for(workload, seed, quick, "measure", seconds=seconds, trace=trace))
    if code != 0 or ready is None:
        raise SuiteError(f"{workload}: measured child exited with {code}")
    out = json.loads(last)
    out["setups"] = setups + [ready]
    if trace and workload == "fleet_w2":
        out["final"]["fleet.scaling_efficiency"] = scaling_efficiency(out, seed, quick, seconds)
    return out


def scaling_efficiency(fleet: dict, seed: int, quick: bool, seconds: float) -> float:
    """``ops_per_sec(fleet) / (workers x ops_per_sec(one session))``.  The
    reference is ``serve_tree_read`` (one worker's share of the same config)
    measured right after the fleet, in a fresh process of its own: run inside
    the fleet's parent it would change what the next fork has to copy."""
    code, _, last = run_child(job_for("serve_tree_read", seed, quick, "measure",
                                      seconds=min(seconds, 4.0), trace=False))
    if code != 0:
        raise SuiteError(f"fleet_w2: single-session reference exited with {code}")
    def rate(out):
        return stats.quiet_quartile([r["ops"] / r["wall_s"] for r in out["rounds"]
                                     if not r["traced"]], "higher")

    return rate(fleet) / (defs.fleet_workers() * rate(json.loads(last)))


def run_values(workload: str, out: dict) -> dict:
    """The metric values of one run: per metric the good-side quartile over
    its rounds (untraced rounds for end-to-end metrics, traced rounds for
    per-layer ones), the run-level values the child reports at the end, and
    what only the parent can see."""
    def column(rounds):
        cols = {}
        for r in rounds:
            row = dict(r["values"], ops_per_sec=r["ops"] / r["wall_s"],
                       cpu_us_per_op=1e6 * r["cpu_s"] / r["ops"])
            for name, value in row.items():
                cols.setdefault(name, []).append(value)
        return {name: stats.quiet_quartile(vals, defs.METRICS[name]["better"])
                for name, vals in cols.items()}

    plain = column([r for r in out["rounds"] if not r["traced"]])
    traced = column([r for r in out["rounds"] if r["traced"]])
    values = {**traced, **plain, **out["final"], "setup_s": stats.median(out["setups"])}
    if traced:
        values["trace.overhead_frac"] = 1.0 - traced["ops_per_sec"] / plain["ops_per_sec"]
    return {name: value for name, value in values.items()
            if workload in defs.METRICS[name]["workloads"]}


def tally(out: dict, verify_checks: list) -> dict:
    """Attempted and failed operations and the checks, counted not assumed:
    one failed check fails every operation of the run."""
    checks = verify_checks + out["checks"]
    attempted = sum(r["attempted"] for r in out["rounds"])
    correct = all(c["ok"] for c in checks)
    failed = sum(r["failed"] for r in out["rounds"]) if correct else attempted
    return {"correct": correct, "attempted": attempted, "failed": failed, "checks": checks}


# ------------------------------------------------------------- one workload
def main_single(args) -> int:
    """The driver's form: one workload, one run, the result object last."""
    workload = args.workload
    if workload not in defs.WORKLOADS:
        print(f"unknown workload {workload!r}; have: {', '.join(defs.ALL)}", file=sys.stderr)
        return 2
    try:
        checks = verify(workload, args.seed, args.quick)
        out = measure(workload, args.seed, args.quick, args.seconds, bool(args.trace))
    except SuiteError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    values = run_values(workload, out)
    result = tally(out, checks)
    declared = defs.PER_LAYER if args.trace else defs.END_TO_END
    # Every declared metric is in the object; one this workload does not
    # have (a per-layer metric of another layer) reads 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    print(f"# {workload}: {defs.WORKLOADS[workload]['loop']}; "
          f"{len(out['rounds'])} rounds in {args.seconds:g} s, seed {args.seed}")
    for name, cell in metrics.items():
        if name in values:
            print(f"{name:32s} {cell['value']:>16.6g} {cell['unit']}")
    print_checks(result["checks"])
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


def print_checks(checks: list) -> None:
    """One line per check name: how often it ran, the last detail, and every
    failure in full."""
    by_name = {}
    for c in checks:
        by_name.setdefault(c["name"], []).append(c)
    for name, group in by_name.items():
        bad = [c for c in group if not c["ok"]]
        print(f"check {name:32s} {'FAILED' if bad else 'ok':6s} x{len(group)}  "
              f"{(bad or group)[-1]['detail']}")


# ---------------------------------------------------------------- the suite
def header(args, engine: str) -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "commit": commit, "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"), "engine": engine,
        "machine": platform.platform(), "seed": args.seed, "repeats": args.repeats,
        "seconds": args.seconds, "quick": args.quick, "traced": bool(args.trace),
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ"),
    }


def main_suite(args) -> int:
    names = args.workloads.split(",") if args.workloads else list(defs.ALL)
    unknown = [n for n in names if n not in defs.WORKLOADS]
    if unknown:
        print(f"unknown workload(s) {unknown}; have: {', '.join(defs.ALL)}", file=sys.stderr)
        return 2
    if args.out and pathlib.Path(args.out).exists():
        print(f"{args.out} exists; a result is never overwritten", file=sys.stderr)
        return 2
    repeats = 1 if args.quick else args.repeats
    seconds = 1.0 if args.quick else args.seconds
    runs = {n: [] for n in names}
    traced = {}
    try:
        checks = {n: verify(n, args.seed, args.quick) for n in names}
        # Round-robin, so a noisy minute on a shared machine is spread over
        # the workloads instead of landing on one.
        for rep in range(repeats):
            for n in names:
                print(f"[repeat {rep + 1}/{repeats}] {n}", file=sys.stderr)
                runs[n].append(measure(n, args.seed, args.quick, seconds, False))
        if args.trace:
            for n in names:
                print(f"[traced] {n}", file=sys.stderr)
                traced[n] = measure(n, args.seed, args.quick, seconds, True)
    except SuiteError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    expected = json.loads(EXPECTED.read_text()) if args.seed == 0 and not args.quick else {}
    result = {"header": header(args, runs[names[0]][0]["engine"]), "workloads": {}}
    for n in names:
        result["workloads"][n] = summarize_workload(n, runs[n], traced.get(n), checks[n],
                                                    expected.get(n))
    result["ok"] = all(w["correct"] for w in result["workloads"].values())
    print_suite(result)
    out = pathlib.Path(args.out) if args.out else (
        ROOT / "benchmarks" / "results" /
        f"BENCH_suite.{result['header']['commit'][:12]}.{result['header']['utc']}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "x") as fh:  # a result is never overwritten
        json.dump(result, fh, indent=1)
        fh.write("\n")
    print(f"result: {out}")
    return 0 if result["ok"] else 1


def summarize_workload(name: str, runs: list, traced, verify_checks: list, expected) -> dict:
    """Fold a workload's repeats: per metric the median over repeats with
    min, quartiles and sample count; checks and failures summed."""
    per_run = [run_values(name, out) for out in runs]
    tallies = [tally(out, verify_checks if i == 0 else []) for i, out in enumerate(runs)]
    prints = [r["fingerprint"] for out in runs for r in out["rounds"]]
    checks = [c for t in tallies for c in t["checks"]]
    layer = {}
    if traced is not None:
        t = tally(traced, [])
        tallies.append(t)
        checks += t["checks"]
        prints += [r["fingerprint"] for r in traced["rounds"]]
        layer = {k: v for k, v in run_values(name, traced).items()
                 if k in {m["name"] for m in defs.PER_LAYER}}
    if prints[0] is not None:
        checks.append({"name": "fingerprint_repeats_across_runs",
                       "ok": all(p == prints[0] for p in prints), "detail": f"{len(prints)} rounds"})
        if expected is not None:
            checks.append({"name": "fingerprint_equals_expected", "ok": prints[0] == expected,
                           "detail": "benchmarks/suite/expected.json"})
    correct = all(c["ok"] for c in checks)
    attempted = sum(t["attempted"] for t in tallies)
    failed = sum(t["failed"] for t in tallies) if correct else attempted

    def cell(metric, values):
        return dict(stats.summarize(values), unit=metric["unit"], better=metric["better"],
                    values=list(values))

    return {
        "why": defs.WORKLOADS[name]["why"], "loop": defs.WORKLOADS[name]["loop"],
        "end_to_end": {m["name"]: cell(m, [v[m["name"]] for v in per_run])
                       for m in defs.END_TO_END},
        "per_layer": {m["name"]: cell(m, [layer[m["name"]]])
                      for m in defs.PER_LAYER if m["name"] in layer},
        "rounds": sum(len(out["rounds"]) for out in runs),
        "attempted": attempted, "failed": failed, "failed_frac": failed / attempted,
        "correct": correct, "checks": checks, "fingerprint": prints[0],
        "trace": traced["trace"] if traced is not None else None,
    }


def print_suite(result: dict) -> None:
    h = result["header"]
    print(f"# commit {h['commit']} nproc {h['nproc']} python {h['python']} numpy {h['numpy']} "
          f"engine {h['engine']} seed {h['seed']} repeats {h['repeats']}")
    for name, w in result["workloads"].items():
        print(f"\n## {name}: {w['loop']} ({w['rounds']} rounds)")
        for section in ("end_to_end", "per_layer"):
            for metric, c in w[section].items():
                print(f"{metric:32s} {c['median']:>16.6g} {c['unit']:7s} "
                      f"[{c['q1']:.6g} .. {c['q3']:.6g}] n={c['n']}")
        print(f"{'failed_frac':32s} {w['failed_frac']:>16.6g} ratio   "
              f"({w['failed']} of {w['attempted']})")
        print_checks(w["checks"])


# ------------------------------------------------------------------ compare
def compare(a: dict, b: dict):
    """Rows ``(workload, metric, median_a, median_b, worsening, bound,
    verdict)`` for every end-to-end metric and every exact quantity."""
    rows = []
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for m in defs.END_TO_END:
            ca, cb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse = stats.worsening(ca["median"], cb["median"], m["better"])
            exact = m["name"] in defs.EXACT and name not in defs.INEXACT_WORKLOADS
            if exact:
                verdict = "ok" if ca["median"] == cb["median"] else "OUT OF BOUND"
            elif max(stats.spread(ca["values"]), stats.spread(cb["values"])) > m["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok" if worse <= m["bound"] else "OUT OF BOUND"
            rows.append((name, m["name"], ca["median"], cb["median"], worse,
                         0.0 if exact else m["bound"], verdict))
        fa, fb = wa["failed_frac"], wb["failed_frac"]
        rows.append((name, "failed_frac", fa, fb, fb - fa, 0.0, "ok" if fb <= fa else "OUT OF BOUND"))
        if name not in defs.INEXACT_WORKLOADS:
            for metric in sorted(defs.EXACT & set(wa["per_layer"]) & set(wb["per_layer"])):
                va, vb = wa["per_layer"][metric]["median"], wb["per_layer"][metric]["median"]
                rows.append((name, metric, va, vb, stats.worsening(va, vb, "lower"), 0.0,
                             "ok" if va == vb else "OUT OF BOUND"))
            same = wa["fingerprint"] == wb["fingerprint"]
            rows.append((name, "fingerprint", 1.0, 1.0 if same else 0.0, 0.0, 0.0,
                         "ok" if same else "OUT OF BOUND"))
    return rows


def main_compare(paths) -> int:
    a, b = (json.loads(pathlib.Path(p).read_text()) for p in paths)
    for tag, r in (("A", a), ("B", b)):
        h = r["header"]
        print(f"# {tag}: commit {h['commit']} seed {h['seed']} repeats {h['repeats']} {h['utc']}")
    print(f"{'workload':18s} {'metric':24s} {'A':>14s} {'B':>14s} {'worse by':>9s} {'bound':>6s}")
    rows = compare(a, b)
    for name, metric, va, vb, worse, bound, verdict in rows:
        print(f"{name:18s} {metric:24s} {va:>14.6g} {vb:>14.6g} {worse:>+9.2%} {bound:>6.2f}  {verdict}")
    bad = sum(r[-1] == "OUT OF BOUND" for r in rows)
    unresolved = sum(r[-1] == "unresolved" for r in rows)
    print(f"{bad} out of bound, {unresolved} unresolved, {len(rows)} compared")
    return 1 if bad else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", help="run this one workload once (the driver's form)")
    p.add_argument("--workloads", help="comma-separated subset for a suite run")
    p.add_argument("--seed", type=int, default=0, help="the only source of workload randomness")
    p.add_argument("--seconds", type=float, default=10.0, help="measured seconds per run")
    p.add_argument("--repeats", type=int, default=3, help="fresh-process runs per workload")
    p.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                   help="per-layer metrics from traced rounds")
    p.add_argument("--quick", action="store_true",
                   help="1 repeat, 1/10 sizes, one round: a smoke run, not a measurement")
    p.add_argument("--out", help="result path (default benchmarks/results/BENCH_suite.<commit>.<utc>.json)")
    p.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = p.parse_args(argv)
    if args.compare:
        return main_compare(args.compare)
    if args.workload:
        return main_single(args)
    return main_suite(args)


if __name__ == "__main__":
    raise SystemExit(main())
