"""The child process of the suite: the only file that runs the program.

``run.py`` starts ``python worker.py '<job json>'`` in a fresh interpreter
for every set-up probe, verify step and measured repeat, so ``setup_s`` and
``peak_rss_mb`` are clean.  A job is ``{"workload", "seed", "quick", "mode",
"seconds", "trace"}``; the program under test only ever receives the inputs
derived from it (specs, sizes, seeds), never the workload's name.

Modes
-----
``verify``   preflight (C kernel loads, fast path accepted) and, for the
             serving configs, a fast-vs-classic fingerprint check on a prefix.
``setup``    set up the first round, print ``READY``, tear down, exit: the
             parent times spawn -> ``READY`` as one ``setup_s`` sample.
``measure``  set up, print ``READY``, then run identical *rounds* (same
             seed, same inputs) until ``seconds`` are used up and print one
             JSON line with every round's numbers.  With ``trace`` the
             rounds alternate untraced / traced, which pairs the two for
             ``trace.overhead_frac``.

Each layer is measured from outside, by timing calls into its public
functions; nothing under ``src/`` knows the benchmark exists.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import resource
import select
import signal
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import defs  # noqa: E402
import stats  # noqa: E402
from tracing import Tracer, patched, span  # noqa: E402

from repro.core.registry import get_strategy  # noqa: E402
from repro.network.stats import LinkStats  # noqa: E402
from repro.network.topology import make_topology  # noqa: E402
from repro.serve import ServeSession, access_sampler, get_arrival, run_fleet, run_loadgen  # noqa: E402
from repro.sim import _ckern  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402
from repro.workloads import get_workload  # noqa: E402
from repro.workloads.base import Workload  # noqa: E402

FINGERPRINT = ("sim_time", "total_msgs", "total_bytes", "congestion_bytes", "hits", "misses",
               "latency_p50", "latency_p95", "latency_p99", "storage_cost")


class CheckFailed(RuntimeError):
    """A preflight condition does not hold: no numbers are produced."""


def cpu_seconds(who: int) -> float:
    ru = resource.getrusage(who)
    return ru.ru_utime + ru.ru_stime


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def check(checks: list, name: str, ok: bool, detail: str = "") -> bool:
    checks.append({"name": name, "ok": bool(ok), "detail": detail})
    return bool(ok)


def strategy_targets(owner):
    return [(owner, call, f"core.{call}") for call in defs.STRATEGY_CALLS]


def core_metrics(summary: dict, ops: int, hits: int, misses: int) -> dict:
    """The ``core.*`` and ``sim.run*`` metrics from one round's span summary."""
    def row(name):
        return summary.get(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})

    reads, writes = row("core.read"), row("core.write")
    locks = {k: row("core.lock")[k] + row("core.unlock")[k] for k in ("count", "total_s")}
    calls = reads["count"] + writes["count"] + locks["count"]
    busy = reads["total_s"] + writes["total_s"] + locks["total_s"]
    return {
        "core.build_s": row("core.build")["total_s"],
        "core.read_calls": reads["count"], "core.write_calls": writes["count"],
        "core.lock_calls": locks["count"],
        "core.read_s": reads["total_s"], "core.write_s": writes["total_s"],
        "core.lock_s": locks["total_s"],
        "core.crossings_per_kop": 1000.0 * calls / ops if ops else 0.0,
        "core.us_per_crossing": 1e6 * busy / calls if calls else 0.0,
        "core.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "sim.run_s": row("sim.run")["total_s"],
        "sim.run_self_s": row("sim.run")["self_s"],
    }


# ---------------------------------------------------------------- serving
def serve_options(cfg: dict, seed: int, requests: int) -> dict:
    return dict(defs.SERVE_LOADGEN, params={**defs.SERVE_MIX, "read_frac": cfg["read_frac"]},
                rate=cfg["rate"], requests=requests, seed=seed)


def build_session(cfg: dict, tracer=None, fast=True) -> ServeSession:
    with span(tracer, "network.topology"):
        topology = make_topology(defs.SERVE_SESSION["topology"], defs.SERVE_SESSION["side"])
    with span(tracer, "core.build"):
        strategy = get_strategy(cfg["strategy"], topology, seed=defs.SYSTEM_SEED)
    with span(tracer, "session.create"):
        return ServeSession(topology, strategy, seed=defs.SYSTEM_SEED, fast=fast,
                            max_queue=defs.SERVE_SESSION["max_queue"],
                            max_inflight=defs.SERVE_SESSION["max_inflight"])


def traced_loadgen(tracer: Tracer, session: ServeSession, *, workload, params, arrival, rate,
                   requests, seed, chunk):
    """``run_loadgen``'s loop with a span between each pair of public calls.

    Same generator, same draw order, same calls: the report's simulated
    fingerprint equals ``run_loadgen``'s bit for bit (checked every traced
    round and by the self-tests)."""
    with tracer.span("loadgen.sample"):
        rng = np.random.default_rng((seed, 1009))
        n_vars, payload, draw_access = access_sampler(workload, params, seed)
        draw_gaps = get_arrival(arrival)(rate)
    n_procs = session.n_procs
    with tracer.span("session.create_vars"):
        for vid in range(n_vars):
            session.create(vid % n_procs, payload)
    t = 0.0
    remaining = requests
    while remaining:
        m = min(chunk, remaining)
        with tracer.span("loadgen.sample"):
            times = t + np.cumsum(draw_gaps(rng, m))
            t = float(times[-1])
            vids, is_read = draw_access(rng, m)
            procs = rng.integers(0, n_procs, size=m)
        with tracer.span("session.submit"):
            session.submit_batch(is_read, procs, vids, times)
        with tracer.span("session.pump"):
            session.pump(until=t)
        remaining -= m
    with tracer.span("session.close"):
        return session.close()


def fingerprint(source) -> dict:
    """The simulated quantities that must repeat exactly for a seed
    (``source`` is a ``ServeReport`` or a dict: the fleet's merged view, a
    batch result's row)."""
    get = source.get if isinstance(source, dict) else lambda k: getattr(source, k)
    return {k: get(k) for k in FINGERPRINT}


class Kind:
    """What ``measure`` needs from a workload kind; the defaults suit a kind
    that runs in this process and has nothing to set up or tear down."""

    def __init__(self, cfg: dict, seed: int, quick: bool):
        self.cfg, self.seed, self.quick = cfg, seed, quick
        self.requests = cfg["requests"] // (10 if quick else 1)
        self.checks: list = []

    def verify(self) -> None:
        """Checks run once before timing, in a process of their own."""

    def prepare(self, traced: bool, setup_tracer=None):
        """Untimed set-up of one round; the first call is part of ``setup_s``."""

    def run(self, prep, tracer) -> dict:
        """One timed round; ``tracer`` is ``None`` for an untraced one."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return rss_mb(resource.RUSAGE_SELF)

    def finish(self) -> dict:
        """Tear down; returns the run-level metric values known only now."""
        return {}


class Serve(Kind):
    """One ``ServeSession`` driven flat out by ``run_loadgen``."""

    def verify(self) -> None:
        """Serve a prefix on the kernel fast path and on the classic
        dispatchers and compare the simulated fingerprints."""
        n = min(defs.VERIFY_REQUESTS, self.requests)
        prints = {}
        for fast in (True, False):
            session = build_session(self.cfg, fast=fast)
            report = run_loadgen(session, **serve_options(self.cfg, self.seed, n))
            if report.engine != "ckern":
                raise CheckFailed(f"ServeReport.engine is {report.engine!r}, not 'ckern'")
            prints[fast] = fingerprint(report)
        apart = {k: abs(a - prints[False][k]) / max(abs(a), abs(prints[False][k]))
                 for k, a in prints[True].items() if a != prints[False][k]}
        check(self.checks, "fast_matches_classic",
              all(d <= defs.VERIFY_TOLERANCE for d in apart.values()),
              f"{n} requests, " + (", ".join(f"{k} apart by {d:.1e}" for k, d in apart.items())
                                   or "bit for bit"))

    def prepare(self, traced: bool, setup_tracer=None):
        return build_session(self.cfg, setup_tracer)

    def run(self, session: ServeSession, tracer) -> dict:
        opts = serve_options(self.cfg, self.seed, self.requests)
        layer = {}
        if tracer is None:
            cpu0, t0 = time.process_time(), time.perf_counter()
            report = run_loadgen(session, **opts)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        else:
            with patched(tracer, strategy_targets(session.rt.strategy) + [(Simulator, "run", "sim.run")]):
                cpu0 = time.process_time()
                with tracer.span("timed") as root:
                    report = traced_loadgen(tracer, session, **opts)
                cpu = time.process_time() - cpu0
                wall = tracer.duration(root)
            with tracer.span("network.stats_fold"):
                session.rt.sim.stats.snapshot()
            layer = self.layer_metrics(tracer, root, report)
        if report.engine != "ckern":
            raise CheckFailed(f"ServeReport.engine is {report.engine!r}, not 'ckern'")
        ok = check(self.checks, "conservation",
                   report.accepted + report.rejected == self.requests
                   and report.requests == report.accepted,
                   f"offered {self.requests} accepted {report.accepted} rejected {report.rejected} "
                   f"completed {report.requests}")
        ops = report.requests
        return {
            "wall_s": wall, "cpu_s": cpu, "ops": ops, "attempted": self.requests,
            "failed": self.requests - ops if ok else self.requests,
            "fingerprint": fingerprint(report),
            "values": {
                "wall_p50_ms": report.wall_p50 * 1e3, "wall_p95_ms": report.wall_p95 * 1e3,
                "sim_bytes_per_op": report.total_bytes / ops,
                "sim_latency_p50_ms": report.latency_p50 * 1e3,
                "sim_latency_p99_ms": report.latency_p99 * 1e3,
                "sim.legs": report.total_msgs, "sim.legs_per_op": report.total_msgs / ops,
                "session.rejected": report.rejected,
                **layer,
            },
        }

    @staticmethod
    def layer_metrics(tracer: Tracer, root: int, report) -> dict:
        s = tracer.summary()
        pump, close, submit = s["session.pump"], s["session.close"], s["session.submit"]
        out = core_metrics(s, report.requests, report.hits, report.misses)
        out.update({
            "loadgen.sample_s": s["loadgen.sample"]["total_s"],
            "loadgen.epochs": submit["count"],
            "session.create_vars_s": s["session.create_vars"]["total_s"],
            "session.submit_s": submit["total_s"], "session.submit_calls": submit["count"],
            "session.pump_s": pump["total_s"], "session.pump_calls": pump["count"],
            "session.pump_self_s": pump["self_s"] + close["self_s"],
            "session.close_s": close["total_s"],
            "sim.us_per_leg": 1e6 * out["sim.run_self_s"] / report.total_msgs,
            "network.stats_fold_s": s["network.stats_fold"]["total_s"],
            "trace.coverage_frac": tracer.coverage(root),
            "trace.spans": len(tracer.names),
        })
        return out


# ------------------------------------------------------------------ fleet
class Fleet(Kind):
    """``run_fleet`` over forked workers, each a full session + loadgen."""

    def __init__(self, cfg: dict, seed: int, quick: bool):
        super().__init__(cfg, seed, quick)
        self.workers = defs.fleet_workers()

    def verify(self) -> None:
        serve = Serve(self.cfg, self.seed, self.quick)
        serve.verify()
        self.checks += serve.checks

    def run(self, _prep, tracer) -> dict:
        opts = serve_options(self.cfg, self.seed, self.requests)
        kids0, cpu0 = cpu_seconds(resource.RUSAGE_CHILDREN), time.process_time()
        with span(tracer, "timed") as root:
            t0 = time.perf_counter()
            with span(tracer, "fleet.run_fleet"):
                result = run_fleet(lambda: build_session(self.cfg),
                                   workers=self.workers, **opts)
            wall = time.perf_counter() - t0
        cpu = time.process_time() - cpu0 + cpu_seconds(resource.RUSAGE_CHILDREN) - kids0
        fleet = result.fleet
        if fleet["engine"] != "ckern":
            raise CheckFailed(f"fleet engine is {fleet['engine']!r}, not 'ckern'")
        ok = check(self.checks, "conservation",
                   fleet["accepted"] + fleet["rejected"] == self.requests
                   and fleet["requests"] == fleet["accepted"] and len(result.workers) == self.workers,
                   f"offered {self.requests} accepted {fleet['accepted']} rejected "
                   f"{fleet['rejected']} completed {fleet['requests']}")
        ops = fleet["requests"]
        walls = [w.wall_seconds for w in result.workers]
        values = {
            "wall_p50_ms": fleet["wall_p50"] * 1e3, "wall_p95_ms": fleet["wall_p95"] * 1e3,
            "sim_bytes_per_op": fleet["total_bytes"] / ops,
            "sim_latency_p50_ms": fleet["latency_p50"] * 1e3,
            "sim_latency_p99_ms": fleet["latency_p99"] * 1e3,
            "sim.legs": fleet["total_msgs"], "sim.legs_per_op": fleet["total_msgs"] / ops,
            "sim.us_per_leg": 1e6 * sum(walls) / fleet["total_msgs"],
            "fleet.outer_wall_s": wall,
            "fleet.worker_wall_max_s": max(walls), "fleet.worker_wall_min_s": min(walls),
            "fleet.skew": (max(walls) - min(walls)) / max(walls),
            "fleet.fork_merge_s": wall - max(walls),
        }
        if tracer is not None:
            values["trace.coverage_frac"] = tracer.coverage(root)
            values["trace.spans"] = len(tracer.names)
        return {"wall_s": wall, "cpu_s": cpu, "ops": ops, "attempted": self.requests,
                "failed": self.requests - ops if ok else self.requests,
                "fingerprint": fingerprint(fleet), "values": values}

    def peak_rss_mb(self) -> float:
        return rss_mb(resource.RUSAGE_CHILDREN if self.workers > 1 else resource.RUSAGE_SELF)


# ------------------------------------------------------------------ batch
class Batch(Kind):
    """The eight paper cells through ``get_workload(name).run``; the apps
    verify their own results inside every round."""

    def __init__(self, cfg: dict, seed: int, quick: bool):
        super().__init__(cfg, seed, quick)
        self.cells = defs.BATCH_CELLS_QUICK if quick else defs.BATCH_CELLS

    def prepare(self, traced: bool, setup_tracer=None):
        with span(setup_tracer, "network.topology"):
            return {side: make_topology("mesh", side) for side in {c["side"] for c in self.cells}}

    def run(self, topologies: dict, tracer) -> dict:
        rows = []
        cpu0 = time.process_time()
        with patched(tracer, self.targets()) if tracer is not None else nullcontext():
            with span(tracer, "timed") as root:
                t_start = time.perf_counter()
                for cell in self.cells:
                    for spec in defs.BATCH_STRATEGIES:
                        t0 = time.perf_counter()
                        with span(tracer, f"batch.{cell['app']}"):
                            result = get_workload(cell["app"]).run(
                                topologies[cell["side"]], spec, seed=self.seed,
                                params=cell["params"], **cell["kwargs"])
                        rows.append(self.row(cell, spec, result, time.perf_counter() - t0))
                wall = time.perf_counter() - t_start
        cpu = time.process_time() - cpu0
        ops = sum(r["ops"] for r in rows)
        bad = [r for r in rows if not r["verified"]]
        check(self.checks, "app_verification", not bad,
              ", ".join(f"{r['app']}/{r['strategy']}" for r in bad))
        cell_ms = [r["wall_s"] * 1e3 for r in rows]
        legs = sum(r["fingerprint"]["total_msgs"] for r in rows)
        values = {
            "wall_p50_ms": stats.percentile(cell_ms, 50), "wall_p95_ms": stats.percentile(cell_ms, 95),
            "sim_bytes_per_op": sum(r["fingerprint"]["total_bytes"] for r in rows) / ops,
            "sim_congestion_ratio": self.ratio(rows, "congestion_bytes"),
            "sim_time_ratio": self.ratio(rows, "sim_time"),
            "sim.legs": legs, "sim.legs_per_op": legs / ops,
        }
        if tracer is not None:
            s = tracer.summary()
            values.update(core_metrics(s, ops, sum(r["fingerprint"]["hits"] for r in rows),
                                       sum(r["fingerprint"]["misses"] for r in rows)))
            apps = {c["app"]: s[f"batch.{c['app']}"] for c in self.cells}
            values.update({f"batch.{app}_s": row["total_s"] for app, row in apps.items()})
            values.update({
                "workloads.run_s": sum(row["total_s"] for row in apps.values()),
                "workloads.outside_sim_s": sum(row["self_s"] for row in apps.values()),
                "sim.us_per_leg": 1e6 * values["sim.run_self_s"] / legs,
                "network.stats_fold_s": s["network.stats_fold"]["total_s"],
                "trace.coverage_frac": tracer.coverage(root),
                "trace.spans": len(tracer.names),
            })
        return {"wall_s": wall, "cpu_s": cpu, "ops": ops, "attempted": ops,
                "failed": sum(r["ops"] for r in bad),
                "fingerprint": [dict(r["fingerprint"], app=r["app"], strategy=r["strategy"])
                                for r in rows],
                "values": values}

    @staticmethod
    def targets() -> list:
        """What the traced round wraps, on the classes, for its duration."""
        targets = [(Simulator, "run", "sim.run"), (LinkStats, "snapshot", "network.stats_fold"),
                   (Workload, "make_strategy", "core.build")]
        for spec in defs.BATCH_STRATEGIES:
            targets += strategy_targets(type(get_strategy(spec, make_topology("mesh", 2))))
        return targets

    @staticmethod
    def row(cell: dict, spec: str, result, wall: float) -> dict:
        # The synthetic zipf kernel has no verifier of its own; the apps do.
        verified = result.extra.get("verified") is True or cell["app"] == "zipf"
        measured = dict(result.as_dict(), sim_time=result.time)
        return {"app": cell["app"], "strategy": spec, "wall_s": wall, "verified": verified,
                "ops": result.hits + result.misses, "fingerprint": fingerprint(measured)}

    @staticmethod
    def ratio(rows: list, key: str) -> float:
        tree, home = defs.BATCH_STRATEGIES
        by = {(r["app"], r["strategy"]): r["fingerprint"][key] for r in rows}
        apps = dict.fromkeys(r["app"] for r in rows)  # in cell order: float sums must repeat
        return stats.geomean([by[app, tree] / by[app, home] for app in apps])


# --------------------------------------------------------------- frontend
class Server:
    """A ``frontend_server.py`` child plus this process's connections to it."""

    def __init__(self, cfg: dict, trace: bool, loop, connections: int):
        job = dict(defs.SERVE_SESSION, strategy=cfg["strategy"], seed=defs.SYSTEM_SEED, trace=trace,
                   n_vars=defs.SERVE_MIX["n_vars"], payload=defs.SERVE_MIX["payload"])
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "frontend_server.py"), json.dumps(job)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.conns = []
        try:
            if not select.select([self.proc.stdout], [], [], 60.0)[0]:
                raise CheckFailed("the frontend server did not come up within 60 s")
            line = self.proc.stdout.readline()
            if not line:
                raise CheckFailed("the frontend server exited before listening")
            port = json.loads(line)["port"]
            for _ in range(connections):
                self.conns.append(loop.run_until_complete(asyncio.open_connection("127.0.0.1", port)))
        except BaseException:
            self.reap()
            raise

    def usage(self) -> dict:
        """Ask the server for its own ``{"cpu_s", "rss_mb"}`` so far."""
        self.proc.stdin.write(b"usage\n")
        self.proc.stdin.flush()
        if not select.select([self.proc.stdout], [], [], 30.0)[0]:
            raise CheckFailed("the frontend server did not answer within 30 s")
        return json.loads(self.proc.stdout.readline())

    def shutdown(self, loop) -> dict:
        """Hang up, SIGTERM, read the server's closing dump, then make sure
        it is gone."""
        async def hang_up():
            for _, writer in self.conns:
                writer.close()
                await writer.wait_closed()
            await asyncio.sleep(0.05)  # let the server see the EOFs before the signal

        try:
            loop.run_until_complete(hang_up())
            self.proc.send_signal(signal.SIGTERM)
            out, _ = self.proc.communicate(timeout=30.0)
            if self.proc.returncode != 0:
                raise CheckFailed(f"the frontend server exited with {self.proc.returncode}")
            return json.loads(out.splitlines()[-1])
        finally:
            self.reap()

    def reap(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=5.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe is not None:
                pipe.close()


class Frontend(Kind):
    """NDJSON requests over loopback TCP in a closed loop: ``connections``
    sockets, ``window`` requests outstanding on each; replies are counted
    against sends in every round."""

    def __init__(self, cfg: dict, seed: int, quick: bool):
        super().__init__(cfg, seed, quick)
        self.loop = None
        self.servers: dict = {}
        self.lines = None

    def make_lines(self) -> list:
        """Per connection, the round's request lines, encoded before timing."""
        n, k = self.requests, self.cfg["connections"]
        _, _, draw = access_sampler("zipf", {**defs.SERVE_MIX, "read_frac": self.cfg["read_frac"]},
                                    self.seed)
        rng = np.random.default_rng((self.seed, 1009))
        vids, is_read = draw(rng, n)
        procs = rng.integers(0, defs.SERVE_SESSION["side"] ** 2, size=n)
        lines = [[] for _ in range(k)]
        for i in range(n):
            mine = lines[i % k]
            req = {"op": "read" if is_read[i] else "write", "proc": int(procs[i]),
                   "vid": int(vids[i]), "id": len(mine)}
            if not is_read[i]:
                req["value"] = i
            mine.append((json.dumps(req, separators=(",", ":")) + "\n").encode())
        return lines

    def prepare(self, traced: bool, setup_tracer=None):
        if self.loop is None:
            self.loop = asyncio.new_event_loop()
        if traced not in self.servers:
            self.servers[traced] = Server(self.cfg, traced, self.loop, self.cfg["connections"])
        if self.lines is None:
            self.lines = self.make_lines()
        return self.servers[traced]

    async def drive(self, conn, lines: list, tracer) -> dict:
        reader, writer = conn
        write = writer.write if tracer is None else tracer.wrap(writer.write, "frontend.client_send")
        n = len(lines)
        sent_at = [0.0] * n
        latencies = []
        ok = busy = nxt = 0
        clock = time.perf_counter
        while nxt < min(self.cfg["window"], n):
            sent_at[nxt] = clock()
            write(lines[nxt])
            nxt += 1
        for _ in range(n):
            line = await reader.readline()
            now = clock()
            if not line:
                raise CheckFailed("the frontend server closed the connection mid-round")
            reply = json.loads(line)
            latencies.append(now - sent_at[reply["id"]])
            if reply.get("ok"):
                ok += 1
            elif reply.get("error") == "busy":
                busy += 1
            if nxt < n:
                sent_at[nxt] = clock()
                write(lines[nxt])
                nxt += 1
        return {"latencies": latencies, "ok": ok, "busy": busy}

    def run(self, server: Server, tracer) -> dict:
        async def round_():
            return await asyncio.gather(*(self.drive(c, ls, tracer)
                                          for c, ls in zip(server.conns, self.lines)))

        srv0, cpu0 = server.usage()["cpu_s"], time.process_time()
        t0 = time.perf_counter()
        parts = self.loop.run_until_complete(round_())
        wall = time.perf_counter() - t0
        client_cpu = time.process_time() - cpu0
        cpu = server.usage()["cpu_s"] - srv0
        ok = sum(p["ok"] for p in parts)
        replies = sum(len(p["latencies"]) for p in parts)
        check(self.checks, "replies_equal_sends", replies == self.requests,
              f"sent {self.requests} replies {replies} ok {ok}")
        ms = [x * 1e3 for p in parts for x in p["latencies"]]
        values = {"wall_p50_ms": stats.percentile(ms, 50), "wall_p95_ms": stats.percentile(ms, 95),
                  "frontend.rtt_p99_ms": stats.percentile(ms, 99)}
        if tracer is not None:
            values.update({
                "frontend.client_cpu_us_per_op": 1e6 * client_cpu / ok,
                "frontend.client_send_s": tracer.summary()["frontend.client_send"]["total_s"],
                "frontend.busy_replies": sum(p["busy"] for p in parts),
                "trace.spans": len(tracer.names),
            })
        return {"wall_s": wall, "cpu_s": cpu, "ops": ok, "attempted": self.requests,
                "failed": self.requests - ok, "fingerprint": None, "values": values}

    def peak_rss_mb(self) -> float:
        return self.servers[False].usage()["rss_mb"]

    def finish(self) -> dict:
        """Stop the servers; what only they know comes back in their dumps."""
        out = {}
        try:
            for traced, server in sorted(self.servers.items()):
                dump = server.shutdown(self.loop)
                report = dump["report"]
                if report["engine"] != "ckern":
                    raise CheckFailed(f"server engine is {report['engine']!r}, not 'ckern'")
                done = report["requests"]
                if not done:
                    continue  # a set-up probe: nothing was served
                if not traced:
                    out["sim_bytes_per_op"] = report["total_bytes"] / done
                    continue
                # The traced server's whole life, cut down to one round.
                share = self.requests / done
                s = {name: {k: v * share for k, v in row.items()}
                     for name, row in dump["spans"].items()}
                s["core.build"] = dump["spans"]["core.build"]  # once, cold
                legs, cpu_s = report["total_msgs"] * share, dump["server_cpu_s"] * share
                submit, pump = s["frontend.try_submit"], s["frontend.pump"]
                out.update(core_metrics(s, self.requests, report["hits"], report["misses"]))
                out.update({
                    "sim.legs": legs, "sim.legs_per_op": legs / self.requests,
                    "sim.us_per_leg": 1e6 * out["sim.run_self_s"] / legs,
                    "frontend.try_submit_s": submit["total_s"],
                    "frontend.try_submit_calls": submit["count"],
                    "frontend.pump_s": pump["total_s"], "frontend.pump_calls": pump["count"],
                    "frontend.reqs_per_pump": self.requests / pump["count"],
                    "frontend.server_cpu_s": cpu_s,
                    "frontend.self_s": cpu_s - submit["total_s"] - pump["total_s"],
                    "frontend.server_rss_mb": dump["server_rss_mb"],
                })
        finally:
            self.close()
        return out

    def close(self) -> None:
        for server in self.servers.values():
            server.reap()
        self.loop.run_until_complete(asyncio.sleep(0))  # let closed transports finish
        self.loop.close()


KINDS = {"serve": Serve, "fleet": Fleet, "batch": Batch, "frontend": Frontend}


# ------------------------------------------------------------------- modes
def cold_kernel_build_s() -> float:
    """Seconds ``load_kernel()`` takes with an empty cache (compile + dlopen),
    measured in a throwaway interpreter and directory."""
    code = ("import time; from repro.sim import _ckern; t = time.perf_counter(); "
            "assert _ckern.load_kernel() is not None; print(time.perf_counter() - t)")
    with tempfile.TemporaryDirectory(dir=os.environ["REPRO_CKERN_DIR"]) as cold:
        env = dict(os.environ, REPRO_CKERN_DIR=cold, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=170)
    return float(out.stdout)


#: Set-up spans (recorded once, cold, around the first round's set-up) and
#: the per-layer metric each becomes.
SETUP_SPANS = {"network.topology": "network.topology_s", "core.build": "core.build_s",
               "session.create": "session.create_s"}


def measure(kind, seconds: float, trace: bool, kernel_load_s: float) -> dict:
    rounds = []
    tracer = last_traced = None
    setup_tracer = Tracer() if trace else None
    began = time.perf_counter()
    prep = kind.prepare(False, setup_tracer)
    print("READY", flush=True)
    start = time.perf_counter()
    try:
        while True:
            record = kind.run(prep, tracer)
            record["traced"] = tracer is not None
            rounds.append(record)
            if len(rounds) == 1:
                # After one round, so that it does not depend on how many fit.
                peak_rss_mb = kind.peak_rss_mb()
            if tracer is not None:
                last_traced = tracer
            now = time.perf_counter()
            # Stop once another round (set-up included) would overshoot the
            # budget by more than it undershoots now.
            if (now - start) + 0.5 * (now - began) >= seconds and (last_traced is not None or not trace):
                break
            began = now
            tracer = Tracer() if trace and tracer is None else None
            prep = kind.prepare(tracer is not None)
    finally:
        final = kind.finish()
    final["peak_rss_mb"] = peak_rss_mb
    if trace:
        cold = setup_tracer.summary()
        final.update({metric: cold[name]["total_s"] for name, metric in SETUP_SPANS.items()
                      if name in cold})
        final["sim.kernel_load_s"] = kernel_load_s
        final["sim.kernel_build_s"] = cold_kernel_build_s()
    prints = [r["fingerprint"] for r in rounds]
    if prints[0] is not None:
        check(kind.checks, "fingerprint_repeats", all(p == prints[0] for p in prints),
              f"{len(prints)} rounds, traced and untraced")
    return {"rounds": rounds, "final": final, "checks": kind.checks, "engine": "ckern",
            "trace": last_traced.listed() if trace else None}


def main(argv) -> int:
    job = json.loads(argv[1])
    t0 = time.perf_counter()
    kernel = _ckern.load_kernel()
    kernel_load_s = time.perf_counter() - t0
    try:
        if kernel is None:
            raise CheckFailed("repro.sim._ckern.load_kernel() is None: no C kernel, no numbers")
        kind = KINDS[defs.WORKLOADS[job["workload"]]["kind"]](
            defs.WORKLOADS[job["workload"]], job["seed"], job["quick"])
        if job["mode"] == "verify":
            kind.verify()
            out = {"checks": kind.checks}
        elif job["mode"] == "setup":
            kind.prepare(False)
            print("READY", flush=True)
            kind.finish()
            return 0
        else:
            out = measure(kind, job["seconds"], job["trace"], kernel_load_s)
    except CheckFailed as exc:
        print(f"suite preflight failed: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
