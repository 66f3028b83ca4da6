"""Server side of ``frontend_socket``: ``ServeFrontend`` in its own process.

Started by ``worker.py`` with one JSON argument.  Builds topology, strategy
and a ``ServeSession`` with the variables created, starts a ``ServeFrontend``
on an ephemeral loopback port and prints ``{"port": ...}``.  Each line on its
stdin is answered with its own ``{"cpu_s", "rss_mb"}`` so far.  On SIGTERM, or
when its stdin closes (the parent died), it closes the frontend and the
session and prints one JSON line: the session's report, its CPU while serving
and peak RSS, and, when started with ``"trace": true``, a span summary from the
wrappers it installed on the session, the strategy and ``Simulator.run``.
"""

from __future__ import annotations

import asyncio
import json
import pathlib
import resource
import signal
import sys
import time
from contextlib import ExitStack

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[2] / "src"))
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from defs import STRATEGY_CALLS  # noqa: E402
from tracing import Tracer, patched, span  # noqa: E402


def main(argv) -> int:
    cfg = json.loads(argv[1])
    from repro.core.registry import get_strategy
    from repro.network.topology import make_topology
    from repro.serve import ServeSession
    from repro.sim import _ckern
    from repro.sim.engine import Simulator

    if _ckern.load_kernel() is None:
        print("frontend_server: the C kernel is unavailable", file=sys.stderr)
        return 2
    tracer = Tracer() if cfg["trace"] else None
    with ExitStack() as stack:
        with span(tracer, "network.topology"):
            topology = make_topology(cfg["topology"], cfg["side"])
        with span(tracer, "core.build"):
            strategy = get_strategy(cfg["strategy"], topology, seed=cfg["seed"])
        with span(tracer, "session.create"):
            session = ServeSession(topology, strategy, seed=cfg["seed"],
                                   max_queue=cfg["max_queue"], max_inflight=cfg["max_inflight"])
            for vid in range(cfg["n_vars"]):
                session.create(vid % session.n_procs, cfg["payload"])
        if tracer is not None:
            stack.enter_context(patched(tracer, [
                *((strategy, call, f"core.{call}") for call in STRATEGY_CALLS),
                (session, "try_submit", "frontend.try_submit"),
                (session, "pump", "frontend.pump"),
                (Simulator, "run", "sim.run"),
            ]))
        out = asyncio.run(_serve(session))
    if tracer is not None:
        out["spans"] = tracer.summary()
    print(json.dumps(out), flush=True)
    return 0


def usage() -> dict:
    return {"cpu_s": time.process_time(),
            "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


async def _serve(session) -> dict:
    from repro.serve.frontend import ServeFrontend

    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)

    def on_stdin():
        if sys.stdin.buffer.read1(4096):
            print(json.dumps(usage()), flush=True)
        else:
            stop.set()

    loop.add_reader(sys.stdin.fileno(), on_stdin)
    frontend = await ServeFrontend(session).start()
    cpu0 = time.process_time()
    print(json.dumps({"port": frontend.port}), flush=True)
    await stop.wait()
    loop.remove_reader(sys.stdin.fileno())
    await frontend.aclose()
    cpu_s = time.process_time() - cpu0
    report = session.close()
    return {
        "server_cpu_s": cpu_s,
        "server_rss_mb": usage()["rss_mb"],
        "report": {k: v for k, v in report.as_dict().items() if k != "extra"},
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
