"""Live-traffic serving: streamed requests over the batch engine.

The batch runtime answers "how long does this recorded program take?";
this package answers "how much live traffic can the strategies sustain?".
A :class:`ServeSession` keeps one :class:`~repro.runtime.launcher.Runtime`
open as a long-running service: requests stream in through an in-process
``submit()`` API or the asyncio TCP frontend, a continuous micro-batcher
drains the ingest queue every engine epoch (bounded simulated run-ahead
via ``Simulator.run(until=...)``), and per-request latency percentiles
plus live LinkStats/hit-rate snapshots come out the other side.

Every served request is recorded through the trace layer, so a served
run replays bit-identically through the batch engine (the equivalence
tests pin LinkStats totals, hit counters and end time).

See ARCHITECTURE.md ("Serving") for the wire protocol, the request
rings (the C kernel's and the session's Python twin of them) and how to
add an arrival process.
"""

from .fleet import FleetReport, run_fleet
from .loadgen import access_sampler, arrival_names, get_arrival, register_arrival, run_loadgen
from .session import QueueFull, ServeReport, ServeSession

__all__ = [
    "FleetReport",
    "QueueFull",
    "ServeReport",
    "ServeSession",
    "access_sampler",
    "arrival_names",
    "get_arrival",
    "register_arrival",
    "run_fleet",
    "run_loadgen",
]
