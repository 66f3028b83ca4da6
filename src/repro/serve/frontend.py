"""Asyncio TCP ingest frontend: newline-delimited JSON requests.

Wire protocol (one JSON object per line, response mirrors any ``id``):

.. code-block:: text

    {"op": "create", "proc": 0, "payload": 256}      -> {"ok": true, "vid": 0}
    {"op": "read",  "proc": 3, "vid": 0}             -> {"ok": true, "time": t, "value": v}
    {"op": "write", "proc": 3, "vid": 0, "value": 1} -> {"ok": true, "time": t}
    {"op": "stats"}                                  -> {"ok": true, ...snapshot...}

A rejected request (admission control) answers ``{"ok": false, "error":
"busy"}`` -- clients are expected to back off.  A line longer than 64 KiB
answers ``{"ok": false, "error": ...}`` once and the connection is
closed (what follows it cannot be framed).  Reads and writes are
answered when the simulated operation *completes*; the frontend's pump
task micro-batches everything submitted since the last engine epoch
(every ``batch_interval`` wall seconds), so responses arrive in bursts.
Live requests are mapped onto the simulated clock ``tick`` seconds
apart (the open-loop :mod:`~repro.serve.loadgen` is the tool for
*controlled* arrival processes; the frontend serves whatever shows up).

Everything runs on one thread: handlers only touch the session between
pumps, and ``pump`` itself is a plain blocking call inside the event
loop -- micro-batching keeps each call short.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict, Optional

from .session import ServeSession

__all__ = ["ServeFrontend", "selfcheck", "serve_forever"]


class ServeFrontend:
    """TCP server feeding a :class:`~repro.serve.session.ServeSession`."""

    def __init__(
        self,
        session: ServeSession,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tick: float = 1e-6,
        batch_interval: float = 0.005,
    ):
        self.session = session
        self.host = host
        self.port = port
        self.tick = tick
        self.batch_interval = batch_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._closing = False

    async def start(self) -> "ServeFrontend":
        self._server = await asyncio.start_server(self._client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        self._pump_task = asyncio.create_task(self._pump_loop())
        return self

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()

    async def aclose(self) -> None:
        self._closing = True
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    # ------------------------------------------------------------------ pump
    async def _pump_loop(self) -> None:
        sess = self.session
        while not self._closing:
            await asyncio.sleep(self.batch_interval)
            if sess.queue_depth or sess.inflight:
                # Serve everything that arrived since the last epoch.  No
                # horizon: live arrivals are assigned at the simulated
                # clock as they come in (there is no predetermined future
                # stream to stay behind, unlike the open-loop loadgen), so
                # a full drain is always timeline-exact.
                sess.pump()

    def _next_arrival(self) -> float:
        floor = self.session.arrival_floor + self.tick
        now = self.session.rt.sim.now
        return floor if floor > now else now

    # --------------------------------------------------------------- clients
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        wlock = asyncio.Lock()
        tasks = []
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                tasks.append(asyncio.create_task(
                    self._handle(line, writer, wlock)))
        except ValueError as exc:
            # A line past the stream's 64 KiB limit; what follows it is
            # unframed: answer once, then hang up.
            await self._send({"ok": False, "error": str(exc)}, writer, wlock)
            await self._linger(reader, writer)
        except ConnectionError:
            pass  # the peer reset the connection: nobody left to answer
        finally:
            for t in tasks:
                if not t.done():
                    t.cancel()
            writer.close()

    async def _handle(self, line: bytes, writer: asyncio.StreamWriter,
                      wlock: asyncio.Lock) -> None:
        reply: Dict[str, Any]
        msg_id = None
        try:
            msg = json.loads(line)
            msg_id = msg.get("id")
            reply = await self._dispatch(msg)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # malformed input must not kill the server
            reply = {"ok": False, "error": str(exc)}
        if msg_id is not None:
            reply["id"] = msg_id
        await self._send(reply, writer, wlock)

    @staticmethod
    async def _send(reply: Dict[str, Any], writer: asyncio.StreamWriter,
                    wlock: asyncio.Lock) -> None:
        data = (json.dumps(reply, separators=(",", ":")) + "\n").encode()
        async with wlock:
            writer.write(data)
            try:
                await writer.drain()
            except ConnectionError:
                pass

    @staticmethod
    async def _linger(reader: asyncio.StreamReader, writer: asyncio.StreamWriter,
                      seconds: float = 1.0) -> None:
        """Send EOF, then drop what the peer still sends until it closes
        (or ``seconds`` pass): closing a socket with unread input resets
        the connection, and the reset can overtake the reply."""

        async def discard() -> None:
            while await reader.read(1 << 16):
                pass

        try:
            writer.write_eof()
            await asyncio.wait_for(discard(), seconds)
        except (asyncio.TimeoutError, OSError):
            pass

    async def _dispatch(self, msg: Dict[str, Any]) -> Dict[str, Any]:
        sess = self.session
        op = msg.get("op")
        if op == "stats":
            return {"ok": True, **sess.snapshot()}
        if op == "create":
            vid = sess.create(int(msg.get("proc", 0)), int(msg.get("payload", 256)))
            return {"ok": True, "vid": vid}
        if op in ("read", "write"):
            fut = asyncio.get_running_loop().create_future()

            def done(_item, t, value, fut=fut):
                if not fut.done():
                    fut.set_result((t, value))

            ok = sess.try_submit(
                "r" if op == "read" else "w",
                int(msg["proc"]),
                int(msg["vid"]),
                value=msg.get("value", 0),
                arrival=self._next_arrival(),
                on_done=done,
            )
            if not ok:
                return {"ok": False, "error": "busy"}
            t, value = await fut
            reply = {"ok": True, "time": t}
            if op == "read":
                reply["value"] = value
            return reply
        return {"ok": False, "error": f"unknown op {op!r}"}


def serve_forever(
    session: ServeSession,
    host: str = "127.0.0.1",
    port: int = 7411,
    *,
    tick: float = 1e-6,
    batch_interval: float = 0.005,
) -> None:
    """Run the frontend until interrupted (the ``repro serve`` command)."""

    async def main() -> None:
        fe = await ServeFrontend(
            session, host, port, tick=tick, batch_interval=batch_interval
        ).start()
        print(f"serving {session.rt.strategy.name} on "
              f"{session.rt.sim.topology.label}: {fe.host}:{fe.port}",
              file=sys.stderr)
        try:
            await fe.wait_closed()
        finally:
            await fe.aclose()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        pass


def selfcheck(
    side: int = 4,
    strategy: str = "4-ary",
    *,
    requests: int = 200,
    clients: int = 4,
    n_vars: int = 16,
    seed: int = 0,
) -> Dict[str, Any]:
    """End-to-end exercise over a real socket; returns summary metrics.

    Starts a frontend on an ephemeral port, runs ``clients`` concurrent
    TCP clients issuing seeded reads/writes, shuts down, and reports --
    bounded and self-contained, so documentation examples and CI can run
    ``repro serve --selfcheck`` without hanging.
    """
    import random

    from ..network.mesh import Mesh2D

    async def client(port: int, rank: int, count: int) -> int:
        rng = random.Random(seed * 1000003 + rank)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        answered = 0
        for i in range(count):
            op = "read" if rng.random() < 0.8 else "write"
            req = {"op": op, "proc": rng.randrange(side * side),
                   "vid": rng.randrange(n_vars), "id": i}
            if op == "write":
                req["value"] = i
            writer.write((json.dumps(req) + "\n").encode())
            await writer.drain()
        for _ in range(count):
            line = await reader.readline()
            reply = json.loads(line)
            if reply.get("ok"):
                answered += 1
        writer.close()
        return answered

    async def main() -> Dict[str, Any]:
        session = ServeSession(Mesh2D(side, side), strategy, seed=seed)
        for vid in range(n_vars):
            session.create(vid % session.n_procs, 256)
        fe = await ServeFrontend(session, batch_interval=0.002).start()
        per = requests // clients
        answered = sum(await asyncio.gather(
            *(client(fe.port, r, per) for r in range(clients))
        ))
        await fe.aclose()
        rep = session.close()
        return {
            "selfcheck": "ok",
            "clients": clients,
            "answered": answered,
            "requests": rep.requests,
            "rejected": rep.rejected,
            "requests_per_sec": rep.requests_per_sec,
            "latency_p50": rep.latency_p50,
            "latency_p99": rep.latency_p99,
            "hit_rate": rep.hit_rate,
        }

    return asyncio.run(main())
