"""Asyncio TCP ingest frontend: newline-delimited JSON requests.

Wire protocol (one JSON object per line, response mirrors any ``id``):

.. code-block:: text

    {"op": "create", "proc": 0, "payload": 256}      -> {"ok": true, "vid": 0}
    {"op": "read",  "proc": 3, "vid": 0}             -> {"ok": true, "time": t, "value": v}
    {"op": "write", "proc": 3, "vid": 0, "value": 1} -> {"ok": true, "time": t}
    {"op": "stats"}                                  -> {"ok": true, ...snapshot...}

A write's ``value`` is an integer in int64 range (default 0; anything
else is an error reply); a read returns the value of the last write
initiated before it (see :mod:`repro.serve.session`, "Completions").  A
rejected request (admission control) answers ``{"ok": false, "error":
"busy"}`` -- clients are expected to back off.  A line longer than 64 KiB
answers ``{"ok": false, "error": ...}`` once and the connection is
closed (what follows it cannot be framed).  Live requests are mapped
onto the simulated clock ``tick`` seconds apart (the open-loop
:mod:`~repro.serve.loadgen` is the tool for *controlled* arrival
processes; the frontend serves whatever shows up).

How lines become replies
------------------------
A connection's read loop takes whatever bytes have arrived and handles
every complete line at once: ``stats``, ``create``, malformed lines and
``busy`` are answered there; an accepted read or write is remembered
under its request id.  The first accepted request of a burst schedules
one pump (``call_soon``), which runs once every connection has handed
over what arrived in the same event-loop turn: it serves everything
queued, takes the completions (:meth:`ServeSession.drain_completions`)
and writes each connection its replies, in completion order, with one
``write``.  There is no timer and no per-request task or future: an idle
frontend does nothing, a busy one pumps as often as lines arrive.  The
read loop awaits ``drain()`` before reading more, so a client that stops
reading stops being read.

A connection that sends EOF still gets the replies it is owed (a last
line without a newline is answered like any other), then is closed.  A
reply owed to a connection that has gone (reset or closed) is
counted in ``replies_dropped``; the ``stats`` op reports it beside
``replies_sent``, and the two add up to the requests completed.

Everything runs on one thread: the session is only touched from the
event loop, and ``pump`` itself is a plain blocking call inside it.
"""

from __future__ import annotations

import asyncio
import json
import sys
from typing import Any, Dict, List, Optional

from .session import ServeSession

__all__ = ["ServeFrontend", "selfcheck", "serve_forever"]

#: The longest line the frontend frames (asyncio's default stream limit).
LINE_LIMIT = 1 << 16

_TOO_LONG = (json.dumps({"ok": False, "error": f"line exceeds the {LINE_LIMIT}-byte limit"})
             + "\n").encode()

#: ``json.loads`` of a ``str`` / ``json.dumps(separators=(",", ":"))``,
#: without building a codec per line.
_decode = json.JSONDecoder().decode
_encode = json.JSONEncoder(separators=(",", ":")).encode


class _Conn:
    """One client connection: its writer, how many replies it is owed,
    whether its read loop still runs and whether replies may still be
    written to it."""

    __slots__ = ("writer", "owed", "reading", "writing")

    def __init__(self, writer: asyncio.StreamWriter):
        self.writer = writer
        self.owed = 0
        self.reading = True
        self.writing = True


class ServeFrontend:
    """TCP server feeding a :class:`~repro.serve.session.ServeSession`."""

    def __init__(
        self,
        session: ServeSession,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        tick: float = 1e-6,
    ):
        self.session = session
        self.host = host
        self.port = port
        self.tick = tick
        self.replies_sent = 0
        self.replies_dropped = 0
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_handle: Optional[asyncio.Handle] = None
        # request id -> (connection, the reply's ``"id"`` suffix, is a read)
        self._owed: Dict[int, tuple] = {}
        # open connection -> its read loop's task
        self._conns: Dict[_Conn, asyncio.Task] = {}

    async def start(self) -> "ServeFrontend":
        self._server = await asyncio.start_server(self._client, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]
        return self

    async def wait_closed(self) -> None:
        if self._server is not None:
            await self._server.wait_closed()

    async def aclose(self) -> None:
        """Stop pumping and accepting, and hang up on every client; what
        is still queued is the session's to finish (``close()``)."""
        if self._pump_handle is not None:
            self._pump_handle.cancel()
            self._pump_handle = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        readers = list(self._conns.values())
        for conn in list(self._conns):
            self._hang_up(conn)
        if readers:
            await asyncio.wait(readers)  # each sees its EOF and returns

    # ------------------------------------------------------------------ pump
    def _pump(self) -> None:
        """Serve everything that arrived since the last pump and answer it.
        No horizon: live arrivals are assigned at the simulated clock as
        they come in (there is no predetermined future stream to stay
        behind, unlike the open-loop loadgen), so a full drain is always
        timeline-exact."""
        self._pump_handle = None
        sess = self.session
        sess.pump()
        ids, done, values = sess.drain_completions()
        owed = self._owed
        replies: Dict[_Conn, List[str]] = {}
        for rid, t, v in zip(ids.tolist(), done.tolist(), values.tolist()):
            entry = owed.pop(rid, None)
            if entry is None:
                continue  # submitted to the session by someone else
            conn, tag, read = entry
            line = (f'{{"ok":true,"time":{t!r},"value":{v}{tag}}}' if read
                    else f'{{"ok":true,"time":{t!r}{tag}}}')
            out = replies.get(conn)
            if out is None:
                replies[conn] = [line]
            else:
                out.append(line)
        for conn, out in replies.items():
            conn.owed -= len(out)
            if conn.writing and not conn.writer.is_closing():
                conn.writer.write(("\n".join(out) + "\n").encode())
                self.replies_sent += len(out)
            else:
                self.replies_dropped += len(out)
            if not conn.reading and not conn.owed:
                self._hang_up(conn)

    def _next_arrival(self) -> float:
        floor = self.session.arrival_floor + self.tick
        now = self.session.rt.sim.now
        return floor if floor > now else now

    # --------------------------------------------------------------- clients
    async def _client(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        conn = _Conn(writer)
        self._conns[conn] = asyncio.current_task()
        rest = b""
        try:
            while True:
                data = await reader.read(LINE_LIMIT)
                if not data:
                    if rest:
                        self._handle(conn, [rest])  # a last line cut short by EOF
                    break
                lines = (rest + data).split(b"\n")
                rest = lines.pop()
                # A read is at most LINE_LIMIT bytes, so only the first
                # line (it carries the previous tail) or the new tail can
                # be over-long.  What follows one is unframed: answer
                # once, then hang up.
                too_long = len(rest) > LINE_LIMIT
                if lines and len(lines[0]) > LINE_LIMIT:
                    lines, too_long = [], True
                self._handle(conn, lines)
                if too_long:
                    conn.writing = False  # replies still owed are dropped
                    writer.write(_TOO_LONG)
                    await self._linger(reader, writer)
                    self._hang_up(conn)
                    break
                await writer.drain()
        except ConnectionError:
            pass  # the peer reset the connection: nobody left to answer
        finally:
            conn.reading = False
            if not conn.owed or writer.is_closing():
                self._hang_up(conn)

    def _hang_up(self, conn: _Conn) -> None:
        self._conns.pop(conn, None)
        conn.writing = False
        conn.writer.close()

    def _handle(self, conn: _Conn, lines: List[bytes]) -> None:
        """Handle the complete lines one read delivered: answer what can be
        answered now (one ``write``), submit reads and writes, and schedule
        the pump that answers those."""
        sess = self.session
        submit = sess.try_submit
        owed = self._owed
        now: List[str] = []
        accepted = 0
        for line in lines:
            cid = None
            try:
                msg = _decode(line.decode())
                cid = msg.get("id")
                op = msg.get("op")
                if op == "read" or op == "write":
                    read = op == "read"
                    if submit("r" if read else "w", int(msg["proc"]), int(msg["vid"]),
                              value=0 if read else msg.get("value", 0),
                              arrival=self._next_arrival()):
                        tag = ("" if cid is None
                               else f',"id":{cid}' if cid.__class__ is int
                               else ',"id":' + _encode(cid))
                        owed[sess.accepted - 1] = (conn, tag, read)
                        accepted += 1
                        continue
                    reply = {"ok": False, "error": "busy"}
                elif op == "stats":
                    reply = {"ok": True, **sess.snapshot(),
                             "replies_sent": self.replies_sent,
                             "replies_dropped": self.replies_dropped}
                elif op == "create":
                    vid = sess.create(int(msg.get("proc", 0)), int(msg.get("payload", 256)))
                    reply = {"ok": True, "vid": vid}
                else:
                    reply = {"ok": False, "error": f"unknown op {op!r}"}
            except Exception as exc:  # malformed input must not kill the server
                reply = {"ok": False, "error": str(exc)}
            if cid is not None:
                reply["id"] = cid
            now.append(_encode(reply))
        if now:
            conn.writer.write(("\n".join(now) + "\n").encode())
        if accepted:
            conn.owed += accepted
            if self._pump_handle is None:
                self._pump_handle = asyncio.get_running_loop().call_soon(self._pump)

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


def serve_forever(
    session: ServeSession,
    host: str = "127.0.0.1",
    port: int = 7411,
    *,
    tick: float = 1e-6,
) -> None:
    """Run the frontend until interrupted (the ``repro serve`` command)."""

    async def main() -> None:
        fe = await ServeFrontend(session, host, port, tick=tick).start()
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
    topology,
    strategy: str = "4-ary",
    *,
    requests: int = 200,
    clients: int = 4,
    n_vars: int = 16,
    seed: int = 0,
    **session_opts,
) -> Dict[str, Any]:
    """End-to-end exercise over a real socket; returns summary metrics.

    Starts a frontend over a session on ``topology`` (``session_opts``:
    ``max_queue``, ``max_inflight``, ``failures``) on an ephemeral port,
    runs ``clients`` concurrent seeded TCP clients, shuts down, and
    reports -- bounded, so docs and CI can run ``repro serve --selfcheck``.
    """
    import random

    async def client(port: int, rank: int, count: int, n_procs: int) -> int:
        rng = random.Random(seed * 1000003 + rank)
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        answered = 0
        for i in range(count):
            op = "read" if rng.random() < 0.8 else "write"
            req = {"op": op, "proc": rng.randrange(n_procs),
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
        session = ServeSession(topology, strategy, seed=seed, **session_opts)
        for vid in range(n_vars):
            session.create(vid % session.n_procs, 256)
        fe = await ServeFrontend(session).start()
        per = requests // clients
        answered = sum(await asyncio.gather(
            *(client(fe.port, r, per, session.n_procs) for r in range(clients))
        ))
        await fe.aclose()
        rep = session.close()
        return {
            "selfcheck": "ok",
            "network": rep.network,
            "clients": clients,
            "answered": answered,
            "requests": rep.requests,
            "rejected": rep.rejected,
            "requests_per_sec": rep.requests_per_sec,
            "latency_p50": rep.latency_p50,
            "latency_p99": rep.latency_p99,
            "hit_rate": rep.hit_rate,
            "dispatch": rep.extra["dispatch"],
        }

    return asyncio.run(main())
