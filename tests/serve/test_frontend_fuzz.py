"""Frontend fuzzer: seeded interleavings of good and bad lines, cut lines,
FINs and resets over several connections at once.

Every connection's bytes are sliced at random points (lines split across
writes, several lines per write) and the slices of all connections are
interleaved.  A connection ends in one of three ways: FIN after its last
newline, FIN after a last line without one, or -- once a ``stats`` reply
proves the server has read everything it sent -- a reset while replies
may still be owed.  The server must raise nothing, answer every line of
every connection that stays to listen exactly once (bad lines with an
error carrying their ``id`` when one parsed), account for every read and
write line (accepted + rejected), and count the replies it could not
deliver.
"""

import asyncio
import json
import random
import socket
import struct

import pytest

from repro.network.mesh import Mesh2D
from repro.serve import ServeSession
from repro.serve.frontend import ServeFrontend

N_PROCS = 16
N_VARS = 4
I64 = 1 << 63

KINDS = ("read", "read", "write", "write", "create", "stats", "not json",
         "not an object", "unknown op", "bad proc", "bad vid", "bad value")


def make_line(rng, tag):
    """One request line (no newline), the ``id`` its reply must carry
    (``None``: nothing parsed to carry one), and what the reply must say:
    ``"rw"`` (a valid read/write: ok, or busy), ``"ok"`` or ``"error"``."""
    kind = rng.choice(KINDS)
    if kind == "not json":
        return rng.choice([b"this is not json", b"{", b"\xff\xfe", b""]), None, "error"
    if kind == "not an object":
        return rng.choice([b"[1]", b"7", b'"read"', b"null"]), None, "error"
    msg = {"id": tag}
    if kind == "create":
        msg.update(op="create", proc=rng.randrange(N_PROCS), payload=64)
    elif kind == "stats":
        msg.update(op="stats")
    elif kind == "unknown op":
        msg.update(op="frobnicate")
    else:
        op = kind if kind in ("read", "write") else rng.choice(("read", "write"))
        msg.update(op=op, proc=rng.randrange(N_PROCS), vid=rng.randrange(N_VARS))
        if op == "write":
            msg["value"] = rng.randrange(-I64, I64)
        if kind == "bad proc":
            msg["proc"] = rng.choice([N_PROCS, 99, -1])
        elif kind == "bad vid":
            msg["vid"] = rng.choice([999, -1])
        elif kind == "bad value":
            msg.update(op="write", value=rng.choice([1.5, "x", True, I64, None]))
    expect = ("rw" if kind in ("read", "write")
              else "ok" if kind in ("create", "stats") else "error")
    return json.dumps(msg).encode(), tag, expect


class Client:
    """One fuzzing connection: its lines, how it ends, what it heard."""

    def __init__(self, rng, rank):
        self.ending = rng.choice(("fin", "cut", "reset"))
        self.lines = [make_line(rng, f"c{rank}-{i}") for i in range(rng.randrange(20, 60))]
        if self.ending == "cut":
            while not self.lines[-1][0]:  # an empty last line would vanish
                self.lines[-1] = make_line(rng, f"c{rank}-last")
        if self.ending == "reset":
            # the last line proves the server read everything before it
            self.lines.append((b'{"op": "stats", "id": "last"}', "last", "ok"))
        data = b"".join(line + b"\n" for line, _, _ in self.lines)
        if self.ending == "cut":
            data = data[:-1]  # the last line loses its newline
        cuts = sorted(rng.sample(range(1, len(data)), 8))
        self.chunks = [data[a:b] for a, b in zip([0, *cuts], [*cuts, len(data)])]
        self.replies = []

    async def open(self, port):
        self.reader, self.writer = await asyncio.open_connection("127.0.0.1", port)

    async def finish(self):
        if self.ending == "reset":
            while json.loads(await self.reader.readline()).get("id") != "last":
                pass
            sock = self.writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            self.writer.close()
            return
        self.writer.write_eof()
        # the server answers everything it owes, then closes
        self.replies = [json.loads(line) for line in (await self.reader.read()).splitlines()]
        self.writer.close()

    def check(self):
        if self.ending == "reset":
            return  # it left: the server's counters account for the rest
        assert len(self.replies) == len(self.lines)
        by_id = {}
        anonymous = []
        for reply in self.replies:
            if "id" not in reply:
                anonymous.append(reply)
                continue
            assert reply["id"] not in by_id, reply
            by_id[reply["id"]] = reply
        for _, tag, expect in self.lines:
            if tag is None:
                continue
            reply = by_id.pop(tag)
            if expect == "rw":
                assert reply["ok"] or reply["error"] == "busy", reply
            else:
                assert reply["ok"] is (expect == "ok"), reply
        assert len(anonymous) == sum(tag is None for _, tag, _ in self.lines)
        assert not any(reply["ok"] for reply in anonymous)


async def ask(port, msg):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write((json.dumps(msg) + "\n").encode())
    reply = json.loads(await reader.readline())
    writer.close()
    await writer.wait_closed()
    return reply


@pytest.mark.parametrize("seed", range(4))
def test_frontend_survives_and_accounts_for_every_line(seed):
    rng = random.Random(seed)
    unhandled = []

    async def main():
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: unhandled.append(context))
        sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0, record=False, max_queue=4)
        for vid in range(N_VARS):
            sess.create(vid % N_PROCS, 64)
        fe = await ServeFrontend(sess).start()
        clients = [Client(rng, rank) for rank in range(rng.randrange(3, 6))]
        for c in clients:
            await c.open(fe.port)
        # interleave the connections' slices, each connection's in order
        turns = [c for c in clients for _ in c.chunks]
        rng.shuffle(turns)
        sent = {id(c): 0 for c in clients}
        for c in turns:
            c.writer.write(c.chunks[sent[id(c)]])
            sent[id(c)] += 1
            if rng.random() < 0.5:
                await asyncio.sleep(0)
        await asyncio.gather(*(c.finish() for c in clients))
        await asyncio.sleep(0.05)  # let the server see the resets
        # a fresh connection is served, and the books balance
        fresh = await ask(fe.port, {"op": "read", "proc": 1, "vid": 0, "id": "fresh"})
        stats = await ask(fe.port, {"op": "stats"})
        await fe.aclose()
        return clients, fresh, stats, sess.close(), fe

    clients, fresh, stats, report, fe = asyncio.run(main())
    assert not unhandled, unhandled
    for c in clients:
        c.check()
    assert fresh["ok"] and fresh["id"] == "fresh"
    rw_lines = 1 + sum(expect == "rw" for c in clients for _, _, expect in c.lines)
    assert stats["accepted"] + stats["rejected"] == rw_lines
    assert stats["replies_sent"] + stats["replies_dropped"] == stats["completed"]
    assert fe.replies_sent + fe.replies_dropped == report.requests == report.accepted


def test_the_seeds_end_connections_every_way():
    """The seeds above are not vacuous: between them they end connections
    all three ways (same draws as the test's)."""
    endings = set()
    for seed in range(4):
        rng = random.Random(seed)
        n = rng.randrange(3, 6)
        endings |= {Client(rng, rank).ending for rank in range(n)}
    assert endings == {"fin", "cut", "reset"}
