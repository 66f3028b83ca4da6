"""TCP ingest frontend: wire protocol round-trips over a real socket."""

import asyncio
import json
import socket
import struct

from repro.network.mesh import Mesh2D
from repro.serve import ServeSession
from repro.serve.frontend import ServeFrontend, selfcheck
from repro.sim import _ckern


class TestSelfcheck:
    def test_selfcheck_answers_every_request(self):
        out = selfcheck(side=4, requests=120, clients=3, n_vars=8, seed=0)
        assert out["selfcheck"] == "ok"
        assert out["answered"] == 120
        assert out["requests"] + out["rejected"] >= 120
        assert out["latency_p50"] <= out["latency_p99"]


class TestWireProtocol:
    def test_create_read_write_stats_and_errors(self):
        async def main():
            sess = ServeSession(Mesh2D(2, 2), "fixed-home", seed=0)
            fe = await ServeFrontend(sess).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", fe.port)

            async def ask(msg):
                writer.write((json.dumps(msg) + "\n").encode())
                await writer.drain()
                return json.loads(await reader.readline())

            created = await ask({"op": "create", "proc": 1, "payload": 64})
            assert created == {"ok": True, "vid": 0}
            wrote = await ask({"op": "write", "proc": 2, "vid": 0,
                               "value": 7, "id": "w1"})
            assert wrote["ok"] and wrote["id"] == "w1" and wrote["time"] > 0
            read = await ask({"op": "read", "proc": 3, "vid": 0})
            assert read["ok"] and read["value"] == 7
            stats = await ask({"op": "stats"})
            assert stats["ok"] and stats["completed"] == 2
            bad_op = await ask({"op": "frobnicate"})
            assert not bad_op["ok"] and "unknown op" in bad_op["error"]
            # Malformed JSON must answer an error, not kill the server.
            writer.write(b"this is not json\n")
            await writer.drain()
            garbled = json.loads(await reader.readline())
            assert not garbled["ok"]
            still_alive = await ask({"op": "stats"})
            assert still_alive["ok"]

            writer.close()
            await fe.aclose()
            return sess.close()

        report = asyncio.run(main())
        assert report.requests == 2 and report.created == 1

    def test_create_after_reads_on_an_unrecorded_session(self):
        """``repro serve``'s session records nothing (a long-running
        server would grow by one op per request): on the fast path that
        is also what lets a client create a variable after the first
        request and read it back."""
        async def main():
            sess = ServeSession(Mesh2D(4, 4), "4-ary", seed=0, record=False)
            sess.create(0, 64)
            fe = await ServeFrontend(sess).start()
            reader, writer = await asyncio.open_connection("127.0.0.1", fe.port)

            async def ask(msg):
                writer.write((json.dumps(msg) + "\n").encode())
                return json.loads(await reader.readline())

            assert (await ask({"op": "read", "proc": 5, "vid": 0}))["ok"]
            assert (await ask({"op": "write", "proc": 9, "vid": 0, "value": -3}))["ok"]
            assert (await ask({"op": "read", "proc": 5, "vid": 0}))["value"] == -3
            assert await ask({"op": "create", "proc": 2, "payload": 32}) == {"ok": True, "vid": 1}
            assert (await ask({"op": "write", "proc": 7, "vid": 1, "value": 1 << 62}))["ok"]
            assert (await ask({"op": "read", "proc": 2, "vid": 1}))["value"] == 1 << 62
            stats = await ask({"op": "stats"})
            writer.close()
            await fe.aclose()
            sess.close()
            return stats

        stats = asyncio.run(main())
        assert stats["completed"] == 5 and stats["created"] == 2
        assert stats["dispatch"]["mode"] == ("fast" if _ckern.load_kernel() else "classic")


class TestBadConnections:
    """The edge answers what it cannot read, once, and hangs up; the
    server and its other connections carry on (ROADMAP 4d)."""

    def serve(self, scenario):
        unhandled = []

        async def main():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: unhandled.append(context))
            sess = ServeSession(Mesh2D(2, 2), "fixed-home", seed=0)
            sess.create(0, 64)
            fe = await ServeFrontend(sess).start()
            out = await scenario(fe.port)
            # the server still serves a fresh connection
            reader, writer = await asyncio.open_connection("127.0.0.1", fe.port)
            writer.write(b'{"op": "read", "proc": 1, "vid": 0}\n')
            await writer.drain()
            assert json.loads(await reader.readline())["ok"]
            writer.close()
            await fe.aclose()
            sess.close()
            return out

        out = asyncio.run(main())
        assert not unhandled, unhandled
        return out

    def test_over_long_line_gets_one_error_reply_and_a_close(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "stats", "pad": "' + b"x" * (1 << 17) + b'"}\n')
            writer.write(b'{"op": "stats"}\n')   # never read: the line before ends it
            await writer.drain()
            replies = (await reader.read()).splitlines()   # until the server closes
            writer.close()
            return replies

        replies = self.serve(scenario)
        assert len(replies) == 1
        reply = json.loads(replies[0])
        assert reply["ok"] is False and "limit" in reply["error"].lower()

    def test_a_reply_owed_to_a_hung_up_connection_is_counted(self):
        """The read is accepted, then the over-long line behind it hangs
        the connection up before the pump answers: the reply is counted
        as dropped, not lost silently."""
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "read", "proc": 1, "vid": 0}\n' + b"x" * (1 << 17) + b"\n")
            await writer.drain()
            replies = (await reader.read()).splitlines()
            writer.close()
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "stats"}\n')
            stats = json.loads(await reader.readline())
            writer.close()
            return replies, stats

        replies, stats = self.serve(scenario)
        assert [json.loads(r)["ok"] for r in replies] == [False]
        assert (stats["completed"], stats["replies_sent"], stats["replies_dropped"]) == (1, 0, 1)

    def test_reset_connection_is_closed_quietly(self):
        async def scenario(port):
            reader, writer = await asyncio.open_connection("127.0.0.1", port)
            writer.write(b'{"op": "read", "proc": 1, "vid": 0}\n')
            await writer.drain()
            # RST instead of FIN: the server's next read raises
            # ConnectionResetError
            sock = writer.get_extra_info("socket")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            writer.close()
            await asyncio.sleep(0.05)

        self.serve(scenario)
