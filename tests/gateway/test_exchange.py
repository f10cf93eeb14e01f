"""The HTTP exchange on both ends, against peers that frame bytes their own way.

The client side runs against a scripted raw-socket server: it reads each
request by ``Content-Length`` and answers with whatever bytes the test
scripts — a reply dribbled one byte per ``send``, a ``Connection: close``,
an idle connection closed under the client, a reply framed in a way the
client does not read.  The server side gets a request head dribbled one
byte per ``send``.
"""

from __future__ import annotations

import json
import re
import socket
import threading
import time

import numpy as np
import pytest

from repro.errors import GatewayError
from repro.formats import GroupCOO
from repro.gateway import GatewayClient
from repro.gateway.wire import encode_result, unpack_frame

SPMM_EXPR = "C[m,n] += A[m,k] * B[k,n]"
OUTPUT = np.arange(12, dtype=np.float64).reshape(3, 4)


def ok_reply(connection: bytes = b"keep-alive") -> bytes:
    """A 200 carrying ``OUTPUT`` in the binary result frame."""
    content_type, body = encode_result({}, OUTPUT, binary=True)
    head = b"HTTP/1.1 200 OK\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: %s\r\n\r\n"
    return head % (content_type.encode(), len(body), connection) + body


class ScriptedServer:
    """One connection at a time; request ``i`` is answered by ``script(i)``.

    ``script`` returns ``(reply bytes, action)``: ``"keep"`` waits for the
    next request on the connection, ``"close"`` closes it after the reply,
    ``"bytewise"`` sends the reply one byte per ``send`` and keeps it open.
    Every request body is recorded with the number of its connection.
    """

    def __init__(self, script):
        self.script = script
        self.requests: list[tuple[int, bytes]] = []
        self.connections = 0
        self.closed_by_client = 0
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.port = self._listener.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            self.connections += 1
            with sock:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                self._serve_connection(sock)

    def _serve_connection(self, sock: socket.socket) -> None:
        buffer = b""
        while True:
            while b"\r\n\r\n" not in buffer or len(buffer) < self._framed(buffer):
                chunk = sock.recv(1 << 16)
                if not chunk:
                    self.closed_by_client += 1
                    return
                buffer += chunk
            end = self._framed(buffer)
            _, _, body = buffer[:end].partition(b"\r\n\r\n")
            buffer = buffer[end:]
            self.requests.append((self.connections, body))
            reply, action = self.script(len(self.requests) - 1)
            if action == "bytewise":
                for index in range(len(reply)):
                    sock.send(reply[index : index + 1])
            else:
                sock.sendall(reply)
            if action == "close":
                return

    @staticmethod
    def _framed(buffer: bytes) -> int:
        """Bytes of the first request: its head, blank line and body."""
        head, _, _ = buffer.partition(b"\r\n\r\n")
        length = re.search(rb"(?i)\r\ncontent-length: *(\d+)", head)
        return len(head) + 4 + (int(length.group(1)) if length else 0)

    def close(self) -> None:
        self._listener.shutdown(socket.SHUT_RDWR)  # wakes the blocked accept()
        self._listener.close()
        self._thread.join(timeout=10)

    def descriptors(self, index: int) -> str:
        """The operand descriptors of request ``index``, as JSON text."""
        header, _ = unpack_frame(self.requests[index][1])
        return json.dumps(header["operands"])


@pytest.fixture
def operands():
    rng = np.random.default_rng(3)
    dense = np.where(rng.random((16, 24)) < 0.2, rng.standard_normal((16, 24)), 0.0)
    return dict(A=GroupCOO.from_dense(dense, group_size=4), B=rng.standard_normal((24, 4)))


def scripted(script):
    server = ScriptedServer(script)
    client = GatewayClient(f"http://127.0.0.1:{server.port}", max_connections=1)
    return server, client


def test_a_reply_sent_one_byte_per_send_decodes_the_same(operands):
    server, client = scripted(lambda i: (ok_reply(), "bytewise" if i else "keep"))
    with client:
        whole = client.submit(SPMM_EXPR, **operands).result(timeout=30)
        dribbled = client.submit(SPMM_EXPR, **operands).result(timeout=30)
    server.close()
    np.testing.assert_array_equal(whole, OUTPUT)
    np.testing.assert_array_equal(dribbled, OUTPUT)
    assert server.connections == 1  # the dribbled reply left the connection usable


@pytest.mark.parametrize("ending", ["connection-close", "server-closes-idle"])
def test_the_next_submit_reships_everything_on_a_fresh_connection(operands, ending):
    def script(index):
        if index == 2 and ending == "connection-close":
            return ok_reply(b"close"), "keep"
        return ok_reply(), "close" if index == 2 else "keep"

    server, client = scripted(script)
    with client:
        for _ in range(4):
            np.testing.assert_array_equal(
                client.submit(SPMM_EXPR, **operands).result(timeout=30), OUTPUT
            )
    server.close()
    assert [number for number, _ in server.requests] == [1, 1, 1, 2]
    # On the first connection the mirror warmed up: the pattern is a
    # reference from the second send, the dense operand from the third.
    assert '["pattern",' in server.descriptors(1)
    assert '["cached",' in server.descriptors(2)
    fresh = server.descriptors(3)
    assert '["cached",' not in fresh and '["pattern",' not in fresh
    assert fresh == server.descriptors(0)


BAD_REPLIES = {
    "chunked": b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
    "no-content-length": b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
    "garbage-status-line": b"HELLO THERE\r\nContent-Length: 2\r\n\r\n{}",
}


@pytest.mark.parametrize("name", sorted(BAD_REPLIES))
def test_a_reply_not_framed_by_content_length_fails_and_drops_the_connection(operands, name):
    server, client = scripted(lambda i: (BAD_REPLIES[name], "keep"))
    with client:
        started = time.perf_counter()
        with pytest.raises(GatewayError, match="unreachable"):
            client.submit(SPMM_EXPR, **operands).result(timeout=10)
        assert time.perf_counter() - started < 5  # well inside the 30 s socket timeout
        # Both attempts (the first and its fresh-connection retry) hung up.
        deadline = time.monotonic() + 10
        while server.closed_by_client < 2 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert (server.connections, server.closed_by_client) == (2, 2)
    server.close()


def test_a_request_head_sent_one_byte_per_send_is_served(inline_gateway):
    _, server = inline_gateway
    request = b"GET /v1 HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    with socket.create_connection(("127.0.0.1", server.port), timeout=30) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        for index in range(len(request)):
            sock.send(request[index : index + 1])
        reply = b""
        while chunk := sock.recv(1 << 16):
            reply += chunk
    head, _, body = reply.partition(b"\r\n\r\n")
    assert head.startswith(b"HTTP/1.1 200 ")
    assert json.loads(body)["api_version"] == "v1"
