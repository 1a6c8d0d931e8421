"""The benchmark's own HTTP load client (not ``repro.loadtest``).

Each :class:`Client` holds one :class:`http.client.HTTPConnection`, used by
one thread at a time, reused while the server keeps it open and reopened
when the server closes it, so the client is fair both to today's HTTP/1.0
server (one connection per request) and to a keep-alive one.  Every
request carries a W3C ``traceparent`` whose trace id the server echoes
back, which lets the traced run join client round trips with server-side
spans.  ``send`` and ``receive`` split a request so one
thread can keep requests in flight on several connections at once.
"""

from __future__ import annotations

import http.client
import json
import time


#: What a failed request raises; callers record it as a failed operation.
REQUEST_ERRORS = (http.client.HTTPException, OSError)


class Response:
    __slots__ = ("status", "body", "trace_id", "sent", "done")

    def __init__(self, status: int, body: bytes, trace_id: str, sent: float, done: float):
        self.status = status
        self.body = body
        self.trace_id = trace_id
        self.sent = sent
        self.done = done


class Client:
    def __init__(self, host: str, port: int, timeout: float = 30.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None
        self.connects = 0
        self._sent = 0.0

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
            self.connects += 1
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def send(
        self, method: str, path: str, trace_id: str, body: dict | None = None
    ) -> None:
        """Send one request without waiting for its answer (see ``receive``)."""
        headers = {"traceparent": f"00-{trace_id}-{trace_id[:16]}-01"}
        payload = None
        if body is not None:
            payload = json.dumps(body).encode()
            headers["Content-Type"] = "application/json"
        conn = self._connection()
        self._sent = time.perf_counter()
        conn.request(method, path, body=payload, headers=headers)

    def socket(self):
        """The socket of the request in flight (to wait on several at once)."""
        return self._conn.sock

    def receive(self) -> Response:
        """Read the answer to the request ``send`` sent."""
        try:
            resp = self._conn.getresponse()
            data = resp.read()
        except (http.client.HTTPException, ConnectionError):
            self.close()
            raise
        done = time.perf_counter()
        if resp.will_close:
            self.close()
        return Response(
            resp.status, data, resp.getheader("x-repro-trace-id") or "", self._sent, done
        )

    def request(
        self, method: str, path: str, trace_id: str, body: dict | None = None
    ) -> Response:
        """Send one request and wait for its answer; a GET is retried once
        on a connection the server closed between requests."""
        for attempt in (0, 1):
            reused = self._conn is not None
            try:
                self.send(method, path, trace_id, body)
                return self.receive()
            except (http.client.HTTPException, ConnectionError):
                self.close()
                if attempt or not reused or method != "GET":
                    raise
        raise AssertionError("unreachable")
