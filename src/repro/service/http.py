"""Stdlib-only asyncio HTTP front-end for the simulation service.

A deliberately small HTTP/1.1 server (``asyncio.start_server``; no
third-party dependencies) exposing the broker as four JSON endpoints:

* ``POST /v1/submit`` — submission envelope in, digests out.  With
  ``"wait": true`` the response carries the full result documents
  (the request blocks until its cells settle); otherwise it returns
  immediately with per-cell ``done``/``pending`` statuses.
* ``GET /v1/result/<digest>`` — ``200`` with the result document,
  ``202`` while the digest is queued or simulating, ``404`` for a
  digest this service has never seen.
* ``GET /v1/stats`` — broker counters, queue state, store statistics.
* ``GET /v1/healthz`` — liveness probe: ``ok`` is false once the
  broker's drain loop has ended.

Error mapping is typed end to end:
:class:`~repro.errors.ProtocolError` → 400 (the body names the bad
field), :class:`~repro.errors.QueueFullError` → 429 with the queue
``capacity`` and ``depth`` so clients can back off deliberately.
Malformed framing — a non-numeric, negative, or conflicting-duplicate
``Content-Length`` — is a 400 before the body is read, never a 500.

Connections are one-request (``Connection: close``): the service's unit
of work is a simulation measured in seconds, so connection reuse buys
nothing and the parser stays trivially auditable.
"""

from __future__ import annotations

import asyncio
import http.client
import json

from repro.errors import ProtocolError, QueueFullError, ServiceError
from repro.service.broker import Broker
from repro.service.protocol import submission_from_json

__all__ = ["ServiceClient", "ServiceServer"]

#: Bytes a request body may carry (a full 256-cell submission is ~100 KB).
MAX_BODY_BYTES = 4 * 1024 * 1024

_REASONS = {200: "OK", 202: "Accepted", 400: "Bad Request",
            404: "Not Found", 405: "Method Not Allowed",
            413: "Payload Too Large", 429: "Too Many Requests",
            500: "Internal Server Error"}


def _response(status: int, body: dict) -> bytes:
    payload = json.dumps(body).encode()
    head = (f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"Connection: close\r\n\r\n")
    return head.encode() + payload


class ServiceServer:
    """One listening socket bound to one :class:`Broker`."""

    def __init__(self, broker: Broker, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.broker = broker
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None

    async def start(self) -> tuple[str, int]:
        """Bind, start the broker, and return the bound ``(host, port)``
        (the port is resolved when 0 was requested)."""
        await self.broker.start()
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port)
        self.host, self.port = self._server.sockets[0].getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.broker.close()

    # ------------------------------------------------------------- plumbing

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            status, body = await self._respond(reader)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # never kill the server on one request
            status, body = 500, {"error": type(exc).__name__,
                                 "message": str(exc)}
        try:
            writer.write(_response(status, body))
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; nothing to salvage
        finally:
            writer.close()

    async def _respond(self, reader: asyncio.StreamReader
                       ) -> tuple[int, dict]:
        try:
            request_line = await reader.readline()
            parts = request_line.decode("latin-1").split()
            if len(parts) != 3:
                return 400, {"error": "ProtocolError",
                             "message": "malformed request line"}
            method, target, _ = parts
            length: int | None = None
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                if name.strip().lower() == "content-length":
                    # strict non-negative decimal only: int() would also
                    # accept "+5", "-5" or "1_0", and a negative length
                    # must never reach readexactly()
                    value = value.strip()
                    if not (value.isascii() and value.isdigit()):
                        return 400, {"error": "ProtocolError",
                                     "message": "bad Content-Length"}
                    parsed = int(value)
                    if length is not None and parsed != length:
                        return 400, {"error": "ProtocolError",
                                     "message": "conflicting duplicate "
                                                "Content-Length headers"}
                    length = parsed
            if length is None:
                length = 0
            if length > MAX_BODY_BYTES:
                return 413, {"error": "ProtocolError",
                             "message": f"body exceeds {MAX_BODY_BYTES} "
                                        f"bytes"}
            body = await reader.readexactly(length) if length else b""
        except (asyncio.IncompleteReadError, UnicodeDecodeError):
            return 400, {"error": "ProtocolError",
                         "message": "truncated request"}
        return await self._route(method, target, body)

    async def _route(self, method: str, target: str,
                     body: bytes) -> tuple[int, dict]:
        if target == "/v1/healthz":
            if method != "GET":
                return 405, {"error": "ProtocolError",
                             "message": "healthz is GET-only"}
            state = self.broker.drain_loop
            return 200, {"ok": state == "running", "drain_loop": state}
        if target == "/v1/stats":
            if method != "GET":
                return 405, {"error": "ProtocolError",
                             "message": "stats is GET-only"}
            return 200, self.broker.stats()
        if target.startswith("/v1/result/"):
            if method != "GET":
                return 405, {"error": "ProtocolError",
                             "message": "result is GET-only"}
            return self._result(target[len("/v1/result/"):])
        if target == "/v1/submit":
            if method != "POST":
                return 405, {"error": "ProtocolError",
                             "message": "submit is POST-only"}
            return await self._submit(body)
        return 404, {"error": "ProtocolError",
                     "message": f"unknown endpoint {target!r}"}

    def _result(self, digest: str) -> tuple[int, dict]:
        doc = self.broker.peek(digest)
        if doc is None:
            return 404, {"error": "ServiceError",
                         "message": f"unknown digest {digest!r}"}
        return (202 if doc.get("status") == "pending" else 200), doc

    async def _submit(self, body: bytes) -> tuple[int, dict]:
        try:
            doc = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            return 400, {"error": "ProtocolError",
                         "message": f"undecodable JSON body: {exc}"}
        wait = isinstance(doc, dict) and bool(doc.pop("wait", False))
        try:
            tenant, cells = submission_from_json(doc)
            digests = self.broker.submit_many(tenant, cells)
        except ProtocolError as exc:
            return 400, {"error": "ProtocolError", "message": str(exc)}
        except QueueFullError as exc:
            return 429, {"error": "QueueFullError", "message": str(exc),
                         "capacity": exc.capacity, "depth": exc.depth}
        if wait:
            results = [await self.broker.result(d) for d in digests]
            return 200, {"tenant": tenant, "results": results}
        statuses = [self.broker.peek(d) or {"status": "pending",
                                            "digest": d}
                    for d in digests]
        return 200, {"tenant": tenant,
                     "digests": digests,
                     "statuses": [{"digest": s["digest"],
                                   "status": s["status"]}
                                  for s in statuses]}


class ServiceClient:
    """Small synchronous client (``http.client``) for the CLI, the test
    suite, and the benchmark harness."""

    def __init__(self, host: str, port: int, timeout: float = 300.0) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> tuple[int, dict]:
        conn = http.client.HTTPConnection(self.host, self.port,
                                          timeout=self.timeout)
        try:
            payload = None if body is None else json.dumps(body)
            headers = {"Content-Type": "application/json"} if payload \
                else {}
            conn.request(method, path, body=payload, headers=headers)
            resp = conn.getresponse()
            return resp.status, json.loads(resp.read() or b"null")
        finally:
            conn.close()

    def submit(self, cells: list[dict], *, tenant: str = "default",
               wait: bool = False) -> tuple[int, dict]:
        """POST a submission; returns ``(http_status, response_doc)``."""
        return self._request("POST", "/v1/submit",
                             {"tenant": tenant, "cells": cells,
                              "wait": wait})

    def result(self, digest: str) -> tuple[int, dict]:
        return self._request("GET", f"/v1/result/{digest}")

    def stats(self) -> dict:
        status, doc = self._request("GET", "/v1/stats")
        if status != 200:
            raise ServiceError(f"stats endpoint returned {status}: {doc}")
        return doc

    def healthy(self) -> bool:
        try:
            status, doc = self._request("GET", "/v1/healthz")
        except OSError:
            return False
        return status == 200 and doc.get("ok") is True
