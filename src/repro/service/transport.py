"""HTTP/JSON transport shared by the job server and its client.

Two halves live here, so the wire format is defined exactly once:

* the **server-side stream plumbing** (:func:`read_request`,
  :func:`respond`) behind the asyncio listener of ``repro serve`` — a
  minimal HTTP/1.1-with-JSON-bodies dialect;
* the **client-side call helpers** (:func:`http_json`, :func:`call`)
  with per-request timeouts and jittered exponential-backoff retry on
  transport-level failures, used by :mod:`repro.service.client`.

Retry discipline: only *transport* failures (connection refused/reset,
socket timeouts, torn responses) are retried — an HTTP status is a
delivered answer and is returned as-is, and a URL the client could not
even encode is a caller bug, not a network hiccup. Submissions dedupe
on the content-addressed job key, so blind re-delivery is safe.
"""

from __future__ import annotations

import asyncio
import contextlib
import http.client
import json
import socket
import time
from typing import Any

from repro.service.backoff import Backoff, BackoffPolicy

MAX_BODY = 16 * 1024 * 1024

STATUS_TEXT = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    409: "Conflict",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class Unreachable(ConnectionError):
    """The peer could not be reached or dropped the connection."""

    def __init__(self, host: str, port: int, cause: BaseException) -> None:
        self.host = host
        self.port = port
        self.cause = cause
        super().__init__(f"{host}:{port} unreachable: {cause}")


#: Failures worth a retry: the peer may be restarting or mid-drain.
_TRANSIENT = (OSError, socket.timeout, http.client.HTTPException, EOFError)


def http_json(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict[str, Any] | None = None,
    timeout: float = 10.0,
) -> tuple[int, dict[str, Any]]:
    """One HTTP/JSON exchange; raises :class:`Unreachable` on failure.

    A path ``http.client`` refuses to send (say, one with a space in it)
    is the caller's bug, not a transport failure: it raises ValueError
    at once instead of being retried.
    """
    body = json.dumps(payload).encode() if payload is not None else None
    headers = {"Content-Type": "application/json"} if body else {}
    conn = http.client.HTTPConnection(host, port, timeout=timeout)
    try:
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
        except http.client.InvalidURL as exc:
            raise ValueError(str(exc)) from exc
        except _TRANSIENT as exc:
            raise Unreachable(host, port, exc) from exc
    finally:
        conn.close()
    try:
        decoded = json.loads(data.decode() or "{}")
    except ValueError:
        decoded = {"error": data.decode(errors="replace")}
    if not isinstance(decoded, dict):
        decoded = {"value": decoded}
    return response.status, decoded


def call(
    host: str,
    port: int,
    method: str,
    path: str,
    payload: dict[str, Any] | None = None,
    *,
    policy: BackoffPolicy,
    timeout: float = 10.0,
) -> tuple[int, dict[str, Any]]:
    """:func:`http_json` with backoff retry on transport failures.

    Raises :class:`Unreachable` once the policy's budget is spent.
    """
    schedule = Backoff(policy)
    while True:
        try:
            return http_json(host, port, method, path, payload, timeout=timeout)
        except Unreachable:
            delay = schedule.next_delay()
            if delay is None:
                raise
            time.sleep(delay)


def parse_endpoint(spec: str) -> tuple[str, int]:
    """``host:port`` (optionally ``http://``-prefixed) -> ``(host, port)``."""
    spec = spec.removeprefix("http://")
    host, _, port = spec.rstrip("/").rpartition(":")
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(f"bad endpoint {spec!r}; expected host:port") from None


# -- asyncio server-side plumbing -------------------------------------------


async def read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, bytes]:
    """Parse one request off an asyncio stream: (method, path, body)."""
    request_line = (await reader.readline()).decode("latin-1").strip()
    if not request_line:
        raise ValueError("empty request")
    try:
        method, path, _version = request_line.split(" ", 2)
    except ValueError:
        raise ValueError(f"bad request line {request_line!r}") from None
    length = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        if name.strip().lower() == "content-length":
            length = int(value.strip())
    if length > MAX_BODY:
        raise ValueError("body too large")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, body


async def respond(
    writer: asyncio.StreamWriter, status: int, payload: dict
) -> None:
    """Write one JSON response and flush (connection: close semantics)."""
    body = json.dumps(payload, sort_keys=True).encode()
    head = (
        f"HTTP/1.1 {status} {STATUS_TEXT.get(status, 'Unknown')}\r\n"
        "Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        "Connection: close\r\n"
        "\r\n"
    ).encode("latin-1")
    writer.write(head + body)
    with contextlib.suppress(ConnectionError):
        await writer.drain()
