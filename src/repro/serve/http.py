"""Minimal asyncio HTTP/1.1 transport for the simulation service.

The container environment is stdlib-only, so the service speaks a small,
strict subset of HTTP/1.1 over :mod:`asyncio` streams instead of pulling
in a framework: one request per connection (``Connection: close``
semantics), ``Content-Length`` bodies only, bounded header and body
sizes.  That subset is exactly what the bundled load-test client, the
CI smoke and a Prometheus scrape need — and keeping the parser ~100
lines makes its failure modes (413, 431, 400) easy to verify.

Server-Sent Events are layered on top: :class:`SseWriter` frames
``event:``/``data:`` blocks per the WHATWG EventSource grammar and the
connection close terminates the stream.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Optional
from urllib.parse import parse_qs, urlsplit

#: Request-line + headers are read line-by-line; a line longer than the
#: stream limit (64 KiB default) is a malformed request.
MAX_HEADERS = 100
MAX_BODY_BYTES = 8 * 1024 * 1024

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed or unacceptable request, mapped to a 4xx/5xx reply."""

    def __init__(self, status: int, message: str,
                 headers: tuple[tuple[str, str], ...] = ()) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers = headers


@dataclass
class Request:
    """One parsed request."""

    method: str
    target: str
    route: str
    query: dict[str, list[str]] = field(default_factory=dict)
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""

    def json(self) -> object:
        if not self.body:
            raise HttpError(400, "expected a JSON body")
        try:
            return json.loads(self.body)
        except ValueError as exc:
            raise HttpError(400, f"invalid JSON body: {exc}") from exc

    def header(self, name: str, default: str = "") -> str:
        return self.headers.get(name.lower(), default)

    def wants_sse(self) -> bool:
        if "text/event-stream" in self.header("accept"):
            return True
        return self.query.get("stream", [""])[-1] == "sse"


async def read_request(reader: asyncio.StreamReader) -> Optional[Request]:
    """Parse one request; ``None`` on clean EOF before any bytes."""
    try:
        line = await reader.readline()
    except (asyncio.LimitOverrunError, ValueError) as exc:
        raise HttpError(431, "request line too long") from exc
    if not line:
        return None
    try:
        method, target, version = line.decode("latin-1").split()
    except ValueError as exc:
        raise HttpError(400, "malformed request line") from exc
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol {version!r}")

    headers: dict[str, str] = {}
    for _ in range(MAX_HEADERS + 1):
        try:
            raw = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise HttpError(431, "header line too long") from exc
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header {raw!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise HttpError(431, "too many headers")

    if "transfer-encoding" in headers:
        raise HttpError(501, "chunked request bodies are not supported")
    body = b""
    if "content-length" in headers:
        try:
            n = int(headers["content-length"])
        except ValueError as exc:
            raise HttpError(400, "malformed Content-Length") from exc
        if n < 0:
            raise HttpError(400, "malformed Content-Length")
        if n > MAX_BODY_BYTES:
            raise HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(n)
        except asyncio.IncompleteReadError as exc:
            raise HttpError(400, "truncated request body") from exc

    parts = urlsplit(target)
    return Request(
        method=method.upper(),
        target=target,
        route=parts.path,
        query=parse_qs(parts.query),
        headers=headers,
        body=body,
    )


def render_response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra_headers)
    head = "\r\n".join(lines) + "\r\n\r\n"
    return head.encode("latin-1") + body


def json_response(
    status: int,
    payload: object,
    extra_headers: tuple[tuple[str, str], ...] = (),
) -> bytes:
    body = (json.dumps(payload, sort_keys=True) + "\n").encode()
    return render_response(status, body, extra_headers=extra_headers)


def error_response(exc: HttpError) -> bytes:
    return json_response(
        exc.status, {"error": exc.message, "status": exc.status},
        extra_headers=exc.headers,
    )


class SseWriter:
    """Server-Sent Events framing over an open stream.

    The response headers advertise ``text/event-stream`` with no
    ``Content-Length``; the stream terminates when the connection
    closes, which the service does after the final event.
    """

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self._started = False

    async def start(self, status: int = 200) -> None:
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            "Content-Type: text/event-stream\r\n"
            "Cache-Control: no-store\r\n"
            "Connection: close\r\n\r\n"
        )
        self._writer.write(head.encode("latin-1"))
        await self._writer.drain()
        self._started = True

    async def send(self, event: str, data: object) -> None:
        text = json.dumps(data, sort_keys=True)
        frame = f"event: {event}\n"
        for line in text.splitlines() or [""]:
            frame += f"data: {line}\n"
        frame += "\n"
        self._writer.write(frame.encode())
        await self._writer.drain()


def parse_sse(text: str) -> list[tuple[str, str]]:
    """Parse an SSE stream into ``(event, data)`` pairs (test/client aid).

    Raises :class:`ValueError` on framing violations: a field line
    outside a block, a block with data but no event name, or a stream
    that does not end on a blank-line block terminator.
    """
    if text and not text.endswith("\n\n"):
        # A terminated stream always ends on a blank-line block
        # terminator; splitting can't distinguish "ends with one \n"
        # from "ends with a blank line", so check before splitting.
        raise ValueError("unterminated SSE block at end of stream")
    events: list[tuple[str, str]] = []
    event: Optional[str] = None
    data: list[str] = []
    for line in text.split("\n"):
        if line == "":
            if event is None and data:
                raise ValueError("SSE block with data but no event name")
            if event is not None:
                events.append((event, "\n".join(data)))
            event, data = None, []
        elif line.startswith("event: "):
            event = line[len("event: "):]
        elif line.startswith("data: "):
            data.append(line[len("data: "):])
        elif line.startswith(":"):
            continue  # comment / keep-alive
        else:
            raise ValueError(f"malformed SSE line {line!r}")
    if event is not None or data:
        raise ValueError("unterminated SSE block at end of stream")
    return events
