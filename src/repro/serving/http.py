"""Minimal HTTP/1.1 framing over asyncio streams.

Just enough protocol for the serving API: request-line + headers +
``Content-Length`` bodies in, status + JSON (or text) out, with
keep-alive so a client can reuse its connection (HTTP/1.1 by
default, HTTP/1.0 only on ``Connection: keep-alive``).  No chunked
transfer (a request with ``Transfer-Encoding``, or with two different
``Content-Length`` values, is refused, 400), no TLS, no multipart —
the serving surface is five JSON endpoints and this parser is written
to be auditable, not general.

Kept separate from :mod:`repro.serving.server` so the framing can be
unit-tested against raw byte streams without standing up a service.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "HttpError",
    "HttpRequest",
    "read_http_request",
    "render_response",
    "STATUS_REASONS",
]

# Guardrails: a request line/header block or body larger than this is
# a confused (or hostile) client, not serving traffic.
MAX_HEADER_BYTES = 16 * 1024
MAX_BODY_BYTES = 4 * 1024 * 1024

STATUS_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A malformed request the framing layer rejects outright."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class HttpRequest:
    """One parsed request; header names are lower-cased."""

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    version: str = "HTTP/1.1"

    def json(self) -> Any:
        """Decode the body as JSON; empty body decodes as ``None``."""
        if not self.body:
            return None
        try:
            return json.loads(self.body)
        except (ValueError, RecursionError) as error:
            # ValueError covers bad UTF-8, bad syntax and CPython's
            # integer-digit limit; RecursionError a body nested past the
            # decoder's depth.  Hostile input is a 400, never a 500.
            raise HttpError(400, f"request body is not valid JSON: {error}") from None

    @property
    def keep_alive(self) -> bool:
        """HTTP/1.1 keeps the connection unless told to close; HTTP/1.0
        closes it unless told to keep it."""
        connection = self.headers.get("connection", "").lower()
        if self.version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"


async def read_http_request(
    reader: asyncio.StreamReader, writer: asyncio.StreamWriter | None = None
) -> HttpRequest | None:
    """Parse one request off the stream; ``None`` on clean EOF.

    With a ``writer``, a client that sent ``Expect: 100-continue`` and a
    body length this server accepts gets the interim response it is
    holding its body back for (curl does, for about a second).
    """
    try:
        raw = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None  # clean close between requests
        raise HttpError(400, "truncated request head") from None
    except asyncio.LimitOverrunError:
        raise HttpError(413, "request head too large") from None
    if len(raw) > MAX_HEADER_BYTES:
        raise HttpError(413, "request head too large")
    head = raw.decode("latin-1").split("\r\n")
    parts = head[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise HttpError(400, f"malformed request line: {head[0]!r}")
    method, target, version = parts
    path = target.split("?", 1)[0]
    headers: dict[str, str] = {}
    for line in head[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line: {line!r}")
        name, value = name.strip().lower(), value.strip()
        if name == "content-length" and headers.get(name, value) != value:
            # The two lengths frame the stream differently: reading by
            # either may take part of a body for the next request, or
            # the next request for a body.  Refuse the request whole.
            raise HttpError(400, "conflicting Content-Length headers")
        headers[name] = value
    if "transfer-encoding" in headers:
        # Only Content-Length frames a body here.  Read on as if there
        # were none and the chunks would parse as the next request.
        raise HttpError(
            400,
            "Transfer-Encoding is not supported; send the body with "
            "Content-Length",
        )
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad Content-Length: {length_text!r}") from None
    if length < 0 or length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes exceeds limit")
    body = b""
    if length:
        if writer is not None and headers.get("expect", "").lower() == "100-continue":
            writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "truncated request body") from None
    return HttpRequest(
        method=method.upper(), path=path, headers=headers, body=body, version=version
    )


def render_response(
    status: int,
    payload: Any,
    *,
    content_type: str = "application/json",
    keep_alive: bool = True,
) -> bytes:
    """Serialize one response; dict/list payloads become JSON."""
    if isinstance(payload, bytes):
        body = payload
    elif isinstance(payload, str):
        body = payload.encode("utf-8")
    else:
        body = json.dumps(payload).encode("utf-8")
    reason = STATUS_REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + body
