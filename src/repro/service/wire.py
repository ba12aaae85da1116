"""The checking service's HTTP/NDJSON server helpers.

:mod:`repro.service.server` speaks a deliberately minimal HTTP/1.1
dialect: one request per connection, ``Connection: close``, JSON
bodies, NDJSON for streams.  This module holds its asyncio plumbing:
:func:`read_head` / :func:`read_body` / :func:`send_json` /
:func:`send_text`, plus :class:`HttpError`, which handlers raise to turn
into a JSON error response.  The client side lives in
:mod:`repro.service.client`.
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

__all__ = [
    "MAX_BODY", "REASONS", "HttpError", "read_head", "read_body",
    "send_json", "send_text",
]

MAX_BODY = 16 * 1024 * 1024  # a body larger than this is a typo

REASONS = {200: "OK", 201: "Created", 204: "No Content",
           400: "Bad Request", 404: "Not Found",
           405: "Method Not Allowed", 409: "Conflict",
           413: "Payload Too Large", 429: "Too Many Requests",
           500: "Internal Server Error"}


class HttpError(Exception):
    """Raised by server-side handlers; rendered as a JSON error body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


# -- server-side asyncio helpers ---------------------------------------------


async def read_head(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str]]:
    """Parse ``METHOD path`` and the header block from *reader*."""
    request_line = await reader.readline()
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        if b":" in line:
            key, value = line.decode("latin-1").split(":", 1)
            headers[key.strip().lower()] = value.strip()
    return method, path, headers


async def read_body(reader: asyncio.StreamReader, headers: Dict[str, str],
                    max_body: int = MAX_BODY) -> bytes:
    """Read a ``Content-Length``-framed body, bounded by *max_body*."""
    try:
        length = int(headers.get("content-length", "0"))
    except ValueError:
        raise HttpError(400, "bad Content-Length") from None
    if length > max_body:
        raise HttpError(413, f"body larger than {max_body} bytes")
    if length <= 0:
        return b""
    return await reader.readexactly(length)


async def send_json(writer: asyncio.StreamWriter, status: int,
                    payload: Dict[str, object],
                    extra_headers: Optional[Dict[str, str]] = None) -> None:
    """Write a complete ``Connection: close`` JSON response."""
    body = json.dumps(payload).encode("utf-8")
    head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
            "Content-Type: application/json",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    for key, value in (extra_headers or {}).items():
        head.append(f"{key}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()


async def send_text(writer: asyncio.StreamWriter, status: int, text: str,
                    content_type: str = "text/plain; version=0.0.4; "
                                        "charset=utf-8") -> None:
    """Write a complete ``Connection: close`` plain-text response (the
    default content type is the Prometheus exposition format's)."""
    body = text.encode("utf-8")
    head = [f"HTTP/1.1 {status} {REASONS.get(status, 'Unknown')}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: close"]
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body)
    await writer.drain()
