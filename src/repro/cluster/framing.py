"""The service wire protocol: one newline-delimited JSON object per turn.

This module is the single implementation of the framing the TCP
listener and both clients (the blocking sweep client and the async
remote dispatcher) share.  The protocol itself is deliberately
tiny — one request line in, one response line out, UTF-8 JSON objects —
so everything interesting lives in the *failure* surface:

* **oversized** — a line longer than :data:`STREAM_LIMIT` is refused
  without buffering the remainder;
* **truncated** — the peer closed the connection mid-line;
* **closed** — the peer closed before sending anything (a racing server
  restart looks like this);
* **malformed** — the line is not a JSON object.

Every failure raises :class:`FrameError` with a machine-readable
``kind``, so servers can answer a structured ``ok: false`` and keep
serving, and clients can decide which kinds are safely retriable.
"""

from __future__ import annotations

import asyncio
import json
import socket

#: Protocol version, exchanged in the capability handshake.  Bump when
#: a request/response shape changes incompatibly; the host pool refuses
#: hosts that answer with a different version.
PROTOCOL_VERSION = 1

#: Stream limit: full-grid specs and multi-hundred-cell artifacts are
#: far below this, but the asyncio default (64 KiB) is not enough.
STREAM_LIMIT = 64 * 1024 * 1024


class FrameError(ValueError):
    """A frame could not be read or decoded.

    ``kind`` is the machine-readable class: ``oversized``, ``truncated``,
    ``closed`` or ``malformed``.
    """

    def __init__(self, kind: str, message: str) -> None:
        super().__init__(message)
        self.kind = kind


# ---------------------------------------------------------------------------
# Async side (servers, remote dispatch could use it too)
# ---------------------------------------------------------------------------


async def read_frame(reader: asyncio.StreamReader) -> str:
    """One request line, or ``""`` on a clean EOF (no bytes at all).

    The reader's own ``limit`` (set when the server was started) bounds
    the line; exceeding it, or closing mid-line, raises a
    :class:`FrameError` the server turns into a structured error
    response instead of a logged-and-dropped connection.
    """
    try:
        raw = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return ""
        raise FrameError(
            "truncated",
            f"connection closed mid-request after {len(error.partial)} "
            "byte(s) (no terminating newline)",
        ) from error
    except asyncio.LimitOverrunError as error:
        raise FrameError(
            "oversized",
            f"request line exceeds the stream limit "
            f"({error.consumed} byte(s) buffered); requests are capped "
            f"at {STREAM_LIMIT} bytes",
        ) from error
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as error:
        raise FrameError("malformed", f"request is not UTF-8: {error}") \
            from error


async def write_frame(writer: asyncio.StreamWriter, message: dict) -> None:
    """Send one response object and flush it."""
    writer.write(encode_frame(message))
    await writer.drain()


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_frame(message: dict) -> bytes:
    """One protocol object as wire bytes (sorted keys, one line)."""
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode_frame(text: str) -> dict:
    """Parse one frame's text; anything but a JSON object is malformed."""
    try:
        message = json.loads(text)
    except ValueError as error:
        raise FrameError("malformed", f"request is not JSON: {error}") \
            from error
    if not isinstance(message, dict):
        raise FrameError(
            "malformed",
            f"request must be a JSON object, not {type(message).__name__}",
        )
    return message


# ---------------------------------------------------------------------------
# Blocking side (clients)
# ---------------------------------------------------------------------------


def connect(
    address,
    *,
    connect_timeout: float,
    timeout: float,
) -> socket.socket:
    """Dial *address* over TCP and return a connected socket.

    *address* is a ``(host, port)`` tuple or an object with an
    ``address`` attribute (a :class:`~repro.cluster.hosts.HostSpec`).
    The connect itself is bounded by *connect_timeout*; subsequent I/O
    by *timeout*.
    """
    sock = socket.create_connection(
        getattr(address, "address", address), timeout=connect_timeout
    )
    sock.settimeout(timeout)
    return sock


def send_frame(sock: socket.socket, message: dict) -> None:
    sock.sendall(encode_frame(message))


def recv_frame(sock: socket.socket, limit: int = STREAM_LIMIT) -> dict:
    """Read one newline-terminated response object.

    Raises :class:`FrameError` with kind ``closed`` (EOF before any
    byte — the retriable "server restarted under us" case),
    ``truncated`` (EOF mid-line) or ``oversized`` (response exceeds
    *limit*); JSON errors surface as ``malformed``.
    """
    chunks: list[bytes] = []
    total = 0
    while True:
        chunk = sock.recv(1 << 20)
        if not chunk:
            if total == 0:
                raise FrameError(
                    "closed", "connection closed before any response byte"
                )
            raise FrameError(
                "truncated",
                f"connection closed mid-response after {total} byte(s)",
            )
        chunks.append(chunk)
        total += len(chunk)
        if total > limit:
            raise FrameError(
                "oversized",
                f"response exceeds the stream limit ({total} byte(s) "
                f"received, cap {limit})",
            )
        if chunk.endswith(b"\n"):
            break
    return decode_frame(b"".join(chunks).decode("utf-8"))
