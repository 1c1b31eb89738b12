"""Blocking protocol client: dial, one request, one response, retry.

:func:`call` is the transport every synchronous client shares — the
host pool's handshake ping and the remote dispatcher's shard submission.
It owns the failure policy:

* **connect timeout** — dialing is bounded separately from request I/O
  (``REPRO_CONNECT_TIMEOUT``); a host that cannot even accept within it
  is unreachable, not slow;
* **bounded retry** — ``ECONNREFUSED`` / a reset / EOF before any
  response byte are what a racing server restart looks like, so they
  retry with exponential backoff up to *retries* times instead of
  failing the whole attempt.  Timeouts and mid-response truncation
  never retry here: the caller (supervisor/dispatcher) owns those
  policies per shard.
"""

from __future__ import annotations

import time

from repro.api import env as api_env
from repro.cluster import framing
from repro.cluster.framing import FrameError

#: Failure classes a racing server restart produces; safe to redial.
_RETRIABLE_OS = (ConnectionRefusedError, ConnectionResetError)


def call(
    address,
    message: dict,
    *,
    timeout: float = 600.0,
    connect_timeout: float | None = None,
    retries: int = 0,
    backoff: float = 0.05,
    backoff_cap: float = 1.0,
) -> dict:
    """Send *message* to *address* and return the decoded response.

    *address* is anything :func:`repro.cluster.framing.connect` accepts
    (``(host, port)`` or a :class:`HostSpec`).  Raises
    ``OSError``/``TimeoutError`` when the server is unreachable and
    :class:`FrameError` when the response cannot be framed; with
    ``retries > 0``, connection-refused and EOF-before-response redial
    with exponential backoff first.
    """
    if connect_timeout is None:
        connect_timeout = api_env.connect_timeout_from_env()
    attempt = 0
    while True:
        try:
            sock = framing.connect(
                address, connect_timeout=connect_timeout, timeout=timeout
            )
            try:
                framing.send_frame(sock, message)
                return framing.recv_frame(sock)
            finally:
                sock.close()
        except _RETRIABLE_OS:
            if attempt >= retries:
                raise
        except FrameError as error:
            if error.kind != "closed" or attempt >= retries:
                raise
        time.sleep(min(backoff_cap, backoff * (2 ** attempt)))
        attempt += 1


def hello(
    address,
    *,
    timeout: float = 30.0,
    connect_timeout: float | None = None,
) -> dict:
    """The handshake ping: the host's capability object.

    Raises :class:`FrameError` when the host answers ``ok: false`` or
    without a ``hello`` section (it speaks *something*, but not this
    protocol).
    """
    reply = call(
        address, {"op": "hello"},
        timeout=timeout, connect_timeout=connect_timeout,
    )
    if not reply.get("ok") or not isinstance(reply.get("hello"), dict):
        raise FrameError(
            "malformed",
            f"handshake rejected: {reply.get('error', 'no hello section')}",
        )
    return reply["hello"]


def submit_shard(
    address,
    shard_payload: dict,
    *,
    fault: str | None = None,
    timeout: float = 600.0,
    connect_timeout: float | None = None,
) -> dict:
    """Submit one serialised shard work order; the raw response comes
    back for the dispatcher to verify (digest, fingerprint, cell set).

    *fault* rides along for the deterministic fault plane — the remote
    worker honours it exactly like a forked worker would, which is what
    lets a test crash a real ``repro serve`` process on purpose.
    """
    message: dict = {"op": "shard", "shard": shard_payload}
    if fault is not None:
        message["fault"] = fault
    return call(
        address, message, timeout=timeout, connect_timeout=connect_timeout,
    )
