"""``repro serve`` — a cluster host: shard JSON in, digest-verified payload out.

A deliberately small service speaking the newline-JSON protocol of
:mod:`repro.cluster.framing` — one request per connection, one response
back — on one TCP endpoint (``--tcp HOST:PORT``).  Oversized, truncated
and malformed requests each get a structured ``ok: false`` answer and
the server keeps serving.

Operations::

    {"op": "hello"}
        -> {"ok": true, "hello": {protocol, workload_version}}

    {"op": "shard", "shard": <ShardSpec.to_dict()>, "fault": <optional>}
        -> {"ok": true, "result": <ShardResult.to_dict()>}

    anything else (no op included) -> {"ok": false, "error": "<reason>", ...}

The shard op is what a cluster coordinator's
:class:`~repro.cluster.dispatch.RemoteDispatcher` sends (``repro sweep
--hosts``): the shard runs on *this host's own* engine and store (the
work order's embedded store path is coordinator-local and deliberately
ignored) with the result lake off, and honours the coordinator's
injected fault exactly like a forked worker would — ``crash`` really
kills the whole server process, which is what makes the real-host
failover test in ``tests/test_cluster.py`` honest.
"""

from __future__ import annotations

import asyncio
import os

from repro.cluster import framing
from repro.cluster.framing import STREAM_LIMIT, FrameError
from repro.cluster.hosts import local_capabilities
from repro.obs.runtime import obs_tracer
from repro.service.shards import ShardSpec
from repro.service.worker import HANG_SLEEP_SECONDS, execute_shard


class SweepServer:
    """Serve hello/shard requests on one TCP listener."""

    def __init__(
        self,
        tcp: tuple[str, int],
        *,
        stream_limit: int = STREAM_LIMIT,
    ) -> None:
        #: ``(host, port)`` to listen on; port 0 binds an ephemeral port
        #: (the real one lands in :attr:`bound_address` once serving).
        self.tcp = tcp
        #: Injectable for tests: a tiny limit makes the oversized path
        #: reachable without shipping 64 MiB.
        self.stream_limit = stream_limit
        self.requests_served = 0
        #: The TCP listener's actual ``(host, port)`` once bound.
        self.bound_address: tuple[str, int] | None = None
        self._once_done: asyncio.Event | None = None
        self._started: asyncio.Event | None = None
        #: Shard execution is serialised per server process: the lazily
        #: built host engine (below) is not safe for concurrent threads,
        #: and one-shard-at-a-time mirrors one-core-per-host anyway.
        self._shard_lock: asyncio.Lock | None = None
        self._engine = None
        #: In-flight connection handlers, cancelled and reaped at shutdown.
        self._handlers: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # The host-local engine (shard op)
    # ------------------------------------------------------------------

    def _host_engine(self):
        """This host's own engine — its environment's store, not the
        coordinator's: the embedded work-order store path is only
        meaningful on the coordinator's filesystem, and shards are
        benchmark-aligned so each host interprets a trace at most once
        either way.  The coordinator owns the lake, so it is off here."""
        if self._engine is None:
            from repro.harness.sweep import SweepEngine

            self._engine = SweepEngine()
        return self._engine

    # ------------------------------------------------------------------
    # Request handling
    # ------------------------------------------------------------------

    async def _respond(self, request: dict, serial: int) -> dict:
        tracer = obs_tracer()
        op = request.get("op")
        if op == "hello":
            tracer.event("serve.hello", serial=serial)
            return {"ok": True, "hello": local_capabilities()}
        if op == "shard":
            return await self._respond_shard(request, serial)
        return {
            "ok": False,
            "error": f"unknown op {op!r} (this build speaks: hello, shard)",
        }

    async def _respond_shard(self, request: dict, serial: int) -> dict:
        """One remote shard attempt, with the worker fault plane.

        Fault semantics match :func:`~repro.service.worker
        .shard_process_main`, scaled up from worker to host: ``crash``
        kills this entire server process (the coordinator sees the
        connection die — real host-death), ``hang`` parks the request
        past any deadline (cancellable, so a test server shuts down
        cleanly), ``corrupt``/``tamper`` mangle the payload under a
        stale digest so the *coordinator's* load check must reject it.
        """
        tracer = obs_tracer()
        fault = request.get("fault")
        if fault == "crash":
            os._exit(13)
        if fault == "hang":
            await asyncio.sleep(HANG_SLEEP_SECONDS)
        try:
            shard = ShardSpec.from_dict(request["shard"])
        except Exception as error:  # noqa: BLE001 - protocol boundary
            return {
                "ok": False,
                "error": f"undecodable shard work order: "
                f"{type(error).__name__}: {error}",
            }
        if self._shard_lock is None:
            self._shard_lock = asyncio.Lock()
        # Handlers interleave, so the span uses the explicit begin/end
        # API (a stack-based span would mis-parent across requests).
        span = tracer.begin(
            "serve.shard", serial=serial, shard=shard.index,
            cells=len(shard.cells),
        )
        try:
            async with self._shard_lock:
                result = await asyncio.to_thread(
                    execute_shard, shard, self._host_engine()
                )
        except Exception as error:  # noqa: BLE001 - protocol boundary
            tracer.end(span, "serve.shard", serial=serial, status="failed")
            return {
                "ok": False,
                "error": f"shard execution failed: "
                f"{type(error).__name__}: {error}",
            }
        tracer.end(span, "serve.shard", serial=serial, status="ok")
        payload = result.to_dict()
        if fault == "corrupt":
            # Drop a cell under the already-recorded digest: the
            # coordinator's ShardResult.from_dict must reject it.
            payload["cells"] = payload["cells"][:-1]
        elif fault == "tamper":
            stats = payload["cells"][0]["stats"]
            stats["committed"] = int(stats.get("committed", 0)) + 1
        return {"ok": True, "result": payload}

    def _accept(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Handle the connection in a task this server owns and shutdown
        reaps: Python 3.11 logs a cancelled stream-owned task as an error."""
        task = asyncio.ensure_future(self._handle(reader, writer))
        self._handlers.add(task)
        task.add_done_callback(self._handlers.discard)

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One connection: read a frame, answer it, close.

        Every framing failure — oversized, truncated, malformed — is
        answered with a structured ``ok: false`` carrying the error
        kind, and only this connection ends: the listener (and any
        concurrent request) keeps serving.
        """
        tracer = obs_tracer()
        serial = self.requests_served + 1
        try:
            response: dict | None = None
            try:
                line = await framing.read_frame(reader)
                if line:
                    tracer.event(
                        "serve.request", serial=serial, bytes=len(line)
                    )
                    request = framing.decode_frame(line)
                    response = await self._respond(request, serial)
            except FrameError as error:
                tracer.event(
                    "serve.request.rejected", serial=serial, kind=error.kind
                )
                response = {
                    "ok": False, "kind": error.kind,
                    "error": f"unacceptable request ({error.kind}): {error}",
                }
            if response is not None:
                # Counted before the write so a client that has its
                # response in hand always observes the updated counter.
                self.requests_served += 1
                try:
                    await framing.write_frame(writer, response)
                except OSError:  # pragma: no cover - client went away
                    pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except OSError:  # pragma: no cover - client went away first
                pass
            if self._once_done is not None:
                self._once_done.set()

    # ------------------------------------------------------------------

    async def wait_started(self) -> None:
        """Block until the listener is bound (``bound_address`` is
        populated); for callers driving :meth:`serve` as a task."""
        if self._started is None:
            self._started = asyncio.Event()
        await self._started.wait()

    async def serve(self, once: bool = False) -> None:
        """Bind and serve; with *once*, exit after the first request."""
        if self._started is None:
            self._started = asyncio.Event()
        self._once_done = asyncio.Event() if once else None
        host, port = self.tcp
        server = await asyncio.start_server(
            self._accept, host=host, port=port, limit=self.stream_limit,
        )
        try:
            self.bound_address = server.sockets[0].getsockname()[:2]
            self._started.set()
            if self._once_done is not None:
                await self._once_done.wait()
            else:
                await server.serve_forever()
        finally:
            server.close()
            for task in self._handlers:
                task.cancel()
            await asyncio.gather(*self._handlers, return_exceptions=True)
            await server.wait_closed()
