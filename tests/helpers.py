"""Shared helpers for the test suites (no fixtures, plain imports)."""

from __future__ import annotations

import asyncio
import dataclasses
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def stats_dict(stats) -> dict:
    """Stats as a plain dict (without the free-form extras).

    The canonical bit-for-bit comparison form used by the golden,
    oracle, store, sampling and sweep suites alike.
    """
    data = dataclasses.asdict(stats)
    data.pop("extra")
    return data


#: Every field a ``DynInst`` row carries (static + dynamic + derived).
DYN_FIELDS = [
    "seq", "pc", "opcode", "fu", "latency", "pipelined", "dest", "src1",
    "src2", "result", "addr", "is_load", "is_store", "is_branch",
    "is_conditional", "is_call", "is_return", "taken", "target_pc",
    "zero_idiom", "move", "line", "eligible",
]


def reference_row(trace, index: int):
    """Row *index* of *trace*, built by ``DynInst.__init__`` from its
    columns: the independent reference ``ColumnarTrace.row`` must equal
    field for field (it derives the static fields from its own tables)."""
    from repro.isa.instruction import DynInst
    from repro.isa.opcodes import Opcode
    from repro.workloads.columnar import MOVE, TAKEN, ZERO_IDIOM

    flag = trace.flags[index]
    return DynInst(
        seq=index, pc=trace.pcs[index], opcode=Opcode(trace.opcodes[index]),
        dest=trace.dests[index], src1=trace.src1s[index],
        src2=trace.src2s[index], result=trace.results[index],
        addr=trace.addrs[index], taken=flag & TAKEN != 0,
        target_pc=trace.targets[index], zero_idiom=flag & ZERO_IDIOM != 0,
        move=flag & MOVE != 0,
    )


def assert_rows_equal(expected, actual) -> None:
    for field_name in DYN_FIELDS:
        assert getattr(actual, field_name) == getattr(
            expected, field_name
        ), (expected.seq, field_name)


def event_records(directory) -> list[dict]:
    """Every record of every obs event stream in *directory*."""
    from pathlib import Path

    from repro.obs import read_events

    return [
        record for path in sorted(Path(directory).glob("events-*.jsonl"))
        for record in read_events(path)[0]
    ]


class ServerThread:
    """A ``SweepServer`` on 127.0.0.1, port 0, on a background thread."""

    def __init__(self, stream_limit: int | None = None):
        from repro.cluster.framing import STREAM_LIMIT
        from repro.service.server import SweepServer

        self.server = SweepServer(
            ("127.0.0.1", 0), stream_limit=stream_limit or STREAM_LIMIT,
        )
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.serve())
        except asyncio.CancelledError:
            pass
        finally:
            self.loop.close()

    def __enter__(self):
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while self.server.bound_address is None:
            if time.monotonic() > deadline:
                raise RuntimeError("server never bound its listener")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc_info):
        def cancel_all():
            for task in asyncio.all_tasks(self.loop):
                task.cancel()
        self.loop.call_soon_threadsafe(cancel_all)
        self.thread.join(timeout=10.0)

    @property
    def address(self) -> tuple[str, int]:
        return self.server.bound_address

    @property
    def host_list(self) -> str:
        host, port = self.address
        return f"{host}:{port}"

    def shard(self, shard, fault: str | None = None) -> dict:
        """One ``shard`` op round trip; returns the raw reply."""
        from repro.cluster import client

        message = {"op": "shard", "shard": shard.to_dict()}
        if fault is not None:
            message["fault"] = fault
        return client.call(self.address, message, timeout=60.0)


#: How ``repro serve`` announces the port it bound.
_ANNOUNCE = re.compile(r"tcp=([0-9.]+):(\d+)")
#: Seconds a spawned host may take to announce its port.
_ANNOUNCE_DEADLINE = 30.0


def spawn_host(**extra_env: str) -> tuple[subprocess.Popen, str]:
    """One ``repro serve --tcp 127.0.0.1:0`` child process.

    It runs this checkout's sources with no ambient ``REPRO_*`` state,
    no trace store and *extra_env* (e.g. ``REPRO_OBS="1"``), with its
    stderr merged into ``process.stdout``.  Returns ``(process,
    "host:port")`` once the child announces its ephemeral port
    (``RuntimeError`` if it has not within ``_ANNOUNCE_DEADLINE``);
    stop it with :func:`stop_host`.
    """
    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_TRACE_STORE"] = "off"
    env.update(extra_env)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    # A child still silent at the deadline is killed, which ends the
    # read below with EOF.
    deadline = threading.Timer(_ANNOUNCE_DEADLINE, process.kill)
    deadline.start()
    try:
        for line in process.stdout:
            match = _ANNOUNCE.search(line)
            if match:
                return process, f"{match.group(1)}:{match.group(2)}"
    finally:
        deadline.cancel()
    stop_host(process)
    raise RuntimeError(
        f"repro serve never announced its port (exit {process.returncode})"
    )


def stop_host(process: subprocess.Popen) -> None:
    """Terminate a :func:`spawn_host` child (if still alive) and reap it."""
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(timeout=10.0)
    process.stdout.close()
