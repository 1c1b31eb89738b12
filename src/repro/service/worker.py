"""Shard execution: the worker process and the dispatcher that forks it.

A worker receives one serialised :class:`~repro.service.shards.ShardSpec`
and must produce exactly one artifact file: the shard's
:class:`~repro.service.shards.ShardResult` JSON, written crash-safely
(temp file + ``os.replace``), so the dispatcher either finds a complete
artifact or none at all — never a torn one.  Beside it the worker
appends one byte per finished cell to a progress file, the liveness
signal the dispatcher's deadline restarts on.  Everything the worker needs
travels in the payload (spec, cells, fault injection); it reads no
``REPRO_*`` state of its own, so a shard computes identically no matter
which process — or attempt — runs it.  A worker only simulates: the
coordinator serves and files the lake (DESIGN.md §11).

:func:`execute_shard` is the fault-free core, also run by ``repro
serve`` hosts and by the supervisor's inline fallback;
:func:`shard_process_main` is the ``multiprocessing.Process`` target
that wraps it with the deterministic fault plane (crash / hang /
corrupt / tamper); :class:`ForkDispatcher` runs one such process per
attempt for the :class:`~repro.service.supervisor.ShardSupervisor`.
"""

from __future__ import annotations

import asyncio
import json
import multiprocessing
import os
import tempfile
import time
from dataclasses import replace
from pathlib import Path

from repro.api import env as api_env
from repro.api.result import CellResult
from repro.common.atomicio import atomic_write_text
from repro.obs.runtime import obs_tracer
from repro.service.shards import ShardResult, ShardSpec, validate_shard_result

#: How long a ``hang``-faulted worker sleeps — far past any sane
#: deadline, so the dispatcher's kill path is what ends it.
HANG_SLEEP_SECONDS = 3600.0

#: How often a forked attempt's progress is checked against its deadline.
POLL_SECONDS = 0.01


def execute_shard(
    shard: ShardSpec, engine=None, on_cell=None
) -> ShardResult:
    """Simulate every cell of *shard* and return its result.

    With no *engine* (a forked worker), a private one is built on the
    shard spec's trace store — shared on disk, so even a cold sharded
    sweep interprets each trace once per machine — with the lake off.
    *on_cell*, when given, is called with each :class:`CellResult` as it
    finishes; a forked worker uses it to report progress.
    """
    if engine is None:
        from repro.api.session import Session

        engine = Session(
            store=replace(shard.spec.store, result_lake=False)
        ).engine
    spec = shard.spec
    cells = []
    for benchmark, mech_index, seed in shard.cells:
        mechanism = spec.mechanisms[mech_index]
        cell = CellResult(
            benchmark,
            mechanism.name,
            seed,
            engine.run_cell(
                benchmark,
                mechanism,
                seed=seed,
                warmup=spec.window.warmup,
                measure=spec.window.measure,
                sampling=spec.sampling,
            ).stats,
        )
        cells.append(cell)
        if on_cell is not None:
            on_cell(cell)
    return ShardResult(
        index=shard.index, fingerprint=shard.fingerprint, cells=cells
    )


def _tampered(text: str) -> str:
    """A well-formed copy of *text* whose first cell's stats were edited
    (the recorded digest is left stale, so loading must reject it)."""
    payload = json.loads(text)
    stats = payload["cells"][0]["stats"]
    stats["committed"] = int(stats.get("committed", 0)) + 1
    return json.dumps(payload, sort_keys=True)


def shard_process_main(
    payload_text: str, out_path: str, fault: str | None,
    progress_path: str | None = None,
) -> None:
    """Process target: run the shard, honouring an injected *fault*.

    With a *progress_path*, one byte is appended to that file per
    finished cell: the liveness signal :class:`ForkDispatcher` restarts
    its deadline on.

    * ``crash``  — die immediately (``os._exit``), as an OOM-killed or
      segfaulted worker would: no artifact, non-zero exit code.
    * ``hang``   — sleep far past any deadline; the dispatcher kills us.
    * ``corrupt``— compute, then write a truncated artifact (complete
      file, torn payload — the parse/digest check must reject it).
    * ``tamper`` — compute, then write well-formed JSON whose stats were
      altered under a stale digest (the digest check must reject it).
    """
    if fault == "crash":
        os._exit(13)
    if fault == "hang":
        time.sleep(HANG_SLEEP_SECONDS)
        os._exit(14)  # pragma: no cover - the dispatcher kills us first
    shard = ShardSpec.from_json(payload_text)

    def report(cell: CellResult) -> None:
        with open(progress_path, "ab") as progress:
            progress.write(b".")

    # The worker inherits the installed obs runtime across the fork
    # and, thanks to the tracer's ``{pid}`` path template, appends to
    # its *own* event file — no cross-process interleaving.
    with obs_tracer().span(
        "worker.shard", shard=shard.index, cells=len(shard.cells)
    ):
        text = execute_shard(
            shard, on_cell=report if progress_path else None
        ).to_json()
    if fault == "corrupt":
        text = text[: len(text) // 2]
    elif fault == "tamper":
        text = _tampered(text)
    atomic_write_text(out_path, text)


class ForkDispatcher:
    """Executes shard attempts in forked worker processes for a supervisor.

    One process per attempt, so one shard's death can never take another
    shard's state with it.  The worker's only outputs are its artifact
    and a progress file (one byte per finished cell) in a temporary spool
    private to the attempt; the artifact is verified here exactly as
    :class:`~repro.cluster.dispatch.RemoteDispatcher` verifies a host's
    reply.  The deadline is a liveness deadline: it restarts whenever the
    worker reports a finished cell, so a long shard of healthy cells
    never times out.  Failures classify onto the supervisor's retry
    ladder: a worker that goes a whole deadline without finishing a cell
    is killed (**hang**), a non-zero exit is a **death**, a clean exit
    without an artifact is **no-artifact**, and an artifact failing the
    digest, fingerprint or cell-set checks is **corrupt** / **foreign**.
    When no process can be spawned at all, the attempt answers ``None``
    and the supervisor runs the shard inline.
    """

    #: What the supervisor labels results produced through us.
    mode = "sharded"

    def __init__(self, *, deadline: float | None = None) -> None:
        #: Seconds a worker may go without finishing a cell
        #: (``REPRO_SHARD_TIMEOUT`` when not given).
        self.deadline = (
            api_env.shard_timeout_from_env() if deadline is None
            else deadline
        )

    @property
    def width(self) -> int:
        """Concurrent supervisor slots worth running: one per core, at
        least two so a retry can overlap a healthy worker's shard."""
        return max(2, os.cpu_count() or 1)

    async def attempt(
        self, shard: ShardSpec, attempt: int, fault: str | None
    ) -> ShardResult | tuple[str, str] | None:
        """One attempt at one shard in a fresh worker process.

        A :class:`ShardResult` on success, a ``(kind, reason)`` tuple on
        a retriable failure, ``None`` when no worker process can be
        started; *fault* is injected in the worker.
        """
        with tempfile.TemporaryDirectory(prefix="repro-shard-") as spool:
            out_path = Path(spool) / "shard.json"
            progress = Path(spool) / "progress"
            process = multiprocessing.Process(
                target=shard_process_main,
                args=(shard.to_json(), str(out_path), fault, str(progress)),
                daemon=True,
            )
            try:
                process.start()
            except OSError:
                return None
            if not await self._live_until_exit(process, progress):
                process.terminate()
                process.join(timeout=5.0)
                if process.is_alive():  # pragma: no cover - SIGTERM sufficed
                    process.kill()
                    process.join(timeout=5.0)
                return (
                    "hang",
                    f"deadline exceeded (no cell finished in "
                    f"{self.deadline:g}s); worker killed",
                )
            process.join()
            if process.exitcode != 0:
                return (
                    "death", f"worker died (exit code {process.exitcode})"
                )
            try:
                text = out_path.read_text(encoding="utf-8")
            except OSError as error:
                return (
                    "no-artifact",
                    f"worker exited cleanly but left no artifact ({error})",
                )
        try:
            result = ShardResult.from_json(text)
        except (ValueError, KeyError, TypeError) as error:
            return ("corrupt", f"shard artifact rejected: {error}")
        return validate_shard_result(shard, result) or result

    async def _live_until_exit(self, process, progress: Path) -> bool:
        """Wait for *process* to exit, restarting the deadline on every
        cell it reports; ``False`` once a whole deadline passes without
        one (the process is still running then)."""
        loop = asyncio.get_running_loop()
        reported = 0
        deadline_at = loop.time() + self.deadline
        while process.is_alive():
            try:
                cells = progress.stat().st_size
            except FileNotFoundError:
                cells = 0
            if cells > reported:
                reported, deadline_at = cells, loop.time() + self.deadline
            elif loop.time() >= deadline_at:
                return False
            await asyncio.sleep(POLL_SECONDS)
        return True
