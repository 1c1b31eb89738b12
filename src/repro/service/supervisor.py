"""The async shard supervisor: the service's robustness core.

The supervisor is the coordinator and owns the cell caches: it looks
every cell up in the calling session's engine — memo, then result lake
— before planning, shards only the misses, and files every
shard-simulated cell into that memo and lake after the merge.  Workers
and hosts only simulate.

Planned shards go into an :class:`asyncio.Queue`; a bounded set of slot
coroutines drains it, each attempt running through the supervisor's
dispatcher — :class:`~repro.service.worker.ForkDispatcher` (one forked
worker process per attempt, the default) or
:class:`~repro.cluster.dispatch.RemoteDispatcher` (pooled remote hosts).
A dispatcher owns its deadline and answers every attempt with a verified
:class:`~repro.service.shards.ShardResult`, a ``(kind, reason)``
failure, or ``None`` when it has nothing to run the attempt on; the
supervisor owns what happens next:

* **retriable failure** (worker or host death, hang past the deadline,
  corrupt / tampered / foreign artifact) — the shard is re-enqueued
  with exponential backoff and picked up by any free slot:
  reassignment, not restart-the-world;
* **poison shard** (attempt budget exhausted) — quarantined: its cells
  become explicit holes in the merged result instead of aborting the
  sweep;
* **no executor** (no process can be forked, no host is healthy) — the
  shard runs inline on the session's engine, one shard at a time;
* **nothing to split** (``shards <= 1``, fewer than two misses) — the
  in-process path on the calling session, same artifact.

Because every cell is deterministic and every artifact digest-verified,
a merged sharded run — even one that crashed, hung and corrupted its way
through retries — is bit-identical to an unfaulted in-process run;
``tests/test_service.py`` (forked workers) and ``tests/test_cluster.py``
(hosts, real ``repro serve`` processes included) pin exactly that.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.api import env as api_env
from repro.api.result import CellResult, RunResult
from repro.api.spec import ExperimentSpec
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import obs_tracer
from repro.pipeline.config import CoreConfig
from repro.pipeline.simulator import SimulationResult
from repro.service.faults import FaultPlan
from repro.service.shards import (
    CellId,
    CellRef,
    ShardResult,
    ShardSpec,
    canonical_cells,
    cell_id,
    merge_shards,
    plan_shards,
)
from repro.service.worker import ForkDispatcher, execute_shard


@dataclass
class ShardReport:
    """One shard's attempt summary: why it retried, for how long.

    The retry/quarantine story used to live only in the supervisor's
    event log; this summary travels inside the merged result, so a hole
    is explainable (`which kinds of failure, how much backoff, was it
    quarantined`) without the event stream.
    """

    attempts: int = 0
    failure_kinds: tuple[str, ...] = ()
    backoff_seconds: float = 0.0
    quarantined: bool = False

    def to_dict(self) -> dict:
        """The artifact telemetry section's per-shard entry."""
        return {
            "attempts": self.attempts,
            "failure_kinds": list(self.failure_kinds),
            "backoff_seconds": round(self.backoff_seconds, 4),
            "quarantined": self.quarantined,
        }


@dataclass
class ShardedSweepResult:
    """What a sharded sweep returns: the artifact plus its fault story.

    ``result`` carries every cell that completed; ``holes`` explicitly
    enumerates the (benchmark, mechanism, seed) cells lost to
    quarantined shards — an incomplete sweep is a *partial result*, not
    an exception.  ``attempts`` and ``failures`` are the audit trail;
    ``shard_reports`` is its per-shard digest (attempts, failure kinds,
    total backoff, quarantine verdict).
    """

    result: RunResult
    holes: tuple[CellId, ...] = ()
    quarantined: tuple[int, ...] = ()
    attempts: dict[int, int] = field(default_factory=dict)
    failures: tuple[str, ...] = ()
    mode: str = "sharded"
    shard_reports: dict[int, ShardReport] = field(default_factory=dict)
    #: Cluster runs only: per-host status/dispatch summary keyed by host
    #: label (``repro.cluster.pool.HostPool.report``); empty otherwise.
    host_reports: dict[str, dict] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return not self.holes

    def digest(self) -> str:
        return self.result.digest()


class ShardSupervisor:
    """Fans shards out through a dispatcher and survives their failures."""

    def __init__(
        self,
        *,
        max_attempts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        faults: FaultPlan | str | None = None,
        dispatcher=None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        if faults is None:
            faults = FaultPlan.parse(api_env.faults_from_env())
        elif isinstance(faults, str):
            faults = FaultPlan.parse(faults)
        self.faults = faults
        #: Execution backend for attempts: forked worker processes unless
        #: a :class:`~repro.cluster.dispatch.RemoteDispatcher` routes them
        #: to pooled hosts — the retry/reassignment/quarantine ladder is
        #: the same either way.
        self.dispatcher = dispatcher or ForkDispatcher()

    # ------------------------------------------------------------------

    def run(
        self, spec: ExperimentSpec, shards: int | None = None, session=None
    ) -> ShardedSweepResult:
        """Execute *spec* on *session* (``Session.for_spec(spec)`` when
        not given), sharding only the cells its memo and lake miss; the
        spec's ``ObsSpec`` is active throughout, so workers inherit it.
        """
        if session is None:
            from repro.api.session import Session

            session = Session.for_spec(spec)
        count = spec.shards if shards is None else shards
        # Workers and hosts simulate the default core; a session on any
        # other core must not file their cells as its own.
        if count <= 1 or session.simulator.core_config != CoreConfig():
            return ShardedSweepResult(
                result=session.run(spec), mode="in-process"
            )
        with obs_runtime.activated(spec.obs):
            return self._run_misses(spec, count, session.engine)

    # ------------------------------------------------------------------

    def _run_misses(
        self, spec: ExperimentSpec, count: int, engine
    ) -> ShardedSweepResult:
        """Serve the cells *engine* holds, shard the misses, file them."""
        refs = canonical_cells(spec)
        served = {ref: engine.lookup(*_cell_args(spec, ref)) for ref in refs}
        missing = [ref for ref in refs if served[ref] is None]
        if len(missing) < 2:
            for ref in missing:
                served[ref] = engine.run_cell(*_cell_args(spec, ref))
            result = RunResult(
                spec=spec, cells=[_cell(served[ref]) for ref in refs]
            )
            runtime = obs_runtime.current()
            if runtime is not None:
                result.telemetry = runtime.telemetry_payload()
            return ShardedSweepResult(result=result, mode="in-process")
        outcome = asyncio.run(self._fan_out(
            spec, plan_shards(spec, count, missing), engine,
            [_cell(hit) for hit in served.values() if hit is not None],
        ))
        simulated = {cell_id(spec, ref): ref for ref in missing}
        for cell in outcome.result.cells:
            ref = simulated.get((cell.benchmark, cell.mechanism, cell.seed))
            if ref is not None:
                engine.record(
                    cell, spec.mechanisms[ref[1]], spec.window.warmup,
                    spec.window.measure, spec.sampling,
                )
        return outcome

    async def _inline(
        self, shard: ShardSpec, engine, lock: asyncio.Lock
    ) -> ShardResult | tuple[str, str]:
        """Run *shard* on the coordinator's *engine*, one shard at a
        time and fault-free: the dispatcher had nothing to run it on."""
        async with lock:
            obs_tracer().event(
                "shard.inline", shard=shard.index, mode=self.dispatcher.mode
            )
            try:
                return await asyncio.to_thread(execute_shard, shard, engine)
            except Exception as error:  # noqa: BLE001 - retry ladder
                return ("spawn", f"inline execution failed: {error}")

    async def _fan_out(
        self, spec: ExperimentSpec, shard_specs: list[ShardSpec], engine,
        served: list[CellResult],
    ) -> ShardedSweepResult:
        """Run *shard_specs* out and merge them with the *served* cells."""
        results: dict[int, ShardResult] = {}
        attempts: dict[int, int] = {s.index: 0 for s in shard_specs}
        reports: dict[int, ShardReport] = {
            s.index: ShardReport() for s in shard_specs
        }
        failures: list[str] = []
        quarantined: list[int] = []
        queue: asyncio.Queue = asyncio.Queue()
        for shard in shard_specs:
            queue.put_nowait((shard, 0))
        slots = min(len(shard_specs), self.dispatcher.width)
        outstanding = len(shard_specs)
        inline_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        # Slot coroutines interleave, so spans use the explicit
        # begin/end API (a thread-nested stack would mis-parent them).
        tracer = obs_tracer()
        tracer.event(
            "shard.plan", shards=len(shard_specs),
            cells=sum(len(shard.cells) for shard in shard_specs),
            served=len(served), fingerprint=spec.fingerprint(),
        )

        def finish_one() -> None:
            nonlocal outstanding
            outstanding -= 1
            if outstanding == 0:
                for _ in range(slots):
                    queue.put_nowait(None)

        async def slot() -> None:
            while True:
                item = await queue.get()
                if item is None:
                    return
                shard, attempt = item
                attempts[shard.index] = attempt + 1
                report = reports[shard.index]
                report.attempts = attempt + 1
                tracer.event(
                    "shard.dispatch", shard=shard.index, attempt=attempt + 1,
                    cells=len(shard.cell_ids()),
                )
                span = tracer.begin(
                    "shard.attempt", shard=shard.index, attempt=attempt + 1
                )
                outcome = await self.dispatcher.attempt(
                    shard, attempt, self.faults.fault_for(shard.index, attempt)
                )
                if outcome is None:
                    outcome = await self._inline(shard, engine, inline_lock)
                if isinstance(outcome, ShardResult):
                    tracer.end(span, "shard.attempt",
                               shard=shard.index, status="ok")
                    results[shard.index] = outcome
                    finish_one()
                    continue
                kind, reason = outcome
                tracer.end(span, "shard.attempt",
                           shard=shard.index, status="failed", kind=kind)
                report.failure_kinds = report.failure_kinds + (kind,)
                failures.append(
                    f"shard {shard.index} attempt {attempt + 1}/"
                    f"{self.max_attempts}: {reason}"
                )
                if attempt + 1 >= self.max_attempts:
                    report.quarantined = True
                    tracer.event(
                        "shard.quarantine", shard=shard.index,
                        attempts=attempt + 1, kind=kind,
                    )
                    quarantined.append(shard.index)
                    finish_one()
                    continue
                # Exponential backoff, scheduled off-slot so this slot
                # is immediately free for other shards.
                delay = min(
                    self.backoff_cap, self.backoff_base * (2 ** attempt)
                )
                report.backoff_seconds += delay
                tracer.event(
                    "shard.retry", shard=shard.index,
                    next_attempt=attempt + 2, backoff=round(delay, 4),
                    kind=kind,
                )
                loop.call_later(
                    delay, queue.put_nowait, (shard, attempt + 1)
                )

        await asyncio.gather(*(slot() for _ in range(slots)))
        with tracer.span(
            "shard.merge", shards=len(results),
            holes_expected=len(quarantined), mode=self.dispatcher.mode,
        ):
            merged, holes = merge_shards(
                spec, [results[index] for index in sorted(results)], served
            )
        runtime = obs_runtime.current()
        if runtime is not None:
            merged.telemetry = runtime.telemetry_payload(
                extra={
                    "shards": {
                        str(index): report.to_dict()
                        for index, report in sorted(reports.items())
                    }
                }
            )
        return ShardedSweepResult(
            result=merged,
            holes=holes,
            quarantined=tuple(sorted(quarantined)),
            attempts=attempts,
            failures=tuple(failures),
            mode=self.dispatcher.mode,
            shard_reports=reports,
        )


def _cell_args(spec: ExperimentSpec, ref: CellRef) -> tuple:
    """``SweepEngine.lookup``/``run_cell`` arguments of one grid cell."""
    benchmark, mech_index, seed = ref
    return (benchmark, spec.mechanisms[mech_index], seed,
            spec.window.warmup, spec.window.measure, spec.sampling)


def _cell(result: SimulationResult) -> CellResult:
    return CellResult(
        result.benchmark, result.mechanism, result.seed, result.stats
    )
