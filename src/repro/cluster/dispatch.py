"""Remote shard dispatch: the supervisor's cluster execution backend.

:class:`RemoteDispatcher` slots into
:class:`~repro.service.supervisor.ShardSupervisor` in place of
:class:`~repro.service.worker.ForkDispatcher`'s forked workers: each
attempt ships the shard's work order to a pooled host over the wire
protocol and verifies what comes back exactly as a forked worker's
spool file is verified (digest on load, then
:func:`~repro.service.shards.validate_shard_result`).  Because the
``ShardSpec``/``ShardResult`` JSON contract is unchanged, every
supervisor robustness property — per-shard deadlines, backoff retry,
reassignment, quarantine, the digest-verified merge — transfers to the
cluster without new code.  Failures classify onto the same ladder:

* **hang** — no response within the shard deadline (the host may be
  alive but stuck; it is *not* marked dead on a timeout alone);
* **host-death** — connection refused/reset or EOF: the host is marked
  dead in the pool, so the shard's retry lands on another host
  (reassignment) and the pool re-pings it later (rejoin);
* **corrupt / foreign** — the response parsed but failed the digest,
  fingerprint or cell-set checks; retried like a corrupt spool artifact;
* **no healthy hosts** — graceful degradation: the shard executes
  inline on the coordinator's own engine, serialised, so a sweep never
  fails just because the cluster did.

The lake write-back is deliberately paranoid: a host publishes candidate
``.cell`` entries beside its artifact, but the coordinator files an
entry only after recomputing the cell token *locally* and checking the
stats against the digest-verified shard result — a compromised or buggy
host can waste write-back bandwidth, never poison the lake.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json

from repro.api import env as api_env
from repro.cluster import client
from repro.cluster.framing import FrameError
from repro.cluster.hosts import parse_hosts
from repro.cluster.pool import HostPool
from repro.obs import runtime as obs_runtime
from repro.obs.runtime import obs_tracer
from repro.service.shards import (
    ShardResult,
    ShardSpec,
    validate_shard_result,
)
from repro.service.worker import execute_shard


def _normalized(stats: dict) -> str:
    """Stats as canonical JSON text (tuples/lists fold together)."""
    return json.dumps(stats, sort_keys=True, default=list)


class RemoteDispatcher:
    """Executes shard attempts on a :class:`HostPool` for a supervisor."""

    #: What the supervisor labels results produced through us.
    mode = "clustered"

    def __init__(
        self,
        pool: HostPool,
        engine,
        *,
        deadline: float | None = None,
    ) -> None:
        self.pool = pool
        #: The coordinator's engine: token verification for lake
        #: write-back, lake storage, and the inline degradation path.
        self.engine = engine
        self.deadline = (
            api_env.shard_timeout_from_env() if deadline is None
            else deadline
        )
        self.lake = engine.lake_enabled()
        self.lake_writebacks = 0
        self.lake_dropped = 0
        self.inline_shards = 0
        self._inline_lock = asyncio.Lock()

    @property
    def width(self) -> int:
        """Concurrent supervisor slots worth running: one per host, at
        least two so a retry can overlap a healthy host's work."""
        return max(2, len(self.pool.states))

    # ------------------------------------------------------------------

    async def attempt(
        self, shard: ShardSpec, attempt: int, fault: str | None
    ) -> ShardResult | tuple[str, str]:
        """One attempt at one shard on the cluster.

        Same contract as :meth:`ForkDispatcher.attempt
        <repro.service.worker.ForkDispatcher.attempt>`: a
        :class:`ShardResult` on success, a ``(kind, reason)`` tuple on a
        retriable failure.  *fault* travels to the remote worker, so the
        deterministic fault plane drives real remote crashes.
        """
        await self.pool.ensure_ready()
        await self.pool.maybe_refresh()
        host = self.pool.acquire()
        if host is None:
            return await self._inline(shard)
        tracer = obs_tracer()
        tracer.event(
            "host.dispatch", host=host.label, shard=shard.index,
            attempt=attempt + 1, cells=len(shard.cells),
        )
        try:
            reply = await asyncio.to_thread(
                client.submit_shard,
                host.spec,
                shard.to_dict(),
                fault=fault,
                lake=self.lake,
                timeout=self.deadline,
                connect_timeout=self.pool.connect_timeout,
            )
        except TimeoutError:
            # Must precede OSError (TimeoutError is one since 3.10): a
            # deadline miss is a hang, not proof the host is gone.
            self.pool.release(host, ok=False)
            return (
                "hang",
                f"host {host.label}: no response within "
                f"{self.deadline:g}s",
            )
        except OSError as error:
            self.pool.release(host, ok=False)
            self.pool.mark_dead(host, f"{type(error).__name__}: {error}")
            tracer.event(
                "host.failover", host=host.label, shard=shard.index,
                kind="host-death",
            )
            return (
                "host-death",
                f"host {host.label} unreachable mid-shard: {error}",
            )
        except FrameError as error:
            self.pool.release(host, ok=False)
            if error.kind in ("closed", "truncated"):
                # The connection died under us — host crash semantics.
                self.pool.mark_dead(host, f"connection {error.kind}")
                tracer.event(
                    "host.failover", host=host.label, shard=shard.index,
                    kind="host-death",
                )
                return (
                    "host-death",
                    f"host {host.label} dropped the connection "
                    f"({error.kind}): {error}",
                )
            return (
                "corrupt",
                f"host {host.label} answered an unframeable response "
                f"({error.kind}): {error}",
            )
        outcome = self._accept(shard, host.label, reply)
        self.pool.release(host, ok=isinstance(outcome, ShardResult))
        return outcome

    def _accept(
        self, shard: ShardSpec, label: str, reply: dict
    ) -> ShardResult | tuple[str, str]:
        """Verify a host's reply exactly like a spool artifact load."""
        if not reply.get("ok"):
            return (
                "corrupt",
                f"host {label} rejected the shard: "
                f"{reply.get('error', 'no reason given')}",
            )
        try:
            result = ShardResult.from_dict(reply["result"])
        except (KeyError, ValueError, TypeError) as error:
            return ("corrupt", f"host {label} artifact rejected: {error}")
        problem = validate_shard_result(shard, result)
        if problem is not None:
            kind, reason = problem
            return (kind, f"host {label}: {reason}")
        if self.lake:
            self._write_back(shard, result, reply.get("lake_cells"))
        return result

    # ------------------------------------------------------------------

    def _write_back(
        self, shard: ShardSpec, result: ShardResult, entries
    ) -> None:
        """File the host's lake entries, trusting none of them.

        For each candidate entry the coordinator recomputes the cell
        token from its *own* spec and engine (a host cannot choose the
        key) and requires the stats to match the digest-verified shard
        artifact byte-for-byte (a host cannot launder tampered stats
        past the digest check).  Anything that fails is dropped and
        counted, never written.
        """
        store = self.engine.simulator.trace_store
        if store is None or not isinstance(entries, list):
            return
        spec = shard.spec
        verified: dict[tuple[str, str, int], object] = {
            (cell.benchmark, cell.mechanism, cell.seed): cell
            for cell in result.cells
        }
        # (benchmark, seed, locally-computed token) -> verified cell.
        expected: dict[tuple[str, int, str], object] = {}
        for benchmark, mech_index, seed in shard.cells:
            mechanism = spec.mechanisms[mech_index]
            cell = verified.get((benchmark, mechanism.name, seed))
            if cell is None:
                continue
            token = self.engine.cell_token(
                mechanism, spec.window.warmup, spec.window.measure,
                spec.sampling,
            )
            expected[(benchmark, seed, token)] = cell
        written = 0
        dropped = 0
        for entry in entries:
            if not isinstance(entry, dict):
                dropped += 1
                continue
            key = (
                entry.get("benchmark"), entry.get("seed"),
                entry.get("token"),
            )
            cell = expected.get(key)
            stats = entry.get("stats")
            if cell is None or not isinstance(stats, dict):
                dropped += 1
                continue
            if _normalized(stats) != _normalized(
                dataclasses.asdict(cell.stats)
            ):
                dropped += 1
                continue
            meta = entry.get("meta")
            store.save_cell(
                stats, entry["benchmark"], entry["seed"], entry["token"],
                meta=meta if isinstance(meta, dict) else None,
            )
            written += 1
        self.lake_writebacks += written
        self.lake_dropped += dropped
        if written or dropped:
            obs_tracer().event(
                "host.lake", shard=shard.index, written=written,
                dropped=dropped,
            )

    # ------------------------------------------------------------------

    async def _inline(
        self, shard: ShardSpec
    ) -> ShardResult | tuple[str, str]:
        """No healthy host: execute on the coordinator's own engine.

        Serialised (the engine is not safe for concurrent threads) and
        fault-free, mirroring the spawn-failure degradation of
        :class:`~repro.service.worker.ForkDispatcher` — injected faults
        describe worker/host failures, and here there is no worker left
        to fail.
        """
        async with self._inline_lock:
            obs_tracer().event(
                "host.failover", host="(inline)", shard=shard.index,
                kind="no-hosts",
            )
            self.inline_shards += 1
            try:
                return await asyncio.to_thread(
                    execute_shard, shard, self.engine
                )
            except Exception as error:  # noqa: BLE001 - retry ladder
                return (
                    "spawn",
                    "no healthy cluster host and inline execution "
                    f"failed: {error}",
                )


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------


def run_clustered(
    spec,
    hosts=None,
    shards: int | None = None,
    *,
    session=None,
    supervisor=None,
    connect_timeout: float | None = None,
):
    """Execute *spec* across a host cluster; the coordinator front door.

    *hosts* is a host-list string (``"a:9091,b:9091"``), a sequence of
    :class:`~repro.cluster.hosts.HostSpec`, or ``None`` to read
    ``REPRO_HOSTS``.  Shard planning, retry, reassignment, quarantine
    and the digest-verified merge are all the supervisor's; this wires a
    :class:`RemoteDispatcher` into it and attaches the pool's per-host
    report to the returned
    :class:`~repro.service.supervisor.ShardedSweepResult`.
    """
    from repro.api.session import Session
    from repro.service.supervisor import ShardSupervisor

    if hosts is None:
        hosts = api_env.hosts_from_env()
    specs = parse_hosts(hosts) if isinstance(hosts, str) or hosts is None \
        else tuple(hosts)
    if not specs:
        raise ValueError(
            "run_clustered needs hosts (pass hosts=... or set REPRO_HOSTS)"
        )
    if session is None:
        session = Session.for_spec(spec)
    pool = HostPool(specs, connect_timeout=connect_timeout)
    dispatcher = RemoteDispatcher(pool, session.engine)
    if supervisor is None:
        supervisor = ShardSupervisor(dispatcher=dispatcher)
    else:
        supervisor.dispatcher = dispatcher
    if shards is None:
        shards = spec.shards if spec.shards > 1 else max(2, len(specs))
    with obs_runtime.activated(spec.obs):
        outcome = supervisor.run(spec, shards=shards, session=session)
        obs_tracer().event(
            "host.merge", mode=outcome.mode, complete=outcome.complete,
            hosts=len(specs),
            lake_writebacks=dispatcher.lake_writebacks,
        )
    outcome.host_reports = pool.report()
    return outcome
