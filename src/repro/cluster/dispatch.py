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
* **no healthy hosts** — the attempt answers ``None`` and the
  supervisor runs the shard inline on the coordinator's own engine, so
  a sweep never fails just because the cluster did.

Hosts only simulate; the coordinator serves and files its own memo and
lake (DESIGN.md §11).
"""

from __future__ import annotations

import asyncio

from repro.api import env as api_env
from repro.cluster import client
from repro.cluster.framing import FrameError
from repro.cluster.hosts import parse_hosts
from repro.cluster.pool import HostPool
from repro.obs.runtime import obs_tracer
from repro.service.shards import (
    ShardResult,
    ShardSpec,
    validate_shard_result,
)


class RemoteDispatcher:
    """Executes shard attempts on a :class:`HostPool` for a supervisor."""

    #: What the supervisor labels results produced through us.
    mode = "clustered"

    def __init__(
        self, pool: HostPool, *, deadline: float | None = None
    ) -> None:
        self.pool = pool
        self.deadline = (
            api_env.shard_timeout_from_env() if deadline is None
            else deadline
        )

    @property
    def width(self) -> int:
        """Concurrent supervisor slots worth running: one per host, at
        least two so a retry can overlap a healthy host's work."""
        return max(2, len(self.pool.states))

    # ------------------------------------------------------------------

    async def attempt(
        self, shard: ShardSpec, attempt: int, fault: str | None
    ) -> ShardResult | tuple[str, str] | None:
        """One attempt at one shard on the cluster.

        Same contract as :meth:`ForkDispatcher.attempt
        <repro.service.worker.ForkDispatcher.attempt>`: a
        :class:`ShardResult` on success, a ``(kind, reason)`` tuple on a
        retriable failure, ``None`` when no host is healthy.  *fault*
        travels to the remote worker, so the deterministic fault plane
        drives real remote crashes.
        """
        await self.pool.ensure_ready()
        await self.pool.maybe_refresh()
        host = self.pool.acquire()
        if host is None:
            return None
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
        return result


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
    ``REPRO_HOSTS``.  Cache lookups, shard planning, retry,
    reassignment, quarantine, the digest-verified merge and filing the
    results are all the supervisor's; this wires a
    :class:`RemoteDispatcher` into it and attaches the pool's per-host
    report to the returned
    :class:`~repro.service.supervisor.ShardedSweepResult`.
    """
    from repro.service.supervisor import ShardSupervisor

    if hosts is None:
        hosts = api_env.hosts_from_env()
    specs = parse_hosts(hosts) if isinstance(hosts, str) or hosts is None \
        else tuple(hosts)
    if not specs:
        raise ValueError(
            "run_clustered needs hosts (pass hosts=... or set REPRO_HOSTS)"
        )
    pool = HostPool(specs, connect_timeout=connect_timeout)
    dispatcher = RemoteDispatcher(pool)
    if supervisor is None:
        supervisor = ShardSupervisor(dispatcher=dispatcher)
    else:
        supervisor.dispatcher = dispatcher
    if shards is None:
        shards = spec.shards if spec.shards > 1 else max(2, len(specs))
    outcome = supervisor.run(spec, shards=shards, session=session)
    outcome.host_reports = pool.report()
    return outcome
