"""Health-checked host pool: handshake, dispatch balance, failover state.

The pool owns *who may receive work*.  Before any shard is dispatched,
every configured host is pinged with the ``hello`` handshake and sorted
into one of three buckets:

* **alive** — reachable and capability-compatible (protocol and
  workload-code versions both match the coordinator's);
* **rejected** — reachable but *incompatible*: a host running different
  workload code would compute different traces for the same cells, so it
  is excluded for the whole run and its shards route elsewhere;
* **dead** — unreachable.  Dead hosts are re-pinged periodically
  (:meth:`HostPool.maybe_refresh`), so a restarted host rejoins a long
  sweep; rejected hosts stay rejected — a version mismatch does not heal
  without a redeploy.

Dispatch picks the alive host with the fewest in-flight shards (ties by
configuration order), which keeps a two-host pool balanced without any
coordination beyond the coordinator's own bookkeeping.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field

from repro.api import env as api_env
from repro.cluster import client
from repro.cluster.framing import FrameError
from repro.cluster.hosts import HostSpec, capability_mismatch
from repro.obs.runtime import obs_tracer


@dataclass
class HostState:
    """One host's pool bookkeeping."""

    spec: HostSpec
    status: str = "unknown"  # unknown | alive | dead | rejected
    reason: str = ""
    capabilities: dict = field(default_factory=dict)
    inflight: int = 0
    dispatched: int = 0
    failures: int = 0

    @property
    def label(self) -> str:
        return self.spec.label

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "reason": self.reason,
            "dispatched": self.dispatched,
            "failures": self.failures,
        }


class HostPool:
    """The coordinator's view of its remote ``repro serve`` hosts."""

    def __init__(
        self,
        hosts,
        *,
        connect_timeout: float | None = None,
        handshake_timeout: float = 30.0,
        recheck_interval: float = 5.0,
    ) -> None:
        specs = tuple(hosts)
        if not specs:
            raise ValueError("a host pool needs at least one host")
        self.states = [HostState(spec) for spec in specs]
        self.connect_timeout = (
            api_env.connect_timeout_from_env()
            if connect_timeout is None else connect_timeout
        )
        self.handshake_timeout = handshake_timeout
        #: How long a dead host stays unpinged before the next dispatch
        #: re-checks it (the "periodic health-check" cadence).
        self.recheck_interval = recheck_interval
        self._ready = False
        self._last_check = 0.0
        self._refreshing: asyncio.Lock | None = None

    # ------------------------------------------------------------------
    # Handshake and health
    # ------------------------------------------------------------------

    def _check_blocking(self, state: HostState) -> None:
        """One handshake round trip; classifies the host in place."""
        try:
            capabilities = client.hello(
                state.spec,
                timeout=self.handshake_timeout,
                connect_timeout=self.connect_timeout,
            )
        except (OSError, FrameError) as error:
            state.status = "dead"
            state.reason = f"{type(error).__name__}: {error}"
        else:
            problem = capability_mismatch(capabilities)
            if problem is None:
                state.status = "alive"
                state.reason = ""
                state.capabilities = capabilities
            else:
                state.status = "rejected"
                state.reason = problem
        obs_tracer().event(
            "host.connect", host=state.label, status=state.status,
            reason=state.reason,
        )

    async def _check(self, state: HostState) -> None:
        await asyncio.to_thread(self._check_blocking, state)

    async def refresh(self, statuses=("unknown", "dead")) -> None:
        """Ping every host whose status is in *statuses*, concurrently.

        Rejected hosts are deliberately not in the default: an
        incompatible host stays excluded for the whole run.
        """
        lock = self._refreshing
        if lock is None:
            lock = self._refreshing = asyncio.Lock()
        async with lock:
            targets = [s for s in self.states if s.status in statuses]
            if targets:
                await asyncio.gather(*(self._check(s) for s in targets))
            self._last_check = asyncio.get_running_loop().time()
            self._ready = True

    async def ensure_ready(self) -> None:
        """First-use handshake of the whole pool (idempotent)."""
        if not self._ready:
            await self.refresh(statuses=("unknown",))

    async def maybe_refresh(self) -> None:
        """Re-ping dead hosts when the recheck interval has elapsed —
        how a restarted host rejoins a long-running sweep."""
        if not any(state.status == "dead" for state in self.states):
            return
        now = asyncio.get_running_loop().time()
        if now - self._last_check < self.recheck_interval:
            return
        await self.refresh(statuses=("dead",))

    # ------------------------------------------------------------------
    # Dispatch bookkeeping
    # ------------------------------------------------------------------

    @property
    def alive(self) -> list[HostState]:
        return [state for state in self.states if state.status == "alive"]

    def acquire(self) -> HostState | None:
        """The least-loaded alive host (``None`` = nobody can serve)."""
        candidates = self.alive
        if not candidates:
            return None
        state = min(candidates, key=lambda s: s.inflight)
        state.inflight += 1
        return state

    def release(self, state: HostState, ok: bool) -> None:
        state.inflight = max(0, state.inflight - 1)
        state.dispatched += 1
        if not ok:
            state.failures += 1

    def mark_dead(self, state: HostState, reason: str) -> None:
        state.status = "dead"
        state.reason = reason

    # ------------------------------------------------------------------

    def report(self) -> dict[str, dict]:
        """Per-host summary (status, dispatch/failure counts) keyed by
        host label — travels on the clustered result."""
        return {state.label: state.to_dict() for state in self.states}
