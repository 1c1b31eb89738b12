"""The :class:`Session` facade: specs in, versioned artifacts out.

A session owns the infrastructure — the shared trace store and the
memoising sweep engine — and exposes one operation, ``run(spec) ->
RunResult``, plus its sharded and clustered fan-outs.  It is the one
way experiments reach the simulator: the CLI, the figure pipeline, the
benches, the examples and the tests all run specs here.  It routes
into the :class:`~repro.harness.sweep.SweepEngine`, so every guarantee
that engine gives (interpret once per machine, simulate each unique
cell once per process) holds, and each cell's stats are bit-identical
to a direct :meth:`~repro.pipeline.simulator.Simulator.run_benchmark`.
"""

from __future__ import annotations

from repro.api.result import CellResult, RunResult
from repro.api.spec import ExperimentSpec, StoreSpec
from repro.obs import runtime as obs_runtime
from repro.harness.sweep import SweepEngine, shared_engine


class Session:
    """Owns the engine/store; runs :class:`ExperimentSpec` values.

    The default session shares the process-wide engine (and with it the
    persistent trace store and cell memo) with every other default
    session, bench and example in the process.  Pass a
    :class:`StoreSpec` to get a private engine pinned to it instead —
    e.g. a throwaway store root in tests — or an engine of your own
    (a test on another core builds one around ``Simulator(core)``).
    """

    def __init__(
        self,
        store: StoreSpec | None = None,
        engine: SweepEngine | None = None,
    ) -> None:
        if engine is not None:
            if store is not None:
                raise ValueError("pass a store spec or an engine, not both")
            self.engine = engine
        elif store is None:
            self.engine = shared_engine()
        else:
            self.engine = SweepEngine.for_store(store)
        self.simulator = self.engine.simulator

    @classmethod
    def for_spec(cls, spec: ExperimentSpec) -> "Session":
        """A session honouring *spec*'s store configuration.

        The shared engine is used only when the spec's store equals the
        :class:`StoreSpec` that engine was built from — then sharing is
        observationally equivalent and buys the cross-run memo.  Any
        other store gets a private engine pinned to it, so an explicit
        spec always wins over ambient state.
        (One documented exception: ``path=None`` means "the default
        cache location" and resolves through the environment when the
        engine is built, so a process that disabled persistence is
        never forced to write the user's cache — see
        :meth:`StoreSpec.resolve_root`.)
        """
        if spec.store == shared_engine().store:
            return cls()
        return cls(store=spec.store)

    # ------------------------------------------------------------------

    def run(self, spec: ExperimentSpec) -> RunResult:
        """Execute every cell of *spec* and return the artifact.

        The spec is fully resolved — the environment is never consulted
        here — so the recorded window/sampling/seeds are exactly what
        ran, and running the same spec twice (or on another session
        with the same engine state) yields digest-identical artifacts.
        """
        # The telemetry plane (DESIGN.md §13) activates for this scope
        # when the spec enables it; otherwise a runtime the caller
        # installed (the ``repro`` CLI does for ``REPRO_OBS=1``) keeps
        # observing.  Off (the default) is free: no runtime is active
        # and the artifact carries no telemetry.
        with obs_runtime.activated(spec.obs):
            swept = self.engine.sweep(
                list(spec.benchmarks),
                list(spec.mechanisms),
                seeds=list(spec.seeds),
                warmup=spec.window.warmup,
                measure=spec.window.measure,
                sampling=spec.sampling,
            )
            cells = [
                CellResult(benchmark, name, result.seed, result.stats)
                for (benchmark, name), results in swept.items()
                for result in results
            ]
            result = RunResult(spec=spec, cells=cells)
            active = obs_runtime.current()
            if active is not None:
                result.telemetry = active.telemetry_payload()
        return result

    def run_sharded(
        self,
        spec: ExperimentSpec,
        shards: int | None = None,
        supervisor=None,
    ):
        """Execute *spec* through the fault-tolerant sharded service.

        The cells this session's memo and lake miss fan out to worker
        processes under a
        :class:`~repro.service.supervisor.ShardSupervisor` (deadlines,
        retry with backoff, reassignment, quarantine — DESIGN.md §11),
        merge digest-verified and are filed into this session's memo
        and lake; the returned
        :class:`~repro.service.supervisor.ShardedSweepResult` is
        digest-identical to :meth:`run` when complete and carries
        explicit holes otherwise.  ``shards <= 1``, or fewer than two
        misses, runs in process on this session.
        """
        from repro.service.supervisor import ShardSupervisor

        if supervisor is None:
            supervisor = ShardSupervisor()
        count = spec.shards if shards is None else shards
        return supervisor.run(spec, shards=count, session=self)

    def run_clustered(
        self,
        spec: ExperimentSpec,
        hosts=None,
        shards: int | None = None,
    ):
        """Execute *spec* across remote ``repro serve --tcp`` hosts.

        *hosts* is ``"a:9091,b:9091"`` (or a sequence of
        :class:`~repro.cluster.hosts.HostSpec`); ``None`` reads
        ``REPRO_HOSTS``.  As :meth:`run_sharded`, but the misses fan out
        to the host pool through a
        :class:`~repro.cluster.dispatch.RemoteDispatcher`.  The merged
        result is digest-identical to :meth:`run` when complete,
        whatever crashed along the way (DESIGN.md §15).
        """
        from repro.cluster.dispatch import run_clustered

        return run_clustered(spec, hosts=hosts, shards=shards, session=self)


def run(spec: ExperimentSpec) -> RunResult:
    """One-shot convenience: build the right session and run *spec*."""
    return Session.for_spec(spec).run(spec)
