"""High-level simulation driver: benchmark in, statistics out.

Mirrors the paper's methodology (§V): per benchmark, several checkpoints
(seeds), warm-up then measurement, IPC reported per seed and aggregated
with the harmonic mean.  Every run takes its window and sampling mode
as arguments; the front doors resolve them (DESIGN.md §2 on window
scaling, §10 on the API layering).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs import runtime as obs_runtime
from repro.obs.runtime import obs_tracer
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.stats import Stats
from repro.sampling import (
    SampledRun,
    SamplingConfig,
    capture_checkpoint,
    restore_checkpoint,
)
from repro.sampling.checkpoint import CHECKPOINT_FORMAT
from repro.workloads.columnar import ColumnarTrace, pack_trace
from repro.workloads.spec2006 import build_benchmark
from repro.workloads.store import TraceStore, workload_code_version
from repro.workloads.trace import execute

#: In-flight margin so traces never run dry mid-window.
_TRACE_SLACK = 4096

#: Sentinel: "use the environment-configured default store".
_DEFAULT_STORE = object()


@dataclass
class SimulationResult:
    """Outcome of one (benchmark, mechanism, seed) run."""

    benchmark: str
    mechanism: str
    seed: int
    stats: Stats

    @property
    def ipc(self) -> float:
        return self.stats.ipc


class Simulator:
    """Caches traces and runs pipelines over them.

    Traces are memoised in memory per ``(benchmark, seed, workload-code
    version)`` and — unless persistence is disabled or a store of
    ``None`` is passed — routed through the on-disk
    :class:`~repro.workloads.store.TraceStore`, so each trace is
    interpreted at most once per machine rather than once per process.
    """

    def __init__(
        self,
        core_config: CoreConfig | None = None,
        trace_store: TraceStore | None = _DEFAULT_STORE,  # type: ignore
    ) -> None:
        self.core_config = core_config or CoreConfig()
        self.trace_store = (
            TraceStore.from_environment()
            if trace_store is _DEFAULT_STORE
            else trace_store
        )
        # (benchmark, seed, version) -> (trace, budget it was built for).
        # The workload-code version is part of the key so editing e.g.
        # workloads/kernels.py mid-process can never serve a stale trace.
        self._trace_cache: dict[
            tuple[str, int, str], tuple[ColumnarTrace, int]
        ] = {}

    def trace_for(self, benchmark: str, seed: int,
                  instructions: int) -> ColumnarTrace:
        """Build (and cache) the functional trace for one checkpoint.

        The interpreter is deterministic, so a trace built for N
        instructions is a prefix of any longer build: a cached trace is
        reused for every request it covers (shorter windows included)
        instead of re-executing the interpreter per requested length.  A
        trace that ended at ``HALT`` before reaching its requested length
        is the complete execution and covers any request.

        Lookup order: in-memory cache, then the on-disk store, then
        interpretation (which also populates the store).  The cached
        value is a :class:`ColumnarTrace` (DESIGN.md §9): cold
        interpretation packs the fresh trace once and both the store
        write and the runtime view share that payload.
        """
        version = workload_code_version()
        key = (benchmark, seed, version)
        entry = self._trace_cache.get(key)
        if entry is not None:
            trace, covered = entry
            if instructions <= covered or len(trace) < covered:
                return trace
        store = self.trace_store
        if store is not None:
            stored = store.load(benchmark, seed, instructions, version)
            if stored is not None:
                self._trace_cache[key] = stored
                return stored[0]
        built = build_benchmark(benchmark, seed)
        with obs_tracer().span(
            "trace.interp", benchmark=benchmark, seed=seed,
            instructions=instructions,
        ):
            interpreted = execute(
                built.program, instructions, built.machine()
            )
        payload = pack_trace(interpreted, instructions)
        trace = ColumnarTrace.from_payload(payload)
        # Seed the row cache with the freshly interpreted objects: they
        # are field-identical to decoded rows (pinned by the codec
        # property suite), so the first cold run never re-materialises
        # what the interpreter just built.
        trace.rows[:] = interpreted.instructions
        if store is not None:
            store.save_payload(payload, benchmark, seed, version)
        self._trace_cache[key] = (trace, instructions)
        return trace

    def run_benchmark(
        self,
        benchmark: str,
        mechanisms: MechanismConfig,
        warmup: int,
        measure: int,
        seed: int = 1,
        sampling: SamplingConfig = SamplingConfig(),
    ) -> SimulationResult:
        """Run one benchmark/mechanism/seed combination.

        An *inactive* sampling configuration — the default (off), or
        the degenerate 100%-duty ratio — takes the plain full-detail
        path unchanged.
        """
        if sampling.active:
            return self._run_sampled(
                benchmark, mechanisms, warmup, measure, seed, sampling
            )
        trace = self.trace_for(benchmark, seed, warmup + measure + _TRACE_SLACK)
        pipeline = Pipeline(trace, self.core_config, mechanisms, seed)
        stats = pipeline.run(measure, warmup)
        self._collect_telemetry(benchmark, mechanisms, seed, pipeline)
        return SimulationResult(benchmark, mechanisms.name, seed, stats)

    @staticmethod
    def _collect_telemetry(benchmark, mechanisms, seed, pipeline) -> None:
        """Bank the pipeline's metric series with the active obs runtime
        (no-op — one ``None`` check — when nothing observes)."""
        runtime = obs_runtime.current()
        if runtime is not None:
            runtime.collect_cell(benchmark, mechanisms.name, seed, pipeline)

    def _checkpoint_token(
        self, mechanisms: MechanismConfig, warmup: int
    ) -> str:
        """Everything (beyond benchmark/seed) the warmed state depends on."""
        return "\x00".join((
            workload_code_version(),
            str(warmup),
            repr(self.core_config),
            mechanisms.fingerprint(),
            f"ckpt{CHECKPOINT_FORMAT}",
        ))

    def _run_sampled(
        self,
        benchmark: str,
        mechanisms: MechanismConfig,
        warmup: int,
        measure: int,
        seed: int,
        sampling: SamplingConfig,
    ) -> SimulationResult:
        """Interval-sampled run: warmed warm-up (or a restored µarch
        checkpoint), then alternating detail/warming over the window."""
        trace = self.trace_for(benchmark, seed, warmup + measure + _TRACE_SLACK)
        pipeline = Pipeline(trace, self.core_config, mechanisms, seed)
        run = SampledRun(pipeline, sampling)
        store = self.trace_store
        use_checkpoints = (
            store is not None and sampling.checkpoints and warmup > 0
        )
        restored = False
        token = ""
        if use_checkpoints:
            token = self._checkpoint_token(mechanisms, warmup)
            payload = store.load_checkpoint(benchmark, seed, token)
            if payload is not None:
                try:
                    restore_checkpoint(pipeline, payload)
                    restored = True
                except Exception:
                    # Stale/foreign payload: the pipeline may be half
                    # mutated — rebuild and warm from scratch.
                    pipeline = Pipeline(
                        trace, self.core_config, mechanisms, seed
                    )
                    run = SampledRun(pipeline, sampling)
        if not restored and warmup > 0:
            run.warm_up(warmup)
            if use_checkpoints:
                store.save_checkpoint(
                    capture_checkpoint(pipeline), benchmark, seed, token
                )
        stats = run.measure(measure)
        self._collect_telemetry(benchmark, mechanisms, seed, pipeline)
        return SimulationResult(benchmark, mechanisms.name, seed, stats)
