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
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.spec2006 import build_benchmark
from repro.workloads.store import TraceStore, workload_code_version
from repro.workloads.trace import execute

#: In-flight margin so traces never run dry mid-window.
_TRACE_SLACK = 4096

#: Sentinel: "use the environment-configured default store".
_DEFAULT_STORE = object()


def load_or_interpret(
    store: TraceStore | None, benchmark: str, seed: int, instructions: int,
    version: str,
) -> tuple[ColumnarTrace, int]:
    """One checkpoint's trace from *store*, else from the interpreter.

    Returns ``(trace, budget)``.  A stored trace serves every request it
    covers (:meth:`TraceStore.load`); otherwise the benchmark is
    interpreted for *instructions* under a ``trace.interp`` span and the
    result is written to the store.  :meth:`Simulator.trace_for` and the
    Fig. 1 analysis both get their traces here.
    """
    if store is not None:
        stored = store.load(benchmark, seed, instructions, version)
        if stored is not None:
            return stored
    built = build_benchmark(benchmark, seed)
    with obs_tracer().span(
        "trace.interp", benchmark=benchmark, seed=seed,
        instructions=instructions,
    ):
        trace = execute(built.program, instructions, built.machine())
    if store is not None:
        store.save_payload(
            trace.to_payload(instructions), benchmark, seed, version
        )
    return trace, instructions


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
    The memory cache holds one benchmark's traces at a time: every
    sweep runs benchmark-major, so a benchmark's traces are dead once
    the next benchmark's first cell asks for its own.
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
        # (benchmark, seed, version) -> (trace, budget it was built for),
        # all of one benchmark.  The workload-code version is part of
        # the key so editing e.g. workloads/kernels.py mid-process can
        # never serve a stale trace.
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

        Lookup order: in-memory cache, then :func:`load_or_interpret`
        (the on-disk store, then interpretation, which writes the
        store).  Before it loads or interprets a trace of another
        benchmark, it drops every trace it holds, so two benchmarks'
        traces never coexist here.  It keeps every seed of the current
        benchmark: seeds are a sweep's innermost loop, so a one-trace
        cache would load again on every cell.
        """
        version = workload_code_version()
        key = (benchmark, seed, version)
        cache = self._trace_cache
        entry = cache.get(key)
        if entry is not None:
            trace, covered = entry
            if instructions <= covered or len(trace) < covered:
                return trace
        if any(cached != benchmark for cached, _, _ in cache):
            cache.clear()
        entry = load_or_interpret(
            self.trace_store, benchmark, seed, instructions, version
        )
        cache[key] = entry
        return entry[0]

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
        try:
            stats = pipeline.run(measure, warmup)
            self._collect_telemetry(benchmark, mechanisms, seed, pipeline)
        finally:
            # Freed by refcounting here, not at the next full collection
            # (DESIGN.md §12); a host keeps serving after a failed cell.
            pipeline.close()
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
        store = self.trace_store
        use_checkpoints = (
            store is not None and sampling.checkpoints and warmup > 0
        )
        restored = False
        token = ""
        pipeline = Pipeline(trace, self.core_config, mechanisms, seed)
        try:
            run = SampledRun(pipeline, sampling)
            if use_checkpoints:
                token = self._checkpoint_token(mechanisms, warmup)
                payload = store.load_checkpoint(benchmark, seed, token)
                if payload is not None:
                    try:
                        restore_checkpoint(pipeline, payload)
                        restored = True
                        store.checkpoint_hits += 1
                    except Exception:
                        # Stale/foreign payload: a miss.  The pipeline may
                        # be half mutated — rebuild and warm from scratch.
                        store.checkpoint_misses += 1
                        pipeline.close()
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
        finally:
            pipeline.close()
        return SimulationResult(benchmark, mechanisms.name, seed, stats)
