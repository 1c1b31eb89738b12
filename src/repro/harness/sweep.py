"""Shared sweep engine: interpret once, simulate each unique cell once.

Every figure bench, ablation, example and CI gate ultimately runs the
same kind of sweep — benchmark × mechanism × seed cells over a common
window — through :class:`repro.api.Session`, which routes every spec
into this engine.  Without it the same functional trace would be
re-interpreted per script and the same cell (fig. 4's baseline is also
fig. 6's, fig. 7's and Table I's) re-simulated per script.  The engine
removes both redundancies:

* **Traces** come from the engine's :class:`Simulator`, which memoises in
  memory and persists through the on-disk
  :class:`~repro.workloads.store.TraceStore` — each trace is interpreted
  at most once per machine, ever (build-once / run-many, in the style of
  artifact-caching experiment infrastructures).
* **Cells** are memoised on a content fingerprint of everything that
  determines the result — benchmark, seed, resolved window and the full
  mechanism configuration *minus its display name* — so two presets with
  different names but identical settings share one simulation.  Each
  simulation runs on a fresh ``Pipeline``, so a memoised result is
  bit-identical to a rerun (the same determinism guarantee the golden
  tests pin down).

Fan-out across processes or hosts is the sharded service's job
(:mod:`repro.service`, ``shards=N``): its coordinator serves and files
cells through :meth:`SweepEngine.lookup` and :meth:`SweepEngine.record`,
and its workers run the misses through :meth:`SweepEngine.run_cell`,
lake off, on the shared on-disk trace store, so even a cold sharded
sweep interprets each trace once per machine.

``repro sweep --smoke`` (:mod:`repro.service.smoke`) is the CI gate: it
runs a tiny sweep cold, re-runs it through the memo and through a fresh
engine on the warmed store, and fails if any path disagrees.
"""

from __future__ import annotations

import dataclasses
import hashlib

from repro.api.spec import StoreSpec
from repro.obs.runtime import obs_tracer
from repro.pipeline.config import MechanismConfig
from repro.pipeline.simulator import SimulationResult, Simulator
from repro.pipeline.stats import Stats
from repro.sampling import SamplingConfig
from repro.workloads.store import (
    CELL_FORMAT,
    TraceStore,
    workload_code_version,
)

#: Cell key: (benchmark, seed, warmup, measure, mechanism fingerprint,
#: sampling fingerprint, core-config fingerprint).  An engine simulates
#: one core, but its fingerprint stays in every key and lake token: a
#: changed ``CoreConfig`` default can never be served a stale cell.
CellKey = tuple[str, int, int, int, str, str, str]

#: The exact Stats schema this build writes/reads in lake cells.  A lake
#: entry whose stats keys differ (written by an older/newer build under
#: the same CELL_FORMAT) is a miss, never a misread.
_STATS_FIELDS = frozenset(f.name for f in dataclasses.fields(Stats))


def mechanism_fingerprint(mechanism: MechanismConfig) -> str:
    """Content fingerprint of a mechanism configuration.

    The display name is excluded: it labels the experiment, not the
    machine being simulated.  Everything else is a tree of frozen
    dataclasses, enums and scalars with deterministic ``repr``.
    """
    return mechanism.fingerprint()


def _copy_result(
    result: SimulationResult, benchmark: str, name: str, seed: int
) -> SimulationResult:
    """A fresh result view (own ``Stats``) labelled for the caller."""
    stats = dataclasses.replace(result.stats, extra=dict(result.stats.extra))
    return SimulationResult(benchmark, name, seed, stats)


class SweepEngine:
    """Memoising sweep executor shared by benches, examples and tests.

    What a cell computes and where it is filed is fixed when the engine
    is built (the simulator's core and trace store, the lake gate) or
    passed with each call (window, sampling): no method reads the
    environment (DESIGN.md §10).
    """

    def __init__(
        self,
        simulator: Simulator | None = None,
        result_lake: bool = False,
    ) -> None:
        self.simulator = simulator or Simulator()
        self._core_fp = self.simulator.core_config.fingerprint()
        #: Result-lake gate (DESIGN.md §14).  The lake lives in the
        #: simulator's trace store, so no store means no lake.
        self.result_lake = (
            result_lake and self.simulator.trace_store is not None
        )
        #: The :class:`StoreSpec` a :meth:`for_store` engine was built
        #: from (``None`` for an engine around a given simulator).
        self.store: StoreSpec | None = None
        self._cells: dict[CellKey, SimulationResult] = {}
        self.cell_hits = 0
        self.cell_misses = 0
        self.lake_hits = 0
        self.lake_misses = 0
        self.lake_writes = 0

    @classmethod
    def for_store(cls, store: StoreSpec) -> "SweepEngine":
        """An engine on *store*'s trace-store root and lake gate."""
        root = store.resolve_root()
        engine = cls(
            simulator=Simulator(
                trace_store=TraceStore(root) if root is not None else None
            ),
            result_lake=store.result_lake,
        )
        engine.store = store
        return engine

    # ------------------------------------------------------------------

    def _key(
        self, benchmark: str, mechanism: MechanismConfig, seed: int,
        warmup: int, measure: int, sampling: SamplingConfig,
    ) -> CellKey:
        return (
            benchmark, seed, warmup, measure,
            mechanism_fingerprint(mechanism),
            sampling.fingerprint(),
            self._core_fp,
        )

    def _cell_token(
        self, mechanism: MechanismConfig, warmup: int, measure: int,
        sampling: SamplingConfig,
    ) -> str:
        """Everything beyond (benchmark, seed) a lake cell depends on.

        Resolved window, sampling fingerprint, mechanism fingerprint
        (name-free), core-config fingerprint, workload-code version and
        the cell format: a cell written under any other configuration
        hashes to a different file name and can never be served.
        """
        return "\x00".join((
            str(warmup), str(measure), sampling.fingerprint(),
            mechanism.fingerprint(), self._core_fp,
            workload_code_version(), f"cell{CELL_FORMAT}",
        ))

    def _cell_meta(
        self, mechanism: MechanismConfig, warmup: int, measure: int,
        sampling: SamplingConfig,
    ) -> dict:
        """The informational meta block lake cells carry (queryable by
        ``repro report --lake``; never part of the self-digest)."""
        return {
            "mechanism": mechanism.name,
            "warmup": warmup,
            "measure": measure,
            "sampling": sampling.fingerprint(),
            "core": hashlib.sha256(
                self._core_fp.encode()
            ).hexdigest()[:12],
            "workload_version": workload_code_version(),
        }

    def _lake_load(
        self, benchmark: str, mechanism: MechanismConfig, seed: int,
        token: str,
    ) -> SimulationResult | None:
        """One cell from the lake, or ``None`` on any miss.

        The store validates payload shape and self-digest; the stats
        schema is checked here against this build's ``Stats`` fields, so
        an entry from a build with a different schema is a miss that the
        fresh simulation overwrites.
        """
        payload = self.simulator.trace_store.load_cell(
            benchmark, seed, token, fields=_STATS_FIELDS
        )
        if payload is None:
            return None
        stats = Stats(**payload["stats"])
        stats.extra = dict(stats.extra)
        return SimulationResult(benchmark, mechanism.name, seed, stats)

    def lookup(
        self, benchmark: str, mechanism: MechanismConfig, seed: int,
        warmup: int, measure: int, sampling: SamplingConfig,
    ) -> SimulationResult | None:
        """Recall one cell without simulating it; ``None`` on a miss.

        The memo first, then (when enabled) the result lake, whose hit
        seeds the memo.  Returns a private result copy.
        """
        key = self._key(benchmark, mechanism, seed, warmup, measure, sampling)
        cached = self._cells.get(key)
        if cached is not None:
            self.cell_hits += 1
            obs_tracer().event(
                "sweep.cell.memo", benchmark=benchmark,
                mechanism=mechanism.name, seed=seed,
            )
            return _copy_result(cached, benchmark, mechanism.name, seed)
        if not self.result_lake:
            return None
        cached = self._lake_load(
            benchmark, mechanism, seed,
            self._cell_token(mechanism, warmup, measure, sampling),
        )
        if cached is None:
            self.lake_misses += 1
            return None
        self.lake_hits += 1
        obs_tracer().event(
            "sweep.cell.lake", benchmark=benchmark,
            mechanism=mechanism.name, seed=seed,
        )
        self._cells[key] = cached
        return _copy_result(cached, benchmark, mechanism.name, seed)

    def record(
        self, result: SimulationResult, mechanism: MechanismConfig,
        warmup: int, measure: int, sampling: SamplingConfig,
    ) -> None:
        """File one simulated cell (a ``SimulationResult`` or
        ``CellResult``) into the memo, as a private copy, and into the
        lake when enabled.  A cell the memo holds is already filed and is
        left alone, so each cell reaches the lake once."""
        benchmark, seed = result.benchmark, result.seed
        key = self._key(benchmark, mechanism, seed, warmup, measure, sampling)
        if key in self._cells:
            return
        self._cells[key] = _copy_result(
            result, benchmark, mechanism.name, seed
        )
        if not self.result_lake:
            return
        written = self.simulator.trace_store.save_cell(
            dataclasses.asdict(result.stats), benchmark, seed,
            self._cell_token(mechanism, warmup, measure, sampling),
            meta=self._cell_meta(mechanism, warmup, measure, sampling),
        )
        if written is not None:
            self.lake_writes += 1
            obs_tracer().event(
                "sweep.cell.lake_write", benchmark=benchmark,
                mechanism=mechanism.name, seed=seed,
            )

    def run_cell(
        self,
        benchmark: str,
        mechanism: MechanismConfig,
        seed: int,
        warmup: int,
        measure: int,
        sampling: SamplingConfig = SamplingConfig(),
    ) -> SimulationResult:
        """Simulate (or recall) one cell; returns a private result copy.

        :meth:`lookup` first; a miss is simulated and :meth:`record`
        files it, so with the lake on it is served from disk from then on.
        """
        cached = self.lookup(
            benchmark, mechanism, seed, warmup, measure, sampling
        )
        if cached is not None:
            return cached
        self.cell_misses += 1
        with obs_tracer().span(
            "sweep.cell", benchmark=benchmark, mechanism=mechanism.name,
            seed=seed,
        ):
            result = self.simulator.run_benchmark(
                benchmark, mechanism, warmup=warmup, measure=measure,
                seed=seed, sampling=sampling,
            )
        self.record(result, mechanism, warmup, measure, sampling)
        return _copy_result(result, benchmark, mechanism.name, seed)

    def sweep(
        self,
        benchmarks: list[str],
        mechanisms: list[MechanismConfig],
        seeds: list[int],
        warmup: int,
        measure: int,
        sampling: SamplingConfig = SamplingConfig(),
    ) -> dict[tuple[str, str], list[SimulationResult]]:
        """Run every benchmark × mechanism × seed cell via :meth:`run_cell`.

        Returns ``{(benchmark, mechanism name): [result per seed]}``.
        """
        return {
            (benchmark, mechanism.name): [
                self.run_cell(
                    benchmark, mechanism, seed, warmup, measure, sampling
                )
                for seed in seeds
            ]
            for benchmark in benchmarks
            for mechanism in mechanisms
        }


# ---------------------------------------------------------------------------
# Shared default engine
# ---------------------------------------------------------------------------

_shared: SweepEngine | None = None


def shared_engine() -> SweepEngine:
    """The process-wide engine, built once on ``StoreSpec.from_env()``.

    Scripts running in one process (e.g. every figure bench of a pytest
    session) share its trace and cell memos.  Its store root and lake
    gate are read from the environment when it is built and never
    again; :meth:`Session.for_spec` hands it only to specs whose store
    equals :attr:`SweepEngine.store`.
    """
    global _shared
    if _shared is None:
        _shared = SweepEngine.for_store(StoreSpec.from_env())
    return _shared
