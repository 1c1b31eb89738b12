"""Experiment runner: benchmark × mechanism × seed sweeps with aggregation.

Follows the paper's methodology (§V): several checkpoints (seeds) per
benchmark, per-benchmark IPC as the harmonic mean across checkpoints, and
speedups against the matching baseline runs.

Execution is delegated to the shared
:class:`~repro.harness.sweep.SweepEngine`: runners constructed with the
default core configuration share one process-wide engine, so traces are
interpreted at most once per machine (via the persistent trace store) and
identical cells — the same benchmark, window, seed and mechanism
*settings*, regardless of preset name — are simulated exactly once per
process no matter how many runners ask for them.  Cells are deterministic
and run on fresh pipelines, so memoised results are bit-identical to
reruns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api import env as api_env
from repro.harness.reporting import harmonic_mean
from repro.harness.sweep import SweepEngine, shared_engine
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.simulator import SimulationResult
from repro.pipeline.stats import Stats
from repro.sampling import SamplingConfig
from repro.workloads.spec2006 import benchmark_names


@dataclass
class BenchmarkOutcome:
    """All runs of one (benchmark, mechanism) cell."""

    benchmark: str
    mechanism: str
    results: list[SimulationResult] = field(default_factory=list)

    @property
    def ipc(self) -> float:
        return harmonic_mean(result.ipc for result in self.results)

    def stat_sum(self, name: str) -> int:
        return sum(getattr(result.stats, name) for result in self.results)

    def stat_fraction(self, name: str) -> float:
        committed = self.stat_sum("committed")
        return self.stat_sum(name) / committed if committed else 0.0

    @property
    def merged_stats(self) -> list[Stats]:
        return [result.stats for result in self.results]


class ExperimentRunner:
    """Runs mechanism sweeps and answers speedup queries."""

    def __init__(
        self,
        core_config: CoreConfig | None = None,
        benchmarks: list[str] | None = None,
        seeds: list[int] | None = None,
        warmup: int | None = None,
        measure: int | None = None,
        engine: SweepEngine | None = None,
        sampling: SamplingConfig | None = None,
    ) -> None:
        if engine is not None:
            # Cell keys cover the core fingerprint, so an engine can
            # serve any core config soundly: a differing core gets the
            # engine's cache-sharing variant instead of an error.
            self.engine = engine.variant(core_config)
        else:
            self.engine = shared_engine(core_config)
        self.simulator = self.engine.simulator
        self.benchmarks = benchmarks or benchmark_names()
        self.seeds = seeds or api_env.seeds_from_env()
        # Environment defaults resolve HERE, once: a runner constructed
        # with warmup/measure/sampling of None used to re-read the
        # environment at every run() call, so a mid-process env change
        # could silently split one experiment across two windows.  The
        # resolved values are pinned for the runner's lifetime (the new
        # spec API records them in the result artifact).
        default_warmup, default_measure = api_env.window_from_env()
        self.warmup = default_warmup if warmup is None else warmup
        self.measure = default_measure if measure is None else measure
        self.sampling = (
            api_env.sampling_from_env() if sampling is None else sampling
        )
        self._cells: dict[tuple[str, str], BenchmarkOutcome] = {}

    # ------------------------------------------------------------------

    def run(self, mechanisms: list[MechanismConfig]) -> None:
        """Execute every (benchmark, mechanism, seed) combination."""
        swept = self.engine.sweep(
            self.benchmarks, mechanisms,
            seeds=self.seeds, warmup=self.warmup, measure=self.measure,
            sampling=self.sampling,
        )
        for (benchmark, name), results in swept.items():
            if (benchmark, name) in self._cells:
                continue
            self._cells[(benchmark, name)] = BenchmarkOutcome(
                benchmark, name, list(results)
            )

    def run_cell(
        self, benchmark: str, mechanism: MechanismConfig
    ) -> BenchmarkOutcome:
        """Execute (and memoise) one benchmark/mechanism cell."""
        key = (benchmark, mechanism.name)
        cell = self._cells.get(key)
        if cell is not None:
            return cell
        cell = BenchmarkOutcome(benchmark, mechanism.name)
        for seed in self.seeds:
            cell.results.append(
                self.engine.run_cell(
                    benchmark, mechanism,
                    seed=seed, warmup=self.warmup, measure=self.measure,
                    sampling=self.sampling,
                )
            )
        self._cells[key] = cell
        return cell

    # ------------------------------------------------------------------

    def outcome(self, benchmark: str, mechanism_name: str) -> BenchmarkOutcome:
        return self._cells[(benchmark, mechanism_name)]

    def speedup(
        self,
        benchmark: str,
        mechanism_name: str,
        baseline_name: str = "baseline",
    ) -> float:
        """Relative speedup of *mechanism_name* over *baseline_name*."""
        base = self.outcome(benchmark, baseline_name).ipc
        if base <= 0:
            return 0.0
        return self.outcome(benchmark, mechanism_name).ipc / base - 1.0
