"""Simulator-throughput measurement: simulated KIPS per mechanism config.

The unit is **simulated kilo-instructions per second** (KIPS): how many
thousand committed-path instructions the timing model replays per second
of wall clock.  Throughput is what caps measurement windows (see
DESIGN.md §4) — the figure benches all funnel through ``Pipeline.run``,
so KIPS directly bounds how many checkpoints and how large a window every
experiment can afford.

Protocol:

* the functional trace is built (and timed) once per benchmark, outside
  the timed region — KIPS measures the *timing model* only;
* each (benchmark, mechanism) cell runs ``repeats`` times on a fresh
  :class:`Pipeline` and keeps the fastest run (the standard robust
  estimator under scheduler noise);
* the aggregate per mechanism is total simulated instructions over total
  (best) wall time across benchmarks, which weights slow benchmarks
  honestly.

Run it through the front door::

    repro perf --benchmark mcf --mechanism rsep-realistic
    repro perf --json perf.json --repeats 3
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict, dataclass, field

from repro.api.spec import default_mechanisms
from repro.pipeline.config import MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import (
    _TRACE_SLACK,  # match Simulator.run_benchmark's trace sizing exactly
)
from repro.sampling import SampledRun, SamplingConfig

#: Benchmarks the throughput bench exercises by default: a spread of
#: memory-bound (mcf, astar, omnetpp), branchy-integer (bzip2,
#: xalancbmk, hmmer) and wide-FP (gamess, lbm) behaviour.
DEFAULT_BENCHMARKS: tuple[str, ...] = (
    "mcf", "astar", "omnetpp", "bzip2",
    "xalancbmk", "gamess", "lbm", "hmmer",
)


@dataclass
class PerfSample:
    """Throughput of one (benchmark, mechanism) cell."""

    benchmark: str
    mechanism: str
    seed: int
    warmup: int
    measure: int
    wall_seconds: float        # best-of-repeats pipeline wall time
    kips: float                # (warmup + measure) / wall / 1000
    ipc: float
    cycles: int
    trace_build_seconds: float


@dataclass
class PerfReport:
    """All samples of one measurement session plus per-mechanism KIPS."""

    warmup: int
    measure: int
    repeats: int
    samples: list[PerfSample] = field(default_factory=list)
    #: mechanism name -> aggregate KIPS (total instructions / total wall).
    aggregate_kips: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "unit": "simulated kilo-instructions per second (KIPS)",
            "warmup": self.warmup,
            "measure": self.measure,
            "repeats": self.repeats,
            "aggregate_kips": {
                name: round(value, 2)
                for name, value in self.aggregate_kips.items()
            },
            "samples": [asdict(sample) for sample in self.samples],
        }


def measure_throughput(
    benchmarks=DEFAULT_BENCHMARKS,
    mechanisms: list[MechanismConfig] | None = None,
    *,
    warmup: int,
    measure: int,
    seed: int = 1,
    repeats: int = 3,
    sampling: SamplingConfig = SamplingConfig(),
) -> PerfReport:
    """Measure simulated KIPS for every benchmark × mechanism cell.

    With an *active* ``sampling`` configuration each timed run is a
    sampled one (functionally warmed warm-up, interval sampling over the
    window; no checkpoints — every repeat starts cold), and KIPS counts
    the *covered window* per wall second — detailed plus warmed
    instructions — which is the subsystem's effective throughput.
    """
    if mechanisms is None:
        mechanisms = list(default_mechanisms())
    if repeats <= 0:
        raise ValueError("repeats must be positive")

    # Traces come from the shared sweep engine's simulator: in-memory
    # across this process's cells, persistent (trace store) across
    # sessions — the timed region stays the pipeline alone either way.
    from repro.harness.sweep import shared_engine

    simulator = shared_engine().simulator
    instructions = warmup + measure
    report = PerfReport(warmup=warmup, measure=measure, repeats=repeats)

    for mechanism in mechanisms:
        total_wall = 0.0
        total_instructions = 0
        for benchmark in benchmarks:
            build_start = time.perf_counter()
            trace = simulator.trace_for(
                benchmark, seed, instructions + _TRACE_SLACK
            )
            trace_build = time.perf_counter() - build_start

            best_wall = None
            stats = None
            simulated = instructions
            for _ in range(repeats):
                pipeline = Pipeline(
                    trace, simulator.core_config, mechanism, seed
                )
                if sampling.active:
                    run = SampledRun(pipeline, sampling)
                    start = time.perf_counter()
                    warmed_up = run.warm_up(warmup)
                    stats = run.measure(measure)
                    wall = time.perf_counter() - start
                    # Effective throughput: the covered window (warm-up
                    # actually warmed + sampled measurement span) —
                    # both can fall short when the trace halts early.
                    simulated = warmed_up + stats.sampled_window
                else:
                    start = time.perf_counter()
                    stats = pipeline.run(measure, warmup)
                    wall = time.perf_counter() - start
                    # The run can end early if the trace halts before the
                    # window fills; count what was actually simulated.
                    simulated = pipeline.total_committed
                pipeline.close()
                if best_wall is None or wall < best_wall:
                    best_wall = wall
            report.samples.append(PerfSample(
                benchmark=benchmark,
                mechanism=mechanism.name,
                seed=seed,
                warmup=warmup,
                measure=measure,
                wall_seconds=round(best_wall, 4),
                kips=round(simulated / best_wall / 1000.0, 2),
                ipc=round(stats.ipc, 4),
                cycles=stats.cycles,
                trace_build_seconds=round(trace_build, 4),
            ))
            total_wall += best_wall
            total_instructions += simulated
        report.aggregate_kips[mechanism.name] = (
            total_instructions / total_wall / 1000.0
        )
    return report


def render_report(report: PerfReport) -> str:
    """Human-readable table of one report."""
    lines = [
        f"simulated-throughput (warmup {report.warmup}, "
        f"measure {report.measure}, best of {report.repeats})",
        f"{'benchmark':<12} {'mechanism':<16} {'KIPS':>9} "
        f"{'IPC':>7} {'wall s':>8}",
    ]
    for sample in report.samples:
        lines.append(
            f"{sample.benchmark:<12} {sample.mechanism:<16} "
            f"{sample.kips:>9.1f} {sample.ipc:>7.3f} "
            f"{sample.wall_seconds:>8.3f}"
        )
    for name, kips in report.aggregate_kips.items():
        lines.append(f"aggregate    {name:<16} {kips:>9.1f}")
    return "\n".join(lines)


#: CI fails when smoke KIPS drops below this fraction of the recorded
#: reference (>30% regression).  Single source of truth for the gate —
#: the recorded ``smoke.tolerance`` in BENCH_perf.json overrides it.
SMOKE_TOLERANCE = 0.70


def throughput_smoke(json_path, repeats: int = 3) -> int:
    """CI regression gate: re-measure the recorded smoke cell.

    Reads the ``smoke`` section of a committed ``BENCH_perf.json``
    (written by ``benchmarks/bench_perf_throughput.py``), re-measures
    that cell and fails (non-zero) when any mechanism's aggregate KIPS
    drops below ``tolerance`` of the recorded reference.  Lives here —
    not in the bench script — so the installed ``repro perf --smoke``
    entry point can run it without the repository checkout layout.
    """
    from pathlib import Path

    json_path = Path(json_path)
    if not json_path.exists():
        print(f"no {json_path}: run benchmarks/bench_perf_throughput.py "
              "once to record the smoke reference", file=sys.stderr)
        return 2
    recorded = json.loads(json_path.read_text(encoding="utf-8"))
    smoke_ref = recorded.get("smoke")
    if not smoke_ref:
        print(f"{json_path} has no smoke section; re-run the full "
              "throughput bench", file=sys.stderr)
        return 2

    report = measure_throughput(
        benchmarks=(smoke_ref["benchmark"],),
        mechanisms=list(default_mechanisms()),
        warmup=smoke_ref["warmup"],
        measure=smoke_ref["measure"],
        repeats=repeats,
    )
    print(render_report(report))
    tolerance = smoke_ref.get("tolerance", SMOKE_TOLERANCE)
    failed = False
    for name, reference in smoke_ref["aggregate_kips"].items():
        current = report.aggregate_kips.get(name)
        if current is None:
            continue
        floor = reference * tolerance
        verdict = "ok" if current >= floor else "REGRESSION"
        print(f"smoke {name}: {current:.1f} KIPS vs recorded "
              f"{reference:.1f} (floor {floor:.1f}) -> {verdict}")
        if current < floor:
            failed = True
    if failed:
        print("smoke throughput regressed more than "
              f"{(1 - tolerance) * 100:.0f}% — failing", file=sys.stderr)
        return 1
    return 0
