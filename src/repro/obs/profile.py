"""The phase profiler behind ``repro profile`` (and the CI obs gate).

Two tools in one module:

* :func:`phase_profile` times one fresh pipeline per benchmark, its
  trace built (and timed as ``interp``) outside the run, with every
  pipeline stage wrapped in a wall-clock accumulator, and emits one
  comparable, versioned JSON payload: the stage split plus a KIPS row
  per benchmark.  Stage wrapping is instance-attribute shadowing — the
  same binding trick the generated loops use — so whatever stage is
  installed is exactly what gets attributed.
* :func:`overhead_gate` is the observability plane's own CI gate: it
  runs the identical cell with obs off and on (interleaved repeats) and
  requires the obs-on stats to equal the obs-off stats field for field.
  It prints each arm's best-of KIPS for information only.

Timing wrappers cost real wall (5 ``perf_counter`` pairs per cycle), so
profiled KIPS read below an uninstrumented run's (the end-to-end
benchmark in ``e2ebench/`` times those); compare them only with other
profiles.  Host clocks wobble, so no gate reads them: the exact perf
gate counts calls into this package per fixed cell, the obs-on cell
included (``tests/test_call_counts.py``).
"""

from __future__ import annotations

import dataclasses
import json
import tempfile
import time

#: Profile payload layout version.
PROFILE_FORMAT = 1

#: Stage name -> the pipeline attribute it times.  ``idle`` is the
#: event-driven fast-forward (DESIGN.md §7); ``interp`` (trace build)
#: and ``warm`` (functional warming) are timed at their call sites.
STAGE_ATTRS: tuple[tuple[str, str], ...] = (
    ("commit", "_commit"),
    ("issue", "_issue"),
    ("rename", "_rename"),
    ("fetch", "_fetch"),
    ("idle", "_fast_forward_idle"),
)

DEFAULT_BENCHMARKS: tuple[str, ...] = ("mcf", "bzip2")


def _instrument_stages(pipeline, acc: dict[str, float]) -> None:
    """Shadow each stage with a timing wrapper accumulating into *acc*.

    ``getattr`` picks up whatever is installed — class methods or
    generated loops — and the wrapper becomes the instance attribute
    ``_step`` dispatches to.
    """
    clock = time.perf_counter
    for stage, attr in STAGE_ATTRS:
        inner = getattr(pipeline, attr)

        def timed(*args, _inner=inner, _stage=stage):
            start = clock()
            try:
                return _inner(*args)
            finally:
                acc[_stage] += clock() - start

        setattr(pipeline, attr, timed)


def _profile_cells(benchmarks, mechanism, warmup: int, measure: int,
                   sampling, seed: int) -> dict:
    """Stage attribution over one cell per benchmark."""
    from repro.pipeline.core import Pipeline
    from repro.pipeline.simulator import _TRACE_SLACK, Simulator
    from repro.sampling import SampledRun

    clock = time.perf_counter
    # A private, store-less simulator: interpretation really runs (and
    # is really timed) instead of hitting a shared cache.
    simulator = Simulator(trace_store=None)
    stages = {name: 0.0 for name, _ in STAGE_ATTRS}
    stages["interp"] = 0.0
    stages["warm"] = 0.0
    rows, wall = {}, 0.0
    for benchmark in benchmarks:
        start = clock()
        trace = simulator.trace_for(
            benchmark, seed, warmup + measure + _TRACE_SLACK
        )
        stages["interp"] += clock() - start
        pipeline = Pipeline(trace, simulator.core_config, mechanism, seed)
        _instrument_stages(pipeline, stages)
        start = clock()
        if sampling.active:
            run = SampledRun(pipeline, sampling)
            inner_warm = run.warmer.warm

            def timed_warm(*args, _inner=inner_warm):
                warm_start = clock()
                try:
                    return _inner(*args)
                finally:
                    stages["warm"] += clock() - warm_start

            run.warmer.warm = timed_warm
            warmed = run.warm_up(warmup)
            stats = run.measure(measure)
            del run.warmer.warm  # the wrapper and the warmer form a cycle
            covered = warmed + (stats.sampled_window or stats.committed)
        else:
            pipeline.run(measure, warmup)
            covered = pipeline.total_committed
        elapsed = clock() - start
        wall += elapsed
        rows[benchmark] = _kips_row(covered, elapsed)
        pipeline.close()
    covered = sum(row["instructions"] for row in rows.values())
    attributed = sum(stages.values()) - stages["interp"]
    return {
        "stages_seconds": {k: round(v, 4) for k, v in sorted(stages.items())},
        "other_seconds": round(max(0.0, wall - attributed), 4),
        "benchmarks": rows,
        **_kips_row(covered, wall),
    }


def _kips_row(instructions: int, wall: float) -> dict:
    """Covered instructions, run wall and their instrumented KIPS."""
    return {
        "instructions": instructions,
        "wall_seconds": round(wall, 4),
        "kips_instrumented": (
            round(instructions / wall / 1000.0, 1) if wall else 0.0
        ),
    }


def phase_profile(
    benchmarks=DEFAULT_BENCHMARKS,
    mechanism_name: str = "rsep-realistic",
    *,
    warmup: int,
    measure: int,
    sampling,
    combos: str = "current",
    seed: int = 1,
) -> dict:
    """Per-stage wall attribution of one profiled run.

    An active *sampling* makes warming show up as a phase (``repro
    profile`` samples unless ``--full-detail``).  There is one compute
    plane: the result sits under ``combos`` as its single entry, keyed
    ``"current"``, and *combos* is accepted for existing callers and
    changes nothing.
    """
    from repro.pipeline.config import MechanismConfig

    mechanism = MechanismConfig.preset(mechanism_name)
    result = _profile_cells(
        benchmarks, mechanism, warmup, measure, sampling, seed
    )
    return {
        "format": PROFILE_FORMAT,
        "unit": "seconds of wall clock per stage (instrumented run)",
        "benchmarks": list(benchmarks),
        "mechanism": mechanism.name,
        "warmup": warmup,
        "measure": measure,
        "sampled": sampling.active,
        "seed": seed,
        "combos": {"current": result},
    }


def render_profile(payload: dict) -> str:
    """Human-readable table of one :func:`phase_profile` payload."""
    lines = [
        f"phase profile (format {payload['format']}): "
        f"{', '.join(payload['benchmarks'])} × {payload['mechanism']}, "
        f"warmup {payload['warmup']}, measure {payload['measure']}, "
        f"{'sampled' if payload['sampled'] else 'full detail'}",
    ]
    (result,) = payload["combos"].values()
    # Interpretation is timed outside the pipeline-run wall, so shares
    # are of the combined (interp + run) total.
    wall = (
        result["wall_seconds"] + result["stages_seconds"].get("interp", 0.0)
    ) or 1e-9
    lines.append(f"run wall {result['wall_seconds']:.3f}s (+ interp), "
                 f"~{result['kips_instrumented']:.0f} KIPS instrumented")
    stage_items = sorted(
        result["stages_seconds"].items(), key=lambda item: -item[1],
    )
    for stage, seconds in stage_items:
        share = 100.0 * seconds / wall
        lines.append(f"  {stage:<8} {seconds:>8.3f}s  {share:5.1f}%")
    lines.append(
        f"  {'other':<8} {result['other_seconds']:>8.3f}s  "
        f"{100.0 * result['other_seconds'] / wall:5.1f}%"
    )
    lines.append(f"  {'benchmark':<12} {'instructions':>12} "
                 f"{'run wall s':>10} {'KIPS':>8}")
    for benchmark, row in result["benchmarks"].items():
        lines.append(
            f"  {benchmark:<12} {row['instructions']:>12} "
            f"{row['wall_seconds']:>10.3f} {row['kips_instrumented']:>8.1f}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The observability overhead gate (CI)
# ---------------------------------------------------------------------------


def overhead_gate(
    benchmark: str = "mcf",
    mechanism_name: str = "rsep-realistic",
    warmup: int = 2000,
    measure: int = 12000,
    repeats: int = 3,
    metrics_every: int = 500,
    obs_dir: str | None = None,
    seed: int = 1,
) -> tuple[bool, dict]:
    """A/B-verify the obs-on plane: bit-identical stats.

    Returns ``(ok, report)``: ``ok`` requires the on-arm stats to equal
    the off-arm stats field for field.  Repeats alternate off/on, and
    the report carries each arm's best-of KIPS for information: wall
    clock follows the host, so the obs-on arm's cost is bounded by its
    pinned call count instead (``tests/test_call_counts.py``).  The off
    arm must really run unobserved, so a call under an installed
    runtime (``REPRO_OBS=1 repro profile --gate``) is refused.
    """
    from repro.harness.sweep import shared_engine
    from repro.obs import runtime as obs_runtime
    from repro.obs.config import ObsSpec
    from repro.pipeline.config import MechanismConfig
    from repro.pipeline.core import Pipeline
    from repro.pipeline.simulator import _TRACE_SLACK

    if obs_runtime.current() is not None:
        raise ValueError(
            "the overhead gate needs an unobserved process for its off "
            "arm; unset REPRO_OBS"
        )
    clock = time.perf_counter
    simulator = shared_engine().simulator
    mechanism = MechanismConfig.preset(mechanism_name)
    trace = simulator.trace_for(
        benchmark, seed, warmup + measure + _TRACE_SLACK
    )
    if obs_dir is None:
        obs_dir = tempfile.mkdtemp(prefix="repro-obs-gate-")
    best: dict[str, float | None] = {"off": None, "on": None}
    observed_stats: dict[str, dict] = {}
    arm_spec = {
        "off": None,
        "on": ObsSpec(enabled=True, dir=obs_dir,
                      metrics_every=metrics_every),
    }
    for _ in range(max(1, repeats)):
        for arm in ("off", "on"):
            with obs_runtime.activated(arm_spec[arm]):
                pipeline = Pipeline(
                    trace, simulator.core_config, mechanism, seed
                )
                start = clock()
                stats = pipeline.run(measure, warmup)
                wall = clock() - start
            pipeline.close()
            observed_stats[arm] = dataclasses.asdict(stats)
            simulated = pipeline.total_committed
            if best[arm] is None or wall < best[arm]:
                best[arm] = wall
    kips = {
        arm: simulated / best[arm] / 1000.0 for arm in ("off", "on")
    }
    identical = observed_stats["off"] == observed_stats["on"]
    report = {
        "benchmark": benchmark,
        "mechanism": mechanism.name,
        "warmup": warmup,
        "measure": measure,
        "repeats": repeats,
        "metrics_every": metrics_every,
        "kips_off": round(kips["off"], 1),
        "kips_on": round(kips["on"], 1),
        "overhead_pct": round(100.0 * (1.0 - kips["on"] / kips["off"]), 2),
        "stats_identical": identical,
        "ok": identical,
    }
    return report["ok"], report


def render_gate(report: dict) -> str:
    verdict = "ok" if report["ok"] else "FAILED"
    return (
        f"obs overhead gate: {report['benchmark']} × {report['mechanism']} "
        f"(best of {report['repeats']})\n"
        f"  off: {report['kips_off']:.1f} KIPS   "
        f"on: {report['kips_on']:.1f} KIPS   "
        f"overhead {report['overhead_pct']:+.1f}% (information only)\n"
        f"  stats bit-identical: {report['stats_identical']}\n"
        f"  -> {verdict}"
    )


def write_json(payload: dict, path: str) -> None:
    from repro.common.atomicio import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True)
                      + "\n")
