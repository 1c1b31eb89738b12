"""The phase profiler behind ``repro profile``.

:func:`phase_profile` times one fresh pipeline per benchmark, its trace
built (and timed as ``interp``) outside the run, with every pipeline
stage wrapped in a wall-clock accumulator, and emits one comparable,
versioned JSON payload: the stage split plus a KIPS row per benchmark.
Stage wrapping is instance-attribute shadowing — the same binding trick
the generated loops use — so whatever stage is installed is exactly
what gets attributed.

Timing wrappers cost real wall (5 ``perf_counter`` pairs per cycle), so
profiled KIPS read below an uninstrumented run's (the end-to-end
benchmark in ``e2ebench/`` times those); compare them only with other
profiles.  Host clocks wobble, so no gate reads them: the exact perf
gate counts calls into this package per fixed cell, an observed cell
included (``tests/test_call_counts.py``), and the obs plane's
bit-identity is a tier-1 test (``tests/test_obs.py::TestBitIdentity``).
"""

from __future__ import annotations

import json
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


def write_json(payload: dict, path: str) -> None:
    from repro.common.atomicio import atomic_write_text

    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True)
                      + "\n")
