"""The paper's figures as declarative specs + formatters.

Each timing figure is a :class:`FigureDef`: a fixed mechanism list, a
spec factory (the benchmark list and window overlay the environment the
usual way) and a pure formatter from a :class:`~repro.api.result.RunResult`
to the rendered table.  ``repro figures fig4`` and
``benchmarks/bench_fig4_speedup.py`` are both thin shells over this
module, so the figure definitions exist exactly once.

:func:`run_figures` runs several figures as one batch: the union of
their cells, each simulated once and fanned out over the cores, sliced
back into one artifact per figure.

Figure 1 is the odd one out — a functional redundancy analysis with no
timing sweep — so it runs through its own analysis path and has no
:class:`~repro.api.spec.ExperimentSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.api import env as api_env
from repro.api.result import CellResult, RunResult
from repro.api.spec import ExperimentSpec, WindowSpec
from repro.core.validation import ValidationMode
from repro.harness.reporting import Table, harmonic_mean
from repro.pipeline.config import CoreConfig, MechanismConfig

# ---------------------------------------------------------------------------
# Mechanism lists (one per figure)
# ---------------------------------------------------------------------------

FIG4_MECHANISMS: tuple[MechanismConfig, ...] = (
    MechanismConfig.baseline(),
    MechanismConfig.zero_prediction(),
    MechanismConfig.move_elimination(),
    MechanismConfig.rsep_ideal(),
    MechanismConfig.value_prediction(),
    MechanismConfig.rsep_plus_vp(),
)

FIG5_MECHANISMS: tuple[MechanismConfig, ...] = (
    MechanismConfig.rsep_ideal(),
    MechanismConfig.rsep_plus_vp(),
)

FIG6_VARIANTS: tuple[MechanismConfig, ...] = (
    MechanismConfig.baseline(),
    MechanismConfig.rsep_validation(ValidationMode.IDEAL),
    MechanismConfig.rsep_validation(ValidationMode.REISSUE_LOCK_FU),
    MechanismConfig.rsep_validation(ValidationMode.REISSUE_ANY_FU),
    MechanismConfig.rsep_validation(
        ValidationMode.REISSUE_ANY_FU, sampling=True, start_train_threshold=15
    ),
    MechanismConfig.rsep_validation(
        ValidationMode.REISSUE_ANY_FU, sampling=True, start_train_threshold=63
    ),
)

FIG7_MECHANISMS: tuple[MechanismConfig, ...] = (
    MechanismConfig.baseline(),
    MechanismConfig.rsep_ideal(),
    MechanismConfig.rsep_realistic(),
)

TABLE1_MECHANISMS: tuple[MechanismConfig, ...] = (
    MechanismConfig.baseline(),
)

# ---------------------------------------------------------------------------
# Formatters (RunResult -> rendered text)
# ---------------------------------------------------------------------------


def _format_fig4(result: RunResult) -> str:
    table = Table([
        "benchmark", "base IPC", "zero%", "move%", "rsep%", "vpred%",
        "rsep+vp%",
    ])
    for name in result.benchmarks:
        table.add_row(
            name,
            f"{result.outcome(name, 'baseline').ipc:.3f}",
            *(
                f"{100 * result.speedup(name, mech.name):+.1f}"
                for mech in FIG4_MECHANISMS[1:]
            ),
        )
    return ("\nFigure 4 — speedup over baseline by mechanism\n"
            + table.render())


def _format_fig5(result: RunResult) -> str:
    table = Table([
        "benchmark", "config", "idiom%", "move%", "zero%", "dist%",
        "dist(ld)%", "vpred%", "vpred(ld)%",
    ])
    for name in result.benchmarks:
        for mechanism in ("rsep", "rsep+vpred"):
            outcome = result.outcome(name, mechanism)
            table.add_row(
                name,
                mechanism,
                f"{100 * outcome.stat_fraction('zero_idiom_elim'):.1f}",
                f"{100 * outcome.stat_fraction('move_elim'):.1f}",
                f"{100 * outcome.stat_fraction('zero_pred'):.1f}",
                f"{100 * outcome.stat_fraction('dist_pred'):.1f}",
                f"{100 * outcome.stat_fraction('dist_pred_load'):.1f}",
                f"{100 * outcome.stat_fraction('value_pred'):.1f}",
                f"{100 * outcome.stat_fraction('value_pred_load'):.1f}",
            )
    return ("\nFigure 5 — committed-instruction coverage per mechanism\n"
            + table.render())


def _format_fig6(result: RunResult) -> str:
    table = Table([
        "benchmark", "ideal%", "lockFU%", "anyFU%", "samp15%", "samp63%",
    ])
    for name in result.benchmarks:
        table.add_row(
            name,
            *(
                f"{100 * result.speedup(name, mech.name):+.1f}"
                for mech in FIG6_VARIANTS[1:]
            ),
        )
    return ("\nFigure 6 — validation & sampling impact on RSEP speedup\n"
            + table.render())


def _format_fig7(result: RunResult) -> str:
    from repro.common.history import GlobalHistory, PathHistory
    from repro.common.rng import XorShift64
    from repro.core.rsep import RsepConfig, RsepUnit

    table = Table(["benchmark", "ideal%", "realistic%"])
    for name in result.benchmarks:
        table.add_row(
            name,
            f"{100 * result.speedup(name, 'rsep'):+.1f}",
            f"{100 * result.speedup(name, 'rsep-realistic'):+.1f}",
        )
    unit = RsepUnit(
        RsepConfig.realistic(), GlobalHistory(), PathHistory(), XorShift64(1)
    )
    report = unit.storage_report()
    return (
        "\nFigure 7 — ideal (42.6KB) vs realistic (10.1KB) RSEP\n"
        + table.render()
        + f"\n\nRealistic RSEP storage: {report.total_kib:.2f} KB "
        "(paper: ~10.8KB incl. ISRB)"
    )


def _format_table1(result: RunResult) -> str:
    config = CoreConfig()
    lines = [
        "\nTable I — simulator configuration",
        f"  fetch/rename/commit width : {config.fetch_width}",
        f"  ROB / IQ / LQ / SQ        : {config.rob_entries} / "
        f"{config.iq_entries} / {config.lq_entries} / {config.sq_entries}",
        f"  INT / FP physical regs    : {config.int_pregs} / "
        f"{config.fp_pregs}",
        f"  min mispredict penalty    : {config.mispredict_penalty}",
        f"  L1D/L2/L3 latency         : {config.memory.l1d_latency} / "
        f"{config.memory.l2_latency} / {config.memory.l3_latency}",
        f"  STLF latency              : {config.stlf_latency}",
    ]
    table = Table(["benchmark", "baseline IPC", "branch MPKI"])
    for name in result.benchmarks:
        outcome = result.outcome(name, "baseline")
        mpki = harmonic_mean(
            [s.branch_mpki for s in outcome.merged_stats if s.branch_mpki]
            or [0.0]
        )
        table.add_row(name, f"{outcome.ipc:.3f}", f"{mpki:.1f}")
    return "\n".join(lines) + "\n" + table.render()


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FigureDef:
    """One figure: its mechanisms and its formatter."""

    name: str
    title: str
    mechanisms: tuple[MechanismConfig, ...]
    format: Callable[[RunResult], str]


FIGURES: dict[str, FigureDef] = {
    fig.name: fig
    for fig in (
        FigureDef("fig4", "speedup over baseline by mechanism",
                  FIG4_MECHANISMS, _format_fig4),
        FigureDef("fig5", "committed-instruction coverage per mechanism",
                  FIG5_MECHANISMS, _format_fig5),
        FigureDef("fig6", "validation & sampling impact on RSEP speedup",
                  FIG6_VARIANTS, _format_fig6),
        FigureDef("fig7", "ideal vs realistic RSEP",
                  FIG7_MECHANISMS, _format_fig7),
        FigureDef("table1", "simulator configuration + baseline IPC",
                  TABLE1_MECHANISMS, _format_table1),
    )
}

#: Names accepted by ``repro figures`` — the sweep figures above plus
#: the functional fig1.
FIGURE_NAMES: tuple[str, ...] = ("fig1",) + tuple(FIGURES)


def figure_spec(
    name: str,
    benchmarks=None,
    window: WindowSpec | None = None,
    seeds=None,
) -> ExperimentSpec:
    """The :class:`ExperimentSpec` of one sweep figure.

    Everything not fixed by the figure (benchmark subset, window, seeds,
    store) overlays the environment exactly like
    :meth:`ExperimentSpec.from_env`.  ``shards`` is 0: how a figure
    fans out is its batch's choice, resolved once by
    :func:`run_figures`.
    """
    if name not in FIGURES:
        raise KeyError(
            f"unknown figure {name!r} (sweep figures: {sorted(FIGURES)}; "
            "fig1 is a functional analysis without a spec)"
        )
    return ExperimentSpec.from_env(
        benchmarks=benchmarks,
        mechanisms=FIGURES[name].mechanisms,
        window=window,
        seeds=seeds,
        shards=0,
    )


def render_figure(name: str, result: RunResult) -> str:
    """Render *result* with figure *name*'s formatter."""
    return FIGURES[name].format(result)


def run_fig1(instructions: int = 20000, benchmarks=None):
    """Figure 1 (functional redundancy): returns (profiles, text).

    Defaults to all 29 benchmarks at 20000 instructions (it needs no
    timing model, so the full suite is cheap); both are overridable so
    the CLI's ``--benchmark``/``--measure`` flags mean the same thing
    here as for the sweep figures.
    """
    from repro.harness.redundancy import analyze_benchmark
    from repro.workloads.spec2006 import benchmark_names

    table = Table([
        "benchmark", "zero(ld)%", "zero(other)%",
        "inPRF(ld)%", "inPRF(other)%", "total%",
    ])
    profiles = []
    for name in benchmarks or benchmark_names():
        profile = analyze_benchmark(name, instructions=instructions)
        profiles.append(profile)
        table.add_row(
            name,
            f"{100 * profile.fraction(profile.zero_load):.1f}",
            f"{100 * profile.fraction(profile.zero_other):.1f}",
            f"{100 * profile.fraction(profile.in_prf_load):.1f}",
            f"{100 * profile.fraction(profile.in_prf_other):.1f}",
            f"{100 * profile.total_redundant_fraction:.1f}",
        )
    text = ("\nFigure 1 — commit-time value redundancy\n" + table.render())
    return profiles, text


def run_figures(
    names,
    benchmarks=None,
    window: WindowSpec | None = None,
    seeds=None,
    session=None,
):
    """Run the sweep figures *names* as one batch: ``(results, outcome)``.

    The figures' specs differ only in their mechanisms, so the batch is
    one spec over the union of those mechanisms by fingerprint, each
    named as the first figure naming it: a cell two figures share (the
    baseline, ideal RSEP) simulates once.  Without a *session* the batch
    goes through :meth:`Session.run_sharded` over forked workers, one
    shard per benchmark (``REPRO_SHARDS`` overrides; ``1`` keeps it in
    process); a given *session* runs it in process on its own engine.
    Every figure's spec records the shard count its batch ran with.

    *results* maps every figure whose cells all arrived to its own
    :class:`RunResult`: the figure's :func:`figure_spec`, mechanism
    names and canonical cell order, so it is digest-identical to
    ``Session.run(figure_spec(...))``.  *outcome* is the batch's
    :class:`~repro.service.supervisor.ShardedSweepResult`; its
    ``holes`` name the cells quarantined shards lost, and a figure
    missing any of them is left out of *results*.
    """
    from repro.api.session import Session

    specs = {
        name: figure_spec(name, benchmarks=benchmarks, window=window,
                          seeds=seeds)
        for name in names
    }
    if not specs:
        raise ValueError("run_figures needs at least one sweep figure")
    unique: dict[str, MechanismConfig] = {}
    for spec in specs.values():
        for mechanism in spec.mechanisms:
            unique.setdefault(mechanism.fingerprint(), mechanism)
    first = next(iter(specs.values()))
    # One shard count, resolved once: the batch runs with it and every
    # figure's artifact records it.
    shards = 1 if session is not None else api_env.shards_from_env(
        default=len(first.benchmarks)
    )
    batch = replace(first, mechanisms=tuple(unique.values()), shards=shards)
    if session is None:
        session = Session.for_spec(batch)
    outcome = session.run_sharded(batch)
    stats = {
        (cell.benchmark, cell.mechanism, cell.seed): cell.stats
        for cell in outcome.result.cells
    }
    batch_name = {fp: mechanism.name for fp, mechanism in unique.items()}
    results = {}
    for name, spec in specs.items():
        try:
            cells = [
                CellResult(
                    benchmark, mechanism.name, seed,
                    stats[benchmark, batch_name[mechanism.fingerprint()],
                          seed],
                )
                for benchmark in spec.benchmarks
                for mechanism in spec.mechanisms
                for seed in spec.seeds
            ]
        except KeyError:  # a hole: the figure is incomplete
            continue
        results[name] = RunResult(
            spec=replace(spec, shards=shards), cells=cells,
            telemetry=outcome.result.telemetry,
        )
    return results, outcome


def run_figure(
    name: str,
    session=None,
    benchmarks=None,
    window: WindowSpec | None = None,
    seeds=None,
):
    """Run one figure end to end; returns ``(result, rendered text)``.

    For sweep figures *result* is the :class:`RunResult` artifact (see
    :func:`run_figures`); for ``fig1`` it is the list of redundancy
    profiles.  A sweep figure that lost cells to quarantined shards
    raises :class:`RuntimeError`.
    """
    if name == "fig1":
        return run_fig1(
            instructions=window.measure if window is not None else 20000,
            benchmarks=benchmarks,
        )
    results, outcome = run_figures(
        [name], benchmarks=benchmarks, window=window, seeds=seeds,
        session=session,
    )
    if name not in results:
        raise RuntimeError(
            f"{name} is incomplete: {len(outcome.holes)} cell(s) lost to "
            "quarantined shards"
        )
    return results[name], render_figure(name, results[name])
