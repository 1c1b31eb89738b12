"""Shared helpers for the figure benches.

Timing benches default to a representative benchmark subset and the
environment's window (``WindowSpec.from_env()``, 8000 + 20000, the one
``repro figures`` uses) so `pytest benchmarks/ --benchmark-only`
completes in minutes.  Set ``REPRO_FULL=1`` for all 29 benchmarks and
``REPRO_WARMUP`` / ``REPRO_MEASURE`` / ``REPRO_SEEDS`` for higher
fidelity.

The figure benches run through the spec API (:mod:`repro.api.figures`):
:func:`bench_session` is a default :class:`~repro.api.Session`, so all
benches of one pytest session share the process-wide sweep engine — the
persistent trace store (each functional trace is interpreted at most
once per machine) and the cell memo (cells appearing in several figures
— fig. 4's baseline is also fig. 6's, fig. 7's and Table I's — are
simulated exactly once per session).  :func:`run_ablation` runs the
ablation studies' specs on that same session.
"""

from repro.api import ExperimentSpec, RunResult, Session
from repro.api import env as api_env
from repro.workloads.spec2006 import benchmark_names, representative_names

#: Re-exported for bench code: the representative subset now lives with
#: the workloads (see repro.workloads.spec2006.REPRESENTATIVE).
REPRESENTATIVE = representative_names()


def bench_benchmarks() -> list[str]:
    if api_env.full_benchmarks_from_env():
        return benchmark_names()
    return representative_names()


def bench_session() -> Session:
    """A session on the process-wide shared sweep engine."""
    return Session()


def run_ablation(benchmarks: list[str], mechanisms) -> RunResult:
    """One ablation sweep at the environment's window on the shared
    session."""
    spec = ExperimentSpec.from_env(
        benchmarks=benchmarks, mechanisms=mechanisms,
    )
    return bench_session().run(spec)
