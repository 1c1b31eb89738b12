"""Figure 6: impact of the validation mechanism and of commit sampling.

Five RSEP variants: ideal validation, issue-twice locked to the same FU,
issue-twice to any FU, and issue-twice-any-FU with sampling at start-train
thresholds 15 and 63.  Thin shell over :mod:`repro.api.figures`.
"""

from conftest import bench_benchmarks, bench_session

from repro.api.figures import FIG6_VARIANTS as VARIANTS
from repro.api.figures import run_figure


def run_fig6():
    result, text = run_figure(
        "fig6",
        session=bench_session(),
        benchmarks=bench_benchmarks(),
    )
    print(text)
    return result


def test_fig6_validation(benchmark):
    result = benchmark.pedantic(run_fig6, rounds=1, iterations=1)
    ideal = VARIANTS[1].name
    lock = VARIANTS[2].name
    any_fu = VARIANTS[3].name
    # §IV.F/Fig. 6: locking validation to the FU of the predicted
    # instruction must never beat the any-FU scheme on load-heavy code,
    # and ideal validation bounds both from above (within noise).
    for name in ("mcf", "hmmer", "dealII"):
        assert result.speedup(name, any_fu) >= result.speedup(
            name, lock
        ) - 0.02
        assert result.speedup(name, ideal) >= result.speedup(
            name, any_fu
        ) - 0.02
