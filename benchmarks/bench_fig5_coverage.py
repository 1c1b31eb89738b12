"""Figure 5: percentage of committed instructions covered by each
mechanism — RSEP alone, then VP on top of RSEP.

Thin shell over :mod:`repro.api.figures` (spec + formatter live there).
"""

from conftest import bench_benchmarks, bench_session

from repro.api.figures import run_figure


def run_fig5():
    result, text = run_figure(
        "fig5",
        session=bench_session(),
        benchmarks=bench_benchmarks(),
    )
    print(text)
    return result


def test_fig5_coverage(benchmark):
    result = benchmark.pedantic(run_fig5, rounds=1, iterations=1)
    # mcf: "almost only loads are predicted".
    mcf = result.outcome("mcf", "rsep")
    if mcf.stat_sum("dist_pred") > 100:
        assert (
            mcf.stat_sum("dist_pred_load")
            > 0.6 * mcf.stat_sum("dist_pred")
        )
    # dealII: mostly non-load distance predictions.
    dealii = result.outcome("dealII", "rsep")
    assert (
        dealii.stat_sum("dist_pred") - dealii.stat_sum("dist_pred_load")
        > dealii.stat_sum("dist_pred_load")
    )
    # VP on top of RSEP adds coverage without erasing RSEP's.
    combined = result.outcome("libquantum", "rsep+vpred")
    assert combined.stat_fraction("value_pred") > 0.05
    assert combined.stat_fraction("dist_pred") > 0.02
