"""Figure 7: ideal RSEP (42.6KB, large structures, free validation) versus
the realistic 10.1KB configuration (128-entry FIFO history, 24-entry ISRB,
sampling threshold 63, re-issue validation).

Thin shell over :mod:`repro.api.figures` (the formatter also prints the
realistic configuration's storage report).
"""

from conftest import bench_benchmarks, bench_session

from repro.api.figures import run_figure


def run_fig7():
    result, text = run_figure(
        "fig7",
        session=bench_session(),
        benchmarks=bench_benchmarks(),
    )
    print(text)
    return result


def test_fig7_realistic(benchmark):
    result = benchmark.pedantic(run_fig7, rounds=1, iterations=1)
    # The realistic configuration keeps part of the ideal speedup on the
    # RSEP-friendly benchmarks and never turns a win into a large loss.
    for name in ("hmmer", "dealII"):
        ideal = result.speedup(name, "rsep")
        realistic = result.speedup(name, "rsep-realistic")
        assert ideal > 0.04
        assert realistic > -0.02
        assert realistic <= ideal + 0.03  # finite structures cannot win big
