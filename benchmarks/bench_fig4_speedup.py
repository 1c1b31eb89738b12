"""Figure 4: speedup over baseline for zero prediction, move elimination,
RSEP (ideal), value prediction, and RSEP + VP.

Thin shell: the mechanisms, spec and formatter live in
:mod:`repro.api.figures`; this bench only supplies the benchmark overlay
and the acceptance assertions (the window is the environment's, as for
``repro figures``).
"""

from conftest import bench_benchmarks, bench_session

from repro.api.figures import FIG4_MECHANISMS as MECHANISMS  # noqa: F401
from repro.api.figures import run_figure


def run_fig4():
    result, text = run_figure(
        "fig4",
        session=bench_session(),
        benchmarks=bench_benchmarks(),
    )
    print(text)
    return result


def test_fig4_speedup(benchmark):
    result = benchmark.pedantic(run_fig4, rounds=1, iterations=1)
    # Headline shapes: RSEP clearly helps its flagship benchmarks...
    assert result.speedup("hmmer", "rsep") > 0.04
    assert result.speedup("dealII", "rsep") > 0.04
    assert result.speedup("omnetpp", "rsep") > -0.01
    # ...while VP leads elsewhere and they do not fully overlap.
    assert result.speedup("perlbench", "vpred") > 0.01
    assert result.speedup("dealII", "rsep") > result.speedup(
        "dealII", "vpred"
    )
    # The combination never collapses far below the best single mechanism.
    for name in ("hmmer", "dealII", "libquantum"):
        best = max(
            result.speedup(name, "rsep"), result.speedup(name, "vpred")
        )
        assert result.speedup(name, "rsep+vpred") > best - 0.06
