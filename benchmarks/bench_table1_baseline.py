"""Table I: the simulator configuration, plus baseline IPC per benchmark
(the sanity row every evaluation starts from).

Thin shell over :mod:`repro.api.figures`.
"""

from conftest import bench_benchmarks, bench_session

from repro.api.figures import run_figure


def run_table1():
    result, text = run_figure(
        "table1",
        session=bench_session(),
        benchmarks=bench_benchmarks(),
    )
    print(text)
    return result


def test_table1_baseline(benchmark):
    result = benchmark.pedantic(run_table1, rounds=1, iterations=1)
    ipcs = [
        result.outcome(name, "baseline").ipc for name in result.benchmarks
    ]
    # SPEC-like IPC band on a Haswell-class 8-wide core.
    assert all(0.2 < ipc < 8.0 for ipc in ipcs)
    assert min(ipcs) < 1.5  # memory/branch-bound benchmarks exist
    assert max(ipcs) > 2.5  # ILP-rich benchmarks exist
