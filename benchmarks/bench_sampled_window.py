#!/usr/bin/env python
"""Sampled-window bench: fidelity and wall-time of interval sampling.

Compares, on the 13-benchmark representative mix:

* **today's window** — full detail at the default 8k/20k window (the
  wall-time yardstick);
* **the scaled window** — full detail at ``--measure`` (default 200k),
  the fidelity reference;
* **the sampled window** — the same scaled window through the sampled
  subsystem (DESIGN.md §8).

and records per-benchmark IPC error, mix-level (harmonic-mean) error and
the three sweeps' wall times under a ``sampled_window`` section in
``BENCH_perf.json`` (the rest of the file is left untouched).  The
acceptance bar (ISSUE 3): mix IPC within 2% of the full-detail reference
while completing in at most 2× the wall time of today's sweep.

Traces are prebuilt through the shared store before any timing, so all
three sweeps measure simulation alone.

Usage::

    PYTHONPATH=src python benchmarks/bench_sampled_window.py
    PYTHONPATH=src python benchmarks/bench_sampled_window.py --measure 100000
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import replace
from pathlib import Path

from repro.api import env as api_env
from repro.harness.reporting import format_ipc, harmonic_mean
from repro.pipeline.simulator import _TRACE_SLACK, Simulator
from repro.sampling.config import SamplingConfig
from repro.workloads.spec2006 import representative_names

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = REPO_ROOT / "BENCH_perf.json"

#: The representative mix: every behaviour class the paper discusses.
REPRESENTATIVE = representative_names()


def _mechanisms():
    from repro.api.spec import default_mechanisms

    return list(default_mechanisms())


def _sweep(simulator, benchmarks, mechanisms, warmup, measure, sampling,
           repeats: int = 1):
    """{(benchmark, mechanism): result}, plus the sweep's wall time.

    With ``repeats`` > 1 the whole sweep is timed that many times and
    the best wall is kept — the perf harness's standard robust estimator
    under scheduler noise (results are deterministic across repeats).
    """
    out = {}
    best_wall = None
    for _ in range(max(1, repeats)):
        out = {}
        start = time.perf_counter()
        for benchmark in benchmarks:
            for mechanism in mechanisms:
                out[(benchmark, mechanism.name)] = simulator.run_benchmark(
                    benchmark, mechanism, warmup=warmup, measure=measure,
                    seed=1, sampling=sampling,
                )
        wall = time.perf_counter() - start
        if best_wall is None or wall < best_wall:
            best_wall = wall
    return out, best_wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--warmup", type=int, default=8000)
    parser.add_argument("--measure", type=int, default=200_000,
                        help="scaled window (default 200000)")
    parser.add_argument("--today-measure", type=int, default=20_000,
                        help="today's full-detail window (wall yardstick)")
    parser.add_argument("--interval", type=int, default=None)
    parser.add_argument("--detail-ratio", type=float, default=None)
    parser.add_argument("--json", type=Path, default=BENCH_JSON)
    args = parser.parse_args(argv)

    # checkpoints=False: record the conservative cold-warm-up wall (a
    # warm checkpoint store would only flatter repeated runs).
    sampling = replace(
        api_env.sampling_from_env(), enabled=True, checkpoints=False,
    )
    if args.interval is not None:
        sampling = replace(sampling, interval=args.interval)
    if args.detail_ratio is not None:
        sampling = replace(sampling, detail_ratio=args.detail_ratio)

    mechanisms = _mechanisms()
    simulator = Simulator()

    # Prebuild every trace (persisted in the shared store): all timed
    # regions below measure simulation, not interpretation.
    budget = args.warmup + args.measure + _TRACE_SLACK
    build_start = time.perf_counter()
    for benchmark in REPRESENTATIVE:
        simulator.trace_for(benchmark, 1, budget)
    build_wall = time.perf_counter() - build_start

    today, today_wall = _sweep(
        simulator, REPRESENTATIVE, mechanisms,
        args.warmup, args.today_measure, SamplingConfig(), repeats=2,
    )
    sampled, sampled_wall = _sweep(
        simulator, REPRESENTATIVE, mechanisms,
        args.warmup, args.measure, sampling, repeats=2,
    )
    full, full_wall = _sweep(
        simulator, REPRESENTATIVE, mechanisms,
        args.warmup, args.measure, SamplingConfig(),
    )

    print(f"traces: built/loaded in {build_wall:.1f}s "
          f"(budget {budget} instructions each)")
    print(f"{'benchmark':<12} {'mechanism':<16} {'full IPC':>9} "
          f"{'sampled IPC':>16} {'err':>7}")
    errors = []
    per_benchmark = {}
    for (benchmark, name), reference in full.items():
        estimate = sampled[(benchmark, name)]
        error = (estimate.ipc - reference.ipc) / reference.ipc
        errors.append(abs(error))
        per_benchmark.setdefault(name, {})[benchmark] = {
            "full_ipc": round(reference.ipc, 4),
            "sampled_ipc": round(estimate.ipc, 4),
            "ipc_ci": round(estimate.stats.ipc_ci, 4),
            "error": round(error, 4),
        }
        print(f"{benchmark:<12} {name:<16} {reference.ipc:>9.4f} "
              f"{format_ipc(estimate.stats):>16} {error:>+7.2%}")

    mix_errors = {}
    for mechanism in mechanisms:
        full_mix = harmonic_mean(
            full[(b, mechanism.name)].ipc for b in REPRESENTATIVE
        )
        sampled_mix = harmonic_mean(
            sampled[(b, mechanism.name)].ipc for b in REPRESENTATIVE
        )
        mix_errors[mechanism.name] = (sampled_mix - full_mix) / full_mix
        print(f"mix ({mechanism.name}): full {full_mix:.4f} sampled "
              f"{sampled_mix:.4f} err {mix_errors[mechanism.name]:+.2%}")

    ratio = sampled_wall / today_wall if today_wall else 0.0
    print(f"wall: today's {args.today_measure // 1000}k full-detail sweep "
          f"{today_wall:.1f}s; sampled {args.measure // 1000}k "
          f"{sampled_wall:.1f}s ({ratio:.2f}x); full {args.measure // 1000}k "
          f"{full_wall:.1f}s ({full_wall / sampled_wall:.1f}x the sampled)")

    payload = {}
    if args.json.exists():
        try:
            payload = json.loads(args.json.read_text(encoding="utf-8"))
        except ValueError:
            payload = {}
    payload["sampled_window"] = {
        "warmup": args.warmup,
        "measure": args.measure,
        "today_measure": args.today_measure,
        "sampling": {
            "interval": sampling.interval,
            "detail_ratio": sampling.detail_ratio,
            "detail_warmup": sampling.detail_warmup,
        },
        "mix_error": {
            name: round(value, 4) for name, value in mix_errors.items()
        },
        "max_abs_error": round(max(errors), 4),
        "mean_abs_error": round(sum(errors) / len(errors), 4),
        "today_wall_seconds": round(today_wall, 2),
        "sampled_wall_seconds": round(sampled_wall, 2),
        "full_wall_seconds": round(full_wall, 2),
        "wall_ratio_vs_today": round(ratio, 2),
        "per_benchmark": per_benchmark,
    }
    args.json.write_text(json.dumps(payload, indent=1) + "\n",
                         encoding="utf-8")
    print(f"wrote {args.json}")

    ok = all(abs(v) <= 0.02 for v in mix_errors.values()) and ratio <= 2.0
    print("acceptance: mix error <=2% and wall <=2x -> "
          + ("ok" if ok else "NOT MET"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
