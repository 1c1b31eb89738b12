#!/usr/bin/env python3
"""Quickstart: one benchmark under the baseline and under RSEP.

Usage::

    python examples/quickstart.py [benchmark]

Shows the front-door API (DESIGN.md §10): describe the experiment as a
typed :class:`ExperimentSpec` (the environment overlays defaults exactly
once, at construction), run it through a :class:`Session`, and read
IPC/coverage/accuracy off the versioned :class:`RunResult` artifact.
``Session.for_spec`` hands the spec the process-wide sweep engine —
built once on the environment's store, the same code path the figure
benches and the ``repro`` CLI use — so its simulator serves traces from
the persistent on-disk trace store, the second invocation of this
script skips interpretation entirely, and identical cells are
simulated only once per process.

The equivalent CLI invocation::

    repro sweep --benchmark dealII --mechanism baseline --mechanism rsep
"""

import sys

from repro.api import ExperimentSpec, Session
from repro.pipeline.config import MechanismConfig


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "dealII"
    spec = ExperimentSpec.from_env(
        benchmarks=[benchmark],
        mechanisms=[
            MechanismConfig.baseline(), MechanismConfig.rsep_ideal()
        ],
    )
    session = Session.for_spec(spec)
    result = session.run(spec)

    base = result.outcome(benchmark, "baseline")
    rsep = result.outcome(benchmark, "rsep")
    print(f"benchmark          : {benchmark}")
    print(f"spec fingerprint   : {result.fingerprint}")
    print(f"window             : warmup {spec.window.warmup}, "
          f"measure {spec.window.measure}")
    print(f"baseline IPC       : {base.ipc:.3f}")
    print(f"RSEP IPC           : {rsep.ipc:.3f}")
    print(f"speedup            : {result.speedup(benchmark, 'rsep'):+.1%}")
    stats = rsep.merged_stats[0]
    print(f"distance-predicted : {stats.dist_pred} commits "
          f"({stats.coverage_fraction(stats.dist_pred):.1%} of committed)")
    print(f"RSEP accuracy      : {stats.rsep_accuracy:.4f}")
    print(f"squashes (RSEP)    : {stats.squashes_rsep}")
    store = session.simulator.trace_store
    if store is not None:
        print(f"trace store        : {store.root} "
              f"(hits {store.hits}, misses {store.misses})")
    # The artifact round-trips through JSON with its fingerprint intact:
    # `repro report <file>` renders it, `repro inspect <file>` shows its
    # provenance.  (See `repro sweep --json`.)


if __name__ == "__main__":
    main()
