"""Shared helpers for the test suites (no fixtures, plain imports)."""

from __future__ import annotations

import dataclasses


def stats_dict(stats) -> dict:
    """Stats as a plain dict (without the free-form extras).

    The canonical bit-for-bit comparison form used by the golden,
    equivalence, store, sampling and sweep suites alike.
    """
    data = dataclasses.asdict(stats)
    data.pop("extra")
    return data


def event_records(directory) -> list[dict]:
    """Every record of every obs event stream in *directory*."""
    from pathlib import Path

    from repro.obs import read_events

    return [
        record for path in sorted(Path(directory).glob("events-*.jsonl"))
        for record in read_events(path)[0]
    ]


def use_generic_stages(monkeypatch) -> None:
    """Keep the generic rename/issue methods on pipelines built from now
    on: the install of the generated loops becomes a no-op."""
    from repro.pipeline import core

    monkeypatch.setattr(core, "install_fast_stages", lambda pipeline: None)


def plant_object_trace(simulator, benchmark: str, warmup: int,
                       measure: int, seed: int = 1) -> None:
    """Make *simulator* run *benchmark* on an object ``Trace``.

    The simulator builds (or loads) its columnar trace as usual; the
    object trace is decoded from that trace's packed payload and put in
    its place in the in-memory trace cache, so ``run_benchmark`` drives
    the object fetch and warming loops over identical content.
    """
    from repro.pipeline.simulator import _TRACE_SLACK
    from repro.workloads.columnar import unpack_trace
    from repro.workloads.store import workload_code_version

    budget = warmup + measure + _TRACE_SLACK
    columnar = simulator.trace_for(benchmark, seed, budget)
    trace, _ = unpack_trace(columnar.to_payload(budget))
    key = (benchmark, seed, workload_code_version())
    simulator._trace_cache[key] = (trace, budget)
