"""Pipeline lifetime: a finished cell's pipeline is freed by refcounting,
and no pipeline leaves state behind that a later cell reads.

The generated stages put every pipeline in reference cycles with itself
(DESIGN.md §12); ``Pipeline.close`` breaks them.  The tests below pause
the cyclic collector, so a pipeline some front door forgot to close
shows up as a live weak reference.
"""

from __future__ import annotations

import dataclasses
import gc
import weakref

import pytest

from repro.api.figures import FIGURES
from repro.harness.sweep import SweepEngine
from repro.obs.profile import phase_profile
from repro.pipeline.config import MechanismConfig
from repro.pipeline.core import Pipeline, PipelineError
from repro.pipeline.simulator import _TRACE_SLACK, Simulator
from repro.sampling import SampledRun, SamplingConfig, capture_checkpoint
from repro.workloads.store import TraceStore

from helpers import stats_dict  # noqa: E402

#: A small active sampling configuration, checkpoints on.
SAMPLED = SamplingConfig(
    enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128
)
WINDOW = dict(warmup=800, measure=2000)


@pytest.fixture
def built(monkeypatch):
    """Weak references to every ``Pipeline`` built in the test, which
    runs with the cyclic collector paused."""
    refs = []
    init = Pipeline.__init__

    def tracking_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Pipeline, "__init__", tracking_init)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if was_enabled:
            gc.enable()


def _live(refs) -> int:
    return sum(ref() is not None for ref in refs)


def _pipeline(simulator, mechanism=MechanismConfig.rsep_realistic()):
    trace = simulator.trace_for("mcf", 1, 3000 + _TRACE_SLACK)
    return Pipeline(trace, simulator.core_config, mechanism, 1)


class TestClose:
    def test_close_keeps_results_and_forbids_stepping(self):
        pipeline = _pipeline(Simulator(trace_store=None))
        stats = pipeline.run(2000, 500)
        before = stats_dict(stats)
        cycle = pipeline.cycle
        pipeline.close()
        pipeline.close()  # idempotent
        assert stats_dict(pipeline.stats) == before
        assert pipeline.cycle == cycle
        with pytest.raises(PipelineError, match="closed"):
            pipeline.run_until(pipeline.total_committed + 1)
        assert stats_dict(pipeline.stats) == before

    def test_closed_pipeline_is_freed_by_refcounting(self, built):
        pipeline = _pipeline(Simulator(trace_store=None))
        pipeline.run(2000, 500)
        pipeline.close()
        del pipeline
        assert len(built) == 1 and _live(built) == 0


class TestFreedWhenTheCellEnds:
    """Every front door that runs one pipeline per cell closes it."""

    def test_full_detail_cell(self, built):
        engine = SweepEngine(simulator=Simulator(trace_store=None))
        engine.run_cell("mcf", MechanismConfig.rsep_realistic(), 1, **WINDOW)
        assert len(built) == 1 and _live(built) == 0

    def test_sampled_cell_capturing_then_restoring_a_checkpoint(
        self, built, tmp_path
    ):
        mechanism = MechanismConfig.rsep_realistic()
        for _ in range(2):  # a fresh memo each time: capture, then restore
            engine = SweepEngine(
                simulator=Simulator(trace_store=TraceStore(tmp_path))
            )
            engine.run_cell("mcf", mechanism, 1, sampling=SAMPLED, **WINDOW)
        assert engine.simulator.trace_store.checkpoint_hits == 1
        assert len(built) == 2 and _live(built) == 0

    def test_sampled_cell_whose_checkpoint_fails_to_restore(
        self, built, tmp_path
    ):
        """A checkpoint captured for another mechanism, filed under this
        cell's token: the half-restored pipeline is thrown away."""
        store = TraceStore(tmp_path)
        simulator = Simulator(trace_store=store)
        foreign = _pipeline(simulator, MechanismConfig.rsep_realistic())
        SampledRun(foreign, SAMPLED).warm_up(WINDOW["warmup"])
        baseline = MechanismConfig.baseline()
        store.save_checkpoint(
            capture_checkpoint(foreign), "mcf", 1,
            simulator._checkpoint_token(baseline, WINDOW["warmup"]),
        )
        foreign.close()
        del foreign
        engine = SweepEngine(simulator=simulator)
        engine.run_cell("mcf", baseline, 1, sampling=SAMPLED, **WINDOW)
        # Loaded, then refused: a miss, re-warmed and re-captured.
        assert (store.checkpoint_hits, store.checkpoint_misses) == (0, 1)
        assert store.checkpoint_writes == 2
        assert len(built) == 3 and _live(built) == 0

    @pytest.mark.parametrize("sampling", [SamplingConfig(), SAMPLED],
                             ids=["full-detail", "sampled"])
    def test_phase_profile(self, built, sampling):
        phase_profile(["mcf"], sampling=sampling, **WINDOW)
        assert len(built) == 1 and _live(built) == 0


class TestCellIsolation:
    def test_stats_do_not_depend_on_execution_order(self):
        """The figures' 11 unique mechanisms on one simulator (one trace
        cache, one set of materialised rows), in order and reversed:
        neither a pipeline nor its close() changes what a later cell
        reads."""
        unique: dict[str, MechanismConfig] = {}
        for figure in FIGURES.values():
            for mechanism in figure.mechanisms:
                unique.setdefault(mechanism.fingerprint(), mechanism)
        mechanisms = list(unique.values())
        assert len(mechanisms) == 11
        simulator = Simulator(trace_store=None)

        def run_all(order):
            seen = {}
            for mechanism in order:
                pipeline = _pipeline(simulator, mechanism)
                stats = pipeline.run(2000, 500)
                seen[mechanism.fingerprint()] = (
                    dataclasses.asdict(stats), pipeline.cycle
                )
                pipeline.close()
            return seen

        forward = run_all(mechanisms)
        backward = run_all(reversed(mechanisms))
        assert forward == backward
