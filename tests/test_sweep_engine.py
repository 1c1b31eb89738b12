"""Sweep engine: cell memoisation, fingerprinting, and the sessions that
run specs on it."""

from __future__ import annotations

import dataclasses

from repro.api.session import Session
from repro.api.spec import ExperimentSpec, WindowSpec
from repro.harness.sweep import SweepEngine, mechanism_fingerprint
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.simulator import Simulator


from helpers import stats_dict  # noqa: E402  (shared test helper)


def _engine() -> SweepEngine:
    return SweepEngine(simulator=Simulator(trace_store=None))


def _spec(mechanisms, benchmarks=("mcf",)) -> ExperimentSpec:
    return ExperimentSpec(
        benchmarks=benchmarks, mechanisms=mechanisms,
        window=WindowSpec(warmup=256, measure=1000),
    )


class TestFingerprint:
    def test_name_is_not_part_of_the_fingerprint(self):
        a = MechanismConfig.rsep_ideal()
        b = dataclasses.replace(a, name="renamed-rsep")
        assert mechanism_fingerprint(a) == mechanism_fingerprint(b)

    def test_settings_are(self):
        assert mechanism_fingerprint(
            MechanismConfig.rsep_ideal()
        ) != mechanism_fingerprint(MechanismConfig.rsep_realistic())
        assert mechanism_fingerprint(
            MechanismConfig.baseline()
        ) != mechanism_fingerprint(MechanismConfig.move_elimination())

    def test_equal_settings_under_different_presets_collide(self):
        # rsep_validation(IDEAL) with the default threshold is exactly
        # rsep_ideal() modulo its name: one simulation must serve both.
        from repro.core.validation import ValidationMode

        ideal = MechanismConfig.rsep_ideal()
        via_validation = MechanismConfig.rsep_validation(ValidationMode.IDEAL)
        assert mechanism_fingerprint(ideal) == mechanism_fingerprint(
            via_validation
        )


class TestCellMemo:
    def test_identical_cells_simulate_once(self):
        engine = _engine()
        kwargs = dict(seed=1, warmup=256, measure=1000)
        first = engine.run_cell("mcf", MechanismConfig.baseline(), **kwargs)
        second = engine.run_cell("mcf", MechanismConfig.baseline(), **kwargs)
        assert engine.cell_misses == 1
        assert engine.cell_hits == 1
        assert stats_dict(first.stats) == stats_dict(second.stats)
        # Copies, not aliases: callers cannot corrupt the memo.
        assert first.stats is not second.stats

    def test_memoised_result_equals_fresh_simulation(self):
        engine = _engine()
        kwargs = dict(seed=1, warmup=256, measure=1000)
        engine.run_cell("dealII", MechanismConfig.rsep_realistic(), **kwargs)
        memoised = engine.run_cell(
            "dealII", MechanismConfig.rsep_realistic(), **kwargs
        )
        fresh = Simulator(trace_store=None).run_benchmark(
            "dealII", MechanismConfig.rsep_realistic(),
            warmup=256, measure=1000, seed=1,
        )
        assert stats_dict(memoised.stats) == stats_dict(fresh.stats)

    def test_renamed_preset_hits_and_is_rebadged(self):
        engine = _engine()
        kwargs = dict(seed=1, warmup=256, measure=1000)
        engine.run_cell("mcf", MechanismConfig.rsep_ideal(), **kwargs)
        renamed = dataclasses.replace(
            MechanismConfig.rsep_ideal(), name="rsep-under-another-name"
        )
        result = engine.run_cell("mcf", renamed, **kwargs)
        assert engine.cell_misses == 1 and engine.cell_hits == 1
        assert result.mechanism == "rsep-under-another-name"

    def test_window_and_seed_are_part_of_the_key(self):
        engine = _engine()
        engine.run_cell("mcf", MechanismConfig.baseline(),
                        seed=1, warmup=256, measure=1000)
        engine.run_cell("mcf", MechanismConfig.baseline(),
                        seed=2, warmup=256, measure=1000)
        engine.run_cell("mcf", MechanismConfig.baseline(),
                        seed=1, warmup=256, measure=1500)
        assert engine.cell_misses == 3 and engine.cell_hits == 0


class TestSweep:
    def test_sweep_shape_and_memoisation(self):
        engine = _engine()
        mechanisms = [
            MechanismConfig.baseline(), MechanismConfig.rsep_realistic()
        ]
        results = engine.sweep(
            ["mcf", "dealII"], mechanisms,
            seeds=[1, 2], warmup=256, measure=1000,
        )
        assert set(results) == {
            ("mcf", "baseline"), ("mcf", "rsep-realistic"),
            ("dealII", "baseline"), ("dealII", "rsep-realistic"),
        }
        assert all(len(cell) == 2 for cell in results.values())
        assert engine.cell_misses == 8
        again = engine.sweep(
            ["mcf", "dealII"], mechanisms,
            seeds=[1, 2], warmup=256, measure=1000,
        )
        assert engine.cell_misses == 8  # everything memoised
        for key in results:
            for a, b in zip(results[key], again[key]):
                assert stats_dict(a.stats) == stats_dict(b.stats)


class TestRunnerIntegration:
    """The spec runners on the engine: sessions and the core key."""

    def test_runner_on_engine_matches_direct_simulation(self):
        result = Session(engine=_engine()).run(_spec(
            [MechanismConfig.baseline(), MechanismConfig.rsep_ideal()]
        ))
        fresh = Simulator(trace_store=None).run_benchmark(
            "mcf", MechanismConfig.baseline(),
            warmup=256, measure=1000, seed=1,
        )
        outcome = result.outcome("mcf", "baseline")
        assert stats_dict(outcome.results[0].stats) == stats_dict(fresh.stats)
        assert result.speedup("mcf", "rsep") == (
            result.outcome("mcf", "rsep").ipc / outcome.ipc - 1.0
        )

    def test_two_runners_share_one_engine(self):
        engine = _engine()
        spec = _spec([MechanismConfig.baseline()])
        first = Session(engine=engine).run(spec)
        assert engine.cell_misses == 1
        second = Session(engine=engine).run(spec)
        assert engine.cell_misses == 1  # second session recalled the cell
        assert second.digest() == first.digest()

    def test_core_config_is_part_of_the_cell_key(self):
        # Regression for the unsound-sharing caveat: two different core
        # configs must never collide on a cell key (the small-ROB core
        # stalls more, so the stats differ too).
        engine = _engine()
        kwargs = dict(seed=1, warmup=256, measure=1000)
        big = engine.run_cell("mcf", MechanismConfig.baseline(), **kwargs)
        small_engine = SweepEngine(simulator=Simulator(
            CoreConfig(rob_entries=16), trace_store=None
        ))
        small = small_engine.run_cell(
            "mcf", MechanismConfig.baseline(), **kwargs
        )
        assert engine.cell_misses == 1 and small_engine.cell_misses == 1
        assert set(engine._cells).isdisjoint(small_engine._cells)
        assert stats_dict(big.stats) != stats_dict(small.stats)
