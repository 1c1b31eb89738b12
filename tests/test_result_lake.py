"""Spec-level result lake: sound keys, robustness, plane equivalence.

DESIGN.md §14: per-cell ``Stats`` artifacts live in the trace store,
content-addressed on the complete cell fingerprint.  These tests pin the
three contracts the ISSUE demands: corrupt/truncated/foreign/tampered
entries are misses that get overwritten, a lake-served cell is
digest-identical to a fresh simulation on every compute-plane
combination, and the gate (off by default) keeps today's behaviour
bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.api.result import RunResult
from repro.api.session import Session
from repro.api.spec import ExperimentSpec, StoreSpec, WindowSpec
from repro.harness.sweep import SweepEngine
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.simulator import Simulator
from repro.workloads import store as store_module
from repro.workloads.store import CELL_FORMAT, TraceStore, cell_stats_digest

from helpers import event_records, stats_dict  # noqa: E402

KWARGS = dict(seed=1, warmup=256, measure=1000)


def _engine(root, core_config=None) -> SweepEngine:
    return SweepEngine(
        simulator=Simulator(core_config, trace_store=TraceStore(root)),
        result_lake=True,
    )


def _cell_files(root) -> list[Path]:
    return sorted(Path(root).glob("*.cell"))


class TestLakeRoundTrip:
    def test_fresh_process_serves_from_lake(self, tmp_path):
        cold = _engine(tmp_path)
        baseline = cold.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert cold.cell_misses == 1
        assert cold.lake_misses == 1 and cold.lake_writes == 1
        assert len(_cell_files(tmp_path)) == 1

        warm = _engine(tmp_path)  # a fresh engine = a fresh process's view
        served = warm.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert warm.cell_misses == 0  # zero simulations
        assert warm.lake_hits == 1
        assert stats_dict(served.stats) == stats_dict(baseline.stats)

    def test_sampled_cell_served_identical_to_fresh(self, tmp_path):
        from repro.sampling import SamplingConfig

        sampling = SamplingConfig(
            enabled=True, interval=500, detail_ratio=0.5, detail_warmup=64
        )
        kwargs = dict(seed=1, warmup=256, measure=1000, sampling=sampling)
        cold = _engine(tmp_path)
        reference = cold.run_cell(
            "mcf", MechanismConfig.rsep_realistic(), **kwargs
        )
        warm = _engine(tmp_path)
        served = warm.run_cell(
            "mcf", MechanismConfig.rsep_realistic(), **kwargs
        )
        assert warm.cell_misses == 0
        fresh = SweepEngine(
            simulator=Simulator(trace_store=None)
        ).run_cell("mcf", MechanismConfig.rsep_realistic(), **kwargs)
        assert stats_dict(served.stats) == stats_dict(fresh.stats)
        assert stats_dict(served.stats) == stats_dict(reference.stats)

    def test_memo_takes_precedence_over_lake(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert engine.cell_hits == 1  # memo, not a second lake read
        assert engine.lake_hits == 0
        assert engine.simulator.trace_store.cell_hits == 0

    def test_lake_off_is_todays_behaviour(self, tmp_path):
        # Default-off: no .cell artifact written or read, stats identical.
        def gated(root) -> SweepEngine:
            return SweepEngine(
                simulator=Simulator(trace_store=TraceStore(root))
            )

        fresh = gated(tmp_path / "fresh")
        plain = fresh.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert not _cell_files(tmp_path / "fresh")
        laked = _engine(tmp_path).run_cell(
            "mcf", MechanismConfig.baseline(), **KWARGS
        )
        assert len(_cell_files(tmp_path)) == 1
        warm = gated(tmp_path)  # the lake holds the cell; it is not read
        again = warm.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert warm.cell_misses == 1
        assert warm.lake_hits == warm.lake_misses == 0
        assert warm.simulator.trace_store.cell_hits == 0
        assert stats_dict(plain.stats) == stats_dict(laked.stats)
        assert stats_dict(again.stats) == stats_dict(laked.stats)

    def test_no_store_means_no_lake(self):
        engine = SweepEngine(
            simulator=Simulator(trace_store=None), result_lake=True
        )
        assert engine.result_lake is False
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert engine.lake_hits == engine.lake_misses == 0


class TestKeySoundness:
    def test_core_config_is_part_of_the_lake_key(self, tmp_path):
        # The regression the ISSUE names: two cores must never share a
        # lake cell.  Same benchmark/seed/window/mechanism, different
        # core -> different artifact, different stats.
        small_core = CoreConfig(rob_entries=16)
        _engine(tmp_path).run_cell(
            "mcf", MechanismConfig.baseline(), **KWARGS
        )
        _engine(tmp_path, small_core).run_cell(
            "mcf", MechanismConfig.baseline(), **KWARGS
        )
        assert len(_cell_files(tmp_path)) == 2

        warm, warm_small = _engine(tmp_path), _engine(tmp_path, small_core)
        a = warm.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        b = warm_small.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        # Both served, each from its own cell.
        assert warm.cell_misses == warm_small.cell_misses == 0
        assert stats_dict(a.stats) != stats_dict(b.stats)

    def test_window_seed_mechanism_split_cells(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        engine.run_cell("mcf", MechanismConfig.baseline(),
                        seed=2, warmup=256, measure=1000)
        engine.run_cell("mcf", MechanismConfig.baseline(),
                        seed=1, warmup=256, measure=1500)
        engine.run_cell("mcf", MechanismConfig.move_elimination(), **KWARGS)
        assert len(_cell_files(tmp_path)) == 4

    def test_mechanism_display_name_is_not(self, tmp_path):
        engine = _engine(tmp_path)
        engine.run_cell("mcf", MechanismConfig.rsep_ideal(), **KWARGS)
        renamed = dataclasses.replace(
            MechanismConfig.rsep_ideal(), name="rsep-again"
        )
        warm = _engine(tmp_path)
        result = warm.run_cell("mcf", renamed, **KWARGS)
        assert warm.cell_misses == 0 and warm.lake_hits == 1
        assert result.mechanism == "rsep-again"


class TestLakeRobustness:
    """Anything unreadable is a miss that re-simulation overwrites."""

    def _seed_one_cell(self, root) -> Path:
        engine = _engine(root)
        engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        (path,) = _cell_files(root)
        return path

    def _assert_recovers(self, root, reference=None):
        engine = _engine(root)
        result = engine.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        store = engine.simulator.trace_store
        assert engine.lake_hits == 0 and engine.cell_misses == 1
        assert store.cell_recovered == 1
        if reference is not None:
            assert stats_dict(result.stats) == stats_dict(reference)
        # The bad artifact was overwritten: the next engine hits.
        after = _engine(root)
        after.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        assert after.lake_hits == 1 and after.cell_misses == 0

    def test_corrupt_entry_is_a_miss_and_overwritten(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        reference = json.loads(path.read_text())["stats"]
        path.write_text("{not json at all", encoding="utf-8")
        self._assert_recovers(tmp_path)
        assert json.loads(path.read_text())["stats"] == reference

    def test_truncated_entry_is_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        self._assert_recovers(tmp_path)

    def test_foreign_format_is_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        payload = json.loads(path.read_text())
        payload["format"] = CELL_FORMAT + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_recovers(tmp_path)

    def test_tampered_stats_are_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        payload = json.loads(path.read_text())
        reference = dict(payload["stats"])
        payload["stats"]["cycles"] = payload["stats"]["cycles"] + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        # Edited counters under a stale digest must never be served.
        self._assert_recovers(tmp_path)
        assert json.loads(path.read_text())["stats"] == reference

    def test_schema_drift_is_a_miss(self, tmp_path):
        path = self._seed_one_cell(tmp_path)
        payload = json.loads(path.read_text())
        payload["stats"]["counter_from_the_future"] = 7
        payload["digest"] = cell_stats_digest(payload["stats"])
        path.write_text(json.dumps(payload), encoding="utf-8")
        self._assert_recovers(tmp_path)

    def test_workload_version_splits_cells(self, tmp_path, monkeypatch):
        self._seed_one_cell(tmp_path)
        monkeypatch.setattr(
            store_module.__name__ + ".workload_code_version",
            lambda: "0" * 16,
        )
        import repro.harness.sweep as sweep_module

        monkeypatch.setattr(
            sweep_module, "workload_code_version", lambda: "0" * 16
        )
        warm = _engine(tmp_path)
        warm.run_cell("mcf", MechanismConfig.baseline(), **KWARGS)
        # A code edit means a different token: miss, new artifact.
        assert warm.lake_hits == 0 and warm.cell_misses == 1
        assert len(_cell_files(tmp_path)) == 2


class TestParallelAndSharded:
    def test_sharded_service_populates_the_shared_lake(self, tmp_path):
        spec = ExperimentSpec(
            benchmarks=("mcf", "dealII"),
            mechanisms=(MechanismConfig.baseline(),),
            seeds=(1,),
            window=WindowSpec(warmup=256, measure=1000),
            store=StoreSpec(path=str(tmp_path), result_lake=True),
            shards=2,
        )
        session = Session(store=spec.store)
        outcome = session.run_sharded(spec)
        assert not outcome.holes
        assert len(_cell_files(tmp_path)) == 2  # the coordinator filed them

        warm = Session(store=spec.store)
        result = warm.run(spec)
        assert warm.engine.cell_misses == 0
        assert warm.engine.lake_hits == 2
        assert result.digest() == outcome.result.digest()


class TestFrontDoor:
    def test_session_round_trip_is_digest_identical(self, tmp_path):
        spec = ExperimentSpec(
            benchmarks=("mcf",),
            window=WindowSpec(warmup=256, measure=1000),
            store=StoreSpec(path=str(tmp_path), result_lake=True),
        )
        cold = Session(store=spec.store).run(spec)
        warm_session = Session(store=spec.store)
        warm = warm_session.run(spec)
        assert warm_session.engine.cell_misses == 0
        assert warm.digest() == cold.digest()

    def test_cli_sweep_lake_serves_a_second_run(self, tmp_path,
                                                monkeypatch):
        """``repro sweep --lake`` through ``main``: a second run on the
        same store simulates nothing (its ``sweep.cell`` spans) and
        writes the same digest; a run without ``--lake`` simulates every
        cell on that warm store and writes no cell on a fresh one."""
        from repro.api.cli import main

        monkeypatch.setenv("REPRO_OBS", "1")
        monkeypatch.setenv("REPRO_METRICS_EVERY", "0")

        def sweep(store: str, run: str, *flags: str) -> tuple[int, str]:
            monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path / store))
            monkeypatch.setenv("REPRO_OBS_DIR", str(tmp_path / run))
            artifact = tmp_path / f"{run}.json"
            assert main([
                "sweep", "--benchmark", "mcf", "--benchmark", "dealII",
                "--warmup", "256", "--measure", "1000", *flags,
                "--json", str(artifact),
            ]) == 0
            simulated = sum(
                record["name"] == "sweep.cell" and record["kind"] == "begin"
                for record in event_records(tmp_path / run)
            )
            return simulated, RunResult.load(artifact).digest()

        cold = sweep("store", "cold", "--lake")
        assert cold[0] == 4
        assert len(_cell_files(tmp_path / "store")) == 4
        assert sweep("store", "warm", "--lake") == (0, cold[1])
        assert sweep("store", "off") == cold
        assert sweep("fresh", "plain") == cold
        assert list((tmp_path / "fresh").glob("*.trace"))
        assert not _cell_files(tmp_path / "fresh")

    def test_store_spec_reads_env_and_round_trips(self, monkeypatch):
        assert StoreSpec.from_env().result_lake is False
        monkeypatch.setenv("REPRO_RESULT_LAKE", "1")
        assert StoreSpec.from_env().result_lake is True
        spec = ExperimentSpec(
            benchmarks=("mcf",),
            store=StoreSpec(result_lake=True),
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        # The lake never changes stats, so it never joins the
        # fingerprint.
        plain = dataclasses.replace(spec, store=StoreSpec())
        assert spec.fingerprint() == plain.fingerprint()

    def test_session_pins_the_spec_store_over_env(self, tmp_path,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_LAKE", "1")
        session = Session(store=StoreSpec(path=str(tmp_path)))
        assert session.engine.result_lake is False


class TestVersionSnapshot:
    def test_snapshot_signature_always_describes_the_bytes(self, tmp_path):
        """An edit racing the stat/read passes can no longer memoise a
        signature from one version with bytes from another."""
        target = tmp_path / "module.py"
        target.write_text("ORIGINAL = 1\n")

        class RacingPath(type(Path())):
            """Reads the old bytes, then lets an 'edit' land before the
            consistency re-stat — forcing the retry loop."""

            raced = False

            def read_bytes(self):
                data = super().read_bytes()
                if not RacingPath.raced:
                    RacingPath.raced = True
                    Path(str(self)).write_text("EDITED = 2\n" * 100)
                return data

        signature, data = store_module._snapshot_source(RacingPath(target))
        stat = target.stat()
        assert signature == (str(target), stat.st_mtime_ns, stat.st_size)
        assert data == target.read_bytes()  # the post-edit bytes

    def test_version_memo_invalidates_on_edit(self, tmp_path, monkeypatch):
        source = tmp_path / "workload.py"
        source.write_text("A = 1\n")
        monkeypatch.setattr(
            store_module, "_module_sources", lambda: [source]
        )
        monkeypatch.setattr(store_module, "_version_cache", None)
        first = store_module.workload_code_version()
        assert store_module.workload_code_version() == first  # memo hit
        source.write_text("A = 2\n")
        assert store_module.workload_code_version() != first
