"""The typed front door (PR 5): specs, sessions, artifacts, env, CLI.

Covers the spec JSON round trip and fingerprint stability, the
environment overlay precedence (explicit field beats env beats default),
the ``REPRO_*`` typo guard, the versioned ``RunResult`` artifact (round
trip, tamper detection), CLI smoke tests for every subcommand, and the
golden check that ``Session.run`` of the fig4 spec is bit-identical to
direct per-cell simulation.
"""

from __future__ import annotations

import dataclasses
import json
import warnings

import pytest

from repro.api import env as api_env
from repro.api.codec import decode, encode
from repro.api.figures import (
    FIG4_MECHANISMS,
    FIGURE_NAMES,
    figure_spec,
    render_figure,
    run_figure,
    run_figures,
)
from repro.api.result import CellResult, RunResult
from repro.api.session import Session
from repro.api.spec import (
    ExperimentSpec,
    SamplingSpec,
    StoreSpec,
    WindowSpec,
)
from repro.harness.sweep import SweepEngine
from repro.pipeline.config import MechanismConfig
from repro.pipeline.simulator import Simulator

TINY = WindowSpec(warmup=256, measure=1024)


def private_session() -> Session:
    """A session on a fresh, store-less engine (no shared memo)."""
    return Session(engine=SweepEngine(simulator=Simulator(trace_store=None)))


def tiny_spec(**overrides) -> ExperimentSpec:
    base = dict(
        benchmarks=("mcf",),
        mechanisms=(
            MechanismConfig.baseline(), MechanismConfig.rsep_realistic()
        ),
        window=TINY,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# Spec construction and validation
# ---------------------------------------------------------------------------


class TestSpecValidation:
    def test_window_rejects_bad_values(self):
        with pytest.raises(ValueError):
            WindowSpec(warmup=-1)
        with pytest.raises(ValueError):
            WindowSpec(measure=0)

    def test_spec_normalises_lists_to_tuples(self):
        spec = ExperimentSpec(
            benchmarks=["mcf"],
            mechanisms=[MechanismConfig.baseline()],
            seeds=[1, 2],
        )
        assert spec.benchmarks == ("mcf",)
        assert spec.seeds == (1, 2)
        assert isinstance(spec.mechanisms, tuple)

    def test_spec_rejects_unknown_benchmarks_at_construction(self):
        # A --benchmark typo must fail at spec build (clean, early), not
        # as a KeyError deep inside the sweep after work was done.
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSpec(benchmarks=("bogus",))

    def test_spec_rejects_bare_string_benchmarks(self):
        with pytest.raises(TypeError, match="bare string"):
            ExperimentSpec(benchmarks="mcf")

    def test_spec_rejects_duplicate_mechanism_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentSpec(
                benchmarks=("mcf",),
                mechanisms=(
                    MechanismConfig.baseline(), MechanismConfig.baseline()
                ),
            )

    def test_spec_rejects_duplicate_benchmarks_and_seeds(self):
        """A repeated grid value is one cell twice: the in-process sweep
        folded it and the sharded path refused it, so both reject it."""
        baseline = (MechanismConfig.baseline(),)
        with pytest.raises(ValueError, match="duplicate benchmarks"):
            ExperimentSpec(benchmarks=("mcf", "mcf", "hmmer"),
                           mechanisms=baseline)
        with pytest.raises(ValueError, match="duplicate seeds"):
            ExperimentSpec(benchmarks=("mcf", "hmmer"), seeds=(1, 1),
                           mechanisms=baseline)

    def test_spec_rejects_empty_grid_axes(self):
        with pytest.raises(ValueError):
            ExperimentSpec(benchmarks=())
        with pytest.raises(ValueError):
            ExperimentSpec(benchmarks=("mcf",), mechanisms=())
        with pytest.raises(ValueError):
            ExperimentSpec(benchmarks=("mcf",), seeds=())

    def test_cells_counts_the_grid(self):
        spec = tiny_spec(seeds=(1, 2, 3))
        assert spec.cells == 1 * 2 * 3


# ---------------------------------------------------------------------------
# JSON round trip + fingerprint
# ---------------------------------------------------------------------------


class TestSpecSerialisation:
    def test_round_trip_preserves_equality_and_fingerprint(self):
        spec = tiny_spec(
            sampling=SamplingSpec(
                enabled=True, interval=1000, detail_ratio=0.25,
                detail_warmup=64,
            ),
            store=StoreSpec(path="/tmp/somewhere", result_lake=True),
            seeds=(1, 2),
            shards=2,
        )
        restored = ExperimentSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.fingerprint() == spec.fingerprint()

    def test_round_trip_every_preset_mechanism(self):
        from repro.pipeline.config import MECHANISM_PRESETS

        spec = tiny_spec(
            mechanisms=tuple(make() for make in MECHANISM_PRESETS.values())
        )
        assert ExperimentSpec.from_json(spec.to_json()) == spec

    def test_fingerprint_ignores_labels_and_execution_details(self):
        spec = tiny_spec()
        renamed = dataclasses.replace(
            spec,
            mechanisms=tuple(
                dataclasses.replace(m, name=f"x-{m.name}")
                for m in spec.mechanisms
            ),
        )
        assert renamed.fingerprint() == spec.fingerprint()
        other_store = dataclasses.replace(
            spec, store=StoreSpec(path="/elsewhere"), shards=4
        )
        assert other_store.fingerprint() == spec.fingerprint()

    def test_fingerprint_tracks_content(self):
        spec = tiny_spec()
        assert dataclasses.replace(
            spec, window=WindowSpec(256, 2048)
        ).fingerprint() != spec.fingerprint()
        assert dataclasses.replace(
            spec, seeds=(1, 2)
        ).fingerprint() != spec.fingerprint()
        assert dataclasses.replace(
            spec, benchmarks=("dealII",)
        ).fingerprint() != spec.fingerprint()
        assert dataclasses.replace(
            spec,
            sampling=SamplingSpec(enabled=True, interval=512,
                                  detail_ratio=0.5),
        ).fingerprint() != spec.fingerprint()

    def test_fingerprint_is_stable_across_processes(self):
        # Nothing position- or id-dependent may leak into the payload:
        # the fingerprint of a canonical spec is a constant.
        spec = ExperimentSpec(
            benchmarks=("mcf",),
            mechanisms=(MechanismConfig.baseline(),),
            window=WindowSpec(512, 2000),
        )
        import hashlib

        payload = repr((
            spec.benchmarks, spec.seeds, (512, 2000),
            spec.sampling.fingerprint(),
            tuple(m.fingerprint() for m in spec.mechanisms),
        ))
        assert spec.fingerprint() == hashlib.sha256(
            payload.encode()
        ).hexdigest()[:16]

    def test_codec_refuses_foreign_classes(self):
        with pytest.raises(ValueError, match="repro"):
            decode({"$dc": "os.path:join"})
        with pytest.raises(TypeError):
            encode(object())

    def test_codec_round_trips_nested_structures(self):
        value = {
            "tuple": (1, 2, ("a", None)),
            "mech": MechanismConfig.rsep_realistic(),
        }
        restored = decode(json.loads(json.dumps(encode(value))))
        assert restored["tuple"] == (1, 2, ("a", None))
        assert restored["mech"] == MechanismConfig.rsep_realistic()


# ---------------------------------------------------------------------------
# Environment overlay
# ---------------------------------------------------------------------------


class TestEnvOverlay:
    def test_explicit_beats_env_beats_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_MEASURE", "4242")
        monkeypatch.setenv("REPRO_SEEDS", "2")
        spec = ExperimentSpec.from_env(benchmarks=["mcf"])
        assert spec.window.measure == 4242      # env beats default
        assert spec.window.warmup == 8000       # default survives
        assert spec.seeds == (1, 2)             # env beats default
        explicit = ExperimentSpec.from_env(
            benchmarks=["mcf"], measure=9999, seeds=[7]
        )
        assert explicit.window.measure == 9999  # explicit beats env
        assert explicit.seeds == (7,)

    def test_window_spec_from_env_applies_scale(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "1000")
        monkeypatch.setenv("REPRO_MEASURE", "2000")
        monkeypatch.setenv("REPRO_SCALE", "2.0")
        assert WindowSpec.from_env() == WindowSpec(2000, 4000)

    def test_store_spec_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_STORE", "/tmp/store-here")
        store = StoreSpec.from_env()
        assert store.path == "/tmp/store-here"
        assert store.enabled
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert not StoreSpec.from_env().enabled
        assert StoreSpec.from_env().resolve_root() is None

    def test_pristine_env_store_spec_stays_default(self, monkeypatch):
        # Unset REPRO_TRACE_STORE must NOT materialise the cache path
        # into the spec: from_env has to equal the default StoreSpec so
        # Session.for_spec keeps the shared engine, and artifacts never
        # embed the producing host's home directory.
        monkeypatch.delenv("REPRO_TRACE_STORE", raising=False)
        assert StoreSpec.from_env() == StoreSpec()
        spec = ExperimentSpec.from_env(benchmarks=["mcf"])
        assert spec.store == StoreSpec()
        from repro.harness.sweep import shared_engine

        assert Session.for_spec(spec).engine is shared_engine()
        assert "/." not in spec.to_json()  # no home-dir path baked in

    def test_default_store_spec_follows_env_resolution(self, monkeypatch):
        # tests/conftest.py sets REPRO_TRACE_STORE=off: the default spec
        # must not resurrect persistence behind the environment's back.
        assert StoreSpec().resolve_root() is None
        monkeypatch.setenv("REPRO_TRACE_STORE", "/tmp/elsewhere")
        assert str(StoreSpec().resolve_root()) == "/tmp/elsewhere"
        assert StoreSpec(enabled=False).resolve_root() is None

    def test_sampling_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLING", "1")
        monkeypatch.setenv("REPRO_INTERVAL", "3000")
        monkeypatch.setenv("REPRO_DETAIL_RATIO", "0.2")
        monkeypatch.setenv("REPRO_DETAIL_WARMUP", "64")
        config = api_env.sampling_from_env()
        assert config.enabled and config.interval == 3000
        assert config.detail_ratio == 0.2 and config.detail_warmup == 64
        monkeypatch.setenv("REPRO_SAMPLING", "off")
        assert not api_env.sampling_from_env().enabled

    def test_full_flag_switches_benchmark_default(self, monkeypatch):
        from repro.workloads.spec2006 import (
            benchmark_names,
            representative_names,
        )

        monkeypatch.delenv("REPRO_FULL", raising=False)
        assert list(
            ExperimentSpec.from_env().benchmarks
        ) == representative_names()
        monkeypatch.setenv("REPRO_FULL", "1")
        assert list(ExperimentSpec.from_env().benchmarks) == benchmark_names()

    def test_spec_resolves_environment_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_WARMUP", "512")
        monkeypatch.setenv("REPRO_MEASURE", "2048")
        spec = ExperimentSpec.from_env(benchmarks=["mcf"])
        # Changing the environment afterwards cannot split one
        # experiment across two windows: the spec is self-contained and
        # Session.run never consults the environment.
        monkeypatch.setenv("REPRO_MEASURE", "9999")
        assert spec.window == WindowSpec(warmup=512, measure=2048)
        result = private_session().run(spec)
        assert result.cells[0].stats.committed >= 2048
        assert result.spec.window.measure == 2048


class TestTypoGuard:
    def test_unknown_repro_variable_warns_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_MESURE", "40000")  # the classic typo
        api_env._warned_unknown.discard("REPRO_MESURE")
        with pytest.warns(api_env.UnknownReproVariable, match="REPRO_MESURE"):
            unknown = api_env.warn_unknown_vars()
        assert unknown == ["REPRO_MESURE"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            api_env.warn_unknown_vars()  # second call: silent

    def test_strict_mode_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TYPO_STRICT", "1")
        with pytest.raises(ValueError, match="REPRO_TYPO_STRICT"):
            ExperimentSpec.from_env(benchmarks=["mcf"], strict=True)

    def test_known_vars_cover_the_readme_table(self):
        for name in (
            "REPRO_WARMUP", "REPRO_MEASURE", "REPRO_SCALE", "REPRO_SEEDS",
            "REPRO_SAMPLING", "REPRO_INTERVAL", "REPRO_DETAIL_RATIO",
            "REPRO_DETAIL_WARMUP", "REPRO_TRACE_STORE",
            "REPRO_RESULT_LAKE", "REPRO_SHARDS", "REPRO_FULL",
        ):
            assert name in api_env.KNOWN_VARS
        assert len(api_env.KNOWN_VARS) == 19
        for retired in (
            "REPRO_COLUMNAR", "REPRO_GENRENAME", "REPRO_VECWARM",
            "REPRO_WORKERS", "REPRO_PERF_LABEL",
        ):
            assert retired not in api_env.KNOWN_VARS


# ---------------------------------------------------------------------------
# Session + RunResult
# ---------------------------------------------------------------------------


class TestSessionAndResult:
    def test_run_produces_one_cell_per_grid_point(self):
        spec = tiny_spec(seeds=(1, 2))
        result = private_session().run(spec)
        assert len(result.cells) == spec.cells == 4
        assert result.fingerprint == spec.fingerprint()
        assert result.outcome("mcf", "baseline").ipc > 0
        assert isinstance(
            result.speedup("mcf", "rsep-realistic"), float
        )

    def test_rerun_is_digest_identical(self):
        spec = tiny_spec()
        a = private_session().run(spec)
        b = private_session().run(spec)
        assert a.digest() == b.digest()

    def test_artifact_round_trip(self, tmp_path):
        spec = tiny_spec()
        result = private_session().run(spec)
        path = tmp_path / "artifact.json"
        result.save(path)
        restored = RunResult.load(path)
        assert restored.fingerprint == result.fingerprint
        assert restored.digest() == result.digest()
        assert restored.spec == spec
        assert [c.to_dict() for c in restored.cells] == [
            c.to_dict() for c in result.cells
        ]
        assert restored.meta["repro_version"] == result.meta["repro_version"]

    def test_artifact_rejects_tampering_and_future_formats(self, tmp_path):
        result = private_session().run(tiny_spec())
        payload = result.to_dict()
        edited = json.loads(json.dumps(payload))
        edited["cells"][0]["stats"]["cycles"] += 1
        with pytest.raises(ValueError, match="digest"):
            RunResult.from_dict(edited)
        # Stripping the digest key must not bypass the cell check.
        stripped = json.loads(json.dumps(payload))
        stripped["cells"][0]["stats"]["cycles"] += 1
        del stripped["digest"]
        with pytest.raises(ValueError, match="digest"):
            RunResult.from_dict(stripped)
        future = json.loads(json.dumps(payload))
        future["format"] = 99
        with pytest.raises(ValueError, match="format"):
            RunResult.from_dict(future)
        relabeled = json.loads(json.dumps(payload))
        relabeled["spec"]["window"]["measure"] = 4096
        with pytest.raises(ValueError, match="fingerprint"):
            RunResult.from_dict(relabeled)

    def test_artifact_with_retired_columnar_field_still_loads(
        self, tmp_path, capsys
    ):
        # Artifacts written while StoreSpec had a ``columnar`` field, or
        # ExperimentSpec a ``workers`` field, carry it in their embedded
        # spec; the decoder drops exactly those retired keys.
        from repro.api.cli import main

        result = private_session().run(tiny_spec())
        for owner_of, field, value in (
            (lambda spec: spec["store"], "columnar", True),
            (lambda spec: spec, "workers", 3),
        ):
            payload = result.to_dict()
            owner_of(payload["spec"])[field] = value
            path = tmp_path / f"old-{field}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            restored = RunResult.load(path)
            assert restored.digest() == result.digest()
            assert restored.spec == result.spec
            assert main(["inspect", str(path)]) == 0
            capsys.readouterr()
            # Any other unknown field is still an error.
            owner_of(payload["spec"])["colour"] = "blue"
            with pytest.raises(TypeError, match="colour"):
                RunResult.from_dict(payload)

    def test_default_session_shares_the_process_engine(self):
        from repro.harness.sweep import shared_engine

        assert Session().engine is shared_engine()

    def test_for_spec_never_lets_env_override_an_explicit_pin(
        self, monkeypatch, tmp_path
    ):
        # An explicitly pinned result_lake=False must survive
        # REPRO_RESULT_LAKE=1: the shared engine (its lake fixed from
        # the environment when built) only serves a spec whose store
        # equals the one it was built from.
        monkeypatch.setenv("REPRO_RESULT_LAKE", "1")
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        from repro.harness.sweep import shared_engine

        assert shared_engine().result_lake is True
        spec = tiny_spec(store=StoreSpec(path=str(tmp_path),
                                         result_lake=False))
        session = Session.for_spec(spec)
        assert session.engine is not shared_engine()
        assert session.engine.result_lake is False

    def test_session_for_spec_honours_private_store(self, tmp_path):
        spec = tiny_spec(store=StoreSpec(path=str(tmp_path / "store")))
        session = Session.for_spec(spec)
        result = session.run(spec)
        assert result.digest() == private_session().run(
            dataclasses.replace(spec, store=StoreSpec())
        ).digest()
        # The private store actually persisted the interpreted trace.
        assert list((tmp_path / "store").glob("*.trace"))

    def test_sampled_spec_records_sampling_fields(self):
        spec = tiny_spec(
            window=WindowSpec(256, 4096),
            sampling=SamplingSpec(
                enabled=True, interval=1000, detail_ratio=0.25,
                detail_warmup=64, checkpoints=False,
            ),
        )
        result = private_session().run(spec)
        stats = result.outcome("mcf", "baseline").merged_stats[0]
        assert stats.intervals > 0 and stats.warmed > 0
        restored = RunResult.from_json(result.to_json())
        assert restored.digest() == result.digest()


# ---------------------------------------------------------------------------
# Golden: the spec path is bit-identical to direct per-cell simulation
# ---------------------------------------------------------------------------


class TestGoldenFig4:
    BENCHMARKS = ["mcf", "dealII"]
    WINDOW = WindowSpec(512, 2000)

    def test_session_matches_direct_simulation_bit_for_bit(self):
        spec = figure_spec(
            "fig4", benchmarks=self.BENCHMARKS, window=self.WINDOW
        )
        result = private_session().run(spec)

        # An independent path: one fresh Simulator call per cell, no
        # sweep engine, memo or store in between.
        simulator = Simulator(trace_store=None)
        direct_cells = []
        for benchmark in self.BENCHMARKS:
            for mechanism in FIG4_MECHANISMS:
                for seed in spec.seeds:
                    direct = simulator.run_benchmark(
                        benchmark, mechanism, warmup=self.WINDOW.warmup,
                        measure=self.WINDOW.measure, seed=seed,
                        sampling=spec.sampling,
                    )
                    direct_cells.append(CellResult(
                        benchmark, mechanism.name, seed, direct.stats
                    ))
                    # Field-for-field identity, not just digest identity.
                    assert dataclasses.asdict(direct.stats) == \
                        dataclasses.asdict(next(
                            cell.stats for cell in result.cells
                            if (cell.benchmark, cell.mechanism, cell.seed)
                            == (benchmark, mechanism.name, seed)
                        ))
        direct_result = RunResult(spec=spec, cells=direct_cells)
        assert direct_result.digest() == result.digest()

    #: One batch over figures that share the baseline and ideal-RSEP
    #: cells under different mechanism names.
    FIGURES = ("fig4", "fig6", "fig7")

    @pytest.fixture(scope="class")
    def references(self):
        """Each figure run on its own through ``Session.run``."""
        return {
            name: private_session().run(figure_spec(
                name, benchmarks=self.BENCHMARKS, window=self.WINDOW
            ))
            for name in self.FIGURES
        }

    def _run_figures_cli(self, out_dir) -> int:
        from repro.api.cli import main

        return main([
            "figures", *self.FIGURES,
            "--benchmark", "mcf", "--benchmark", "dealII",
            "--warmup", "512", "--measure", "2000",
            "--out", str(out_dir),
        ])

    def _assert_artifacts_match(self, out_dir, references):
        for name, reference in references.items():
            artifact = RunResult.load(out_dir / f"{name}.json")
            assert artifact.fingerprint == reference.fingerprint
            assert artifact.digest() == reference.digest()
            assert [c.to_dict() for c in artifact.cells] == \
                [c.to_dict() for c in reference.cells]

    def test_figures_cli_matches_the_api_path(
        self, tmp_path, capsys, references
    ):
        assert self._run_figures_cli(tmp_path) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "Figure 6" in out and "Figure 7" in out
        self._assert_artifacts_match(tmp_path, references)

    def test_figures_cli_with_one_shard_starts_no_worker(
        self, tmp_path, monkeypatch, references
    ):
        import multiprocessing

        started = []
        start = multiprocessing.Process.start

        def record(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.Process, "start", record)
        monkeypatch.setenv("REPRO_SHARDS", "1")
        assert self._run_figures_cli(tmp_path) == 0
        assert started == []
        self._assert_artifacts_match(tmp_path, references)

    def test_batch_simulates_each_shared_cell_once(self, references):
        session = private_session()
        results, outcome = run_figures(
            self.FIGURES, benchmarks=self.BENCHMARKS, window=self.WINDOW,
            session=session,
        )
        assert outcome.mode == "in-process" and outcome.complete
        # fig4's six, fig6's four reissue/sampling variants and fig7's
        # realistic RSEP: baseline and ideal RSEP are shared.
        assert len(outcome.result.spec.mechanisms) == 11
        assert session.engine.cell_misses == 11 * len(self.BENCHMARKS)
        assert set(results) == set(self.FIGURES)
        for name, result in results.items():
            assert result.digest() == references[name].digest()
            assert result.mechanism_names() == \
                references[name].mechanism_names()


class TestFigureShards:
    """Every ``figN.json`` records the shard count its batch ran with."""

    ARGS = ["figures", "fig7", "--benchmark", "mcf", "--benchmark",
            "hmmer", "--warmup", "256", "--measure", "512"]

    @pytest.mark.parametrize("configured,recorded,shown", [
        (None, 2, "2"),  # default: one shard per benchmark
        ("1", 1, "in-process"),
    ])
    def test_cli_artifacts_record_the_batch_count(
        self, tmp_path, capsys, monkeypatch, configured, recorded, shown
    ):
        from repro.api.cli import main

        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        if configured is None:
            monkeypatch.delenv("REPRO_SHARDS", raising=False)
        else:
            monkeypatch.setenv("REPRO_SHARDS", configured)
        assert main([*self.ARGS, "--out", str(tmp_path)]) == 0
        path = tmp_path / "fig7.json"
        assert RunResult.load(path).spec.shards == recorded
        capsys.readouterr()
        assert main(["inspect", str(path)]) == 0
        assert f"shards      : {shown}" in capsys.readouterr().out

    def test_a_callers_session_runs_in_process(self):
        results, outcome = run_figures(
            ["fig7"], benchmarks=["mcf", "hmmer"], window=TINY,
            session=private_session(),
        )
        assert outcome.mode == "in-process"
        assert results["fig7"].spec.shards == 1


class TestResolveOnce:
    """``REPRO_*`` is read at the front doors only: changing it after a
    session, an engine or a spec was built changes nothing they
    compute, file or observe."""

    CHANGED = {
        "REPRO_RESULT_LAKE": "1", "REPRO_SAMPLING": "1",
        "REPRO_INTERVAL": "1000", "REPRO_DETAIL_RATIO": "0.25",
        "REPRO_WARMUP": "300", "REPRO_MEASURE": "3000", "REPRO_OBS": "1",
    }

    def test_env_changes_after_construction_change_nothing(
        self, monkeypatch, tmp_path
    ):
        from repro.harness.sweep import shared_engine
        from repro.workloads.store import cell_stats_digest

        for name in list(self.CHANGED) + ["REPRO_OBS_DIR"]:
            monkeypatch.delenv(name, raising=False)
        store, events = tmp_path / "store", tmp_path / "events"
        monkeypatch.setenv("REPRO_TRACE_STORE", str(store))
        spec = ExperimentSpec.from_env(benchmarks=["mcf"], window=TINY)
        assert not spec.store.result_lake and not spec.obs.enabled
        engine = shared_engine()  # built on the spec's store, lake off
        default_session, spec_session = Session(), Session.for_spec(spec)

        def run_all() -> dict:
            cell = engine.run_cell(
                "mcf", MechanismConfig.baseline(), 1, 256, 4000
            )
            return {
                "default session": default_session.run(spec).digest(),
                "spec session": spec_session.run(spec).digest(),
                "cell": cell_stats_digest(dataclasses.asdict(cell.stats)),
                "intervals": cell.stats.intervals,
                "lake writes": engine.lake_writes,
                "lake cells": sorted(store.glob("*.cell")),
                "events": sorted(events.rglob("*")),
            }

        before = run_all()
        for name, value in self.CHANGED.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setenv("REPRO_OBS_DIR", str(events))
        after = run_all()
        assert after == before
        assert before["intervals"] == 0 and before["lake writes"] == 0
        assert before["lake cells"] == before["events"] == []
        assert spec_session.engine is default_session.engine is engine


# ---------------------------------------------------------------------------
# CLI smoke tests (one per subcommand)
# ---------------------------------------------------------------------------


class TestCliSweep:
    def test_tiny_sweep_writes_artifact(self, tmp_path, capsys):
        from repro.api.cli import main

        out = tmp_path / "sweep.json"
        code = main([
            "sweep", "--benchmark", "mcf",
            "--mechanism", "baseline", "--mechanism", "rsep",
            "--warmup", "256", "--measure", "1024",
            "--json", str(out),
        ])
        assert code == 0
        rendered = capsys.readouterr().out
        assert "fingerprint" in rendered and "vs baseline" in rendered
        artifact = RunResult.load(out)
        assert {c.mechanism for c in artifact.cells} == {"baseline", "rsep"}

    def test_sampled_flag_enables_interval_sampling(
        self, tmp_path, monkeypatch
    ):
        from repro.api.cli import main

        monkeypatch.setenv("REPRO_INTERVAL", "1000")
        monkeypatch.setenv("REPRO_DETAIL_RATIO", "0.25")
        monkeypatch.setenv("REPRO_DETAIL_WARMUP", "64")
        out = tmp_path / "sampled.json"
        code = main([
            "sweep", "--sampled", "--benchmark", "mcf",
            "--mechanism", "baseline",
            "--warmup", "256", "--measure", "4096", "--json", str(out),
        ])
        assert code == 0
        artifact = RunResult.load(out)
        assert artifact.spec.sampling.enabled
        assert artifact.cells[0].stats.intervals > 0


class TestCliReportInspect:
    @pytest.fixture()
    def artifact(self, tmp_path):
        path = tmp_path / "artifact.json"
        private_session().run(tiny_spec()).save(path)
        return path

    def test_report_renders_artifacts(self, artifact, capsys):
        from repro.api.cli import main

        assert main(["inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out and "rsep-realistic" in out

    def test_report_with_figure_formatter(self, tmp_path, capsys):
        from repro.api.cli import main

        path = tmp_path / "fig7.json"
        private_session().run(
            figure_spec("fig7", benchmarks=["mcf"], window=TINY)
        ).save(path)
        assert main(["inspect", "--figure", "fig7", str(path)]) == 0
        assert "Figure 7" in capsys.readouterr().out

    def test_report_figure_mismatch_is_an_error_not_a_crash(
        self, artifact, capsys
    ):
        # The tiny artifact has baseline + rsep-realistic only; fig4
        # needs the full mechanism list — inspect must fail cleanly.
        from repro.api.cli import main

        assert main(["inspect", "--figure", "fig4", str(artifact)]) == 1
        assert "cannot render as fig4" in capsys.readouterr().err

    def test_figures_rejects_unknown_names(self, capsys):
        from repro.api.cli import main

        assert main(["figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_cli_rejects_benchmark_typos_cleanly(self, capsys):
        from repro.api.cli import main

        assert main(["sweep", "--benchmark", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err
        assert main(["figures", "fig1", "--benchmark", "bogus"]) == 2
        assert "bogus" in capsys.readouterr().err

    def test_cli_rejects_duplicate_benchmarks_cleanly(self, capsys):
        from repro.api.cli import main

        assert main(["sweep", "--benchmark", "mcf", "--benchmark", "mcf"]) == 2
        assert "duplicate benchmarks" in capsys.readouterr().err

    def test_figures_fig1_notes_missing_artifact_with_out(
        self, tmp_path, capsys
    ):
        from repro.api.cli import main

        assert main([
            "figures", "fig1", "--benchmark", "mcf", "--measure", "1500",
            "--out", str(tmp_path / "figs"),
        ]) == 0
        assert "nothing saved" in capsys.readouterr().out

    def test_report_flags_corrupt_artifacts(self, tmp_path, capsys):
        from repro.api.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["inspect", str(bad)]) == 1
        assert "unreadable" in capsys.readouterr().err

    def test_inspect_artifact(self, artifact, capsys):
        from repro.api.cli import main

        assert main(["inspect", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "digest" in out and "meta.python" in out

    def test_inspect_reads_several_artifacts(self, artifact, tmp_path,
                                             capsys):
        from repro.api.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{}", encoding="utf-8")
        assert main(["inspect", str(artifact), str(bad)]) == 1
        captured = capsys.readouterr()
        assert f"# {artifact}" in captured.out
        assert "rsep-realistic" in captured.out
        assert f"{bad}: unreadable artifact" in captured.err

    def test_inspect_lake_walks_summary_groups_and_trend(
        self, tmp_path, capsys, monkeypatch
    ):
        # Four cells on a private lake, then dealII × rsep-realistic
        # tampered: the one walk counts it as unreadable and leaves it
        # out of the summary, the group table and the trend table.
        from repro.api.cli import main
        from repro.harness.reporting import harmonic_mean

        spec = tiny_spec(
            benchmarks=("dealII", "mcf"),
            store=StoreSpec(path=str(tmp_path), result_lake=True),
        )
        result = Session(store=spec.store).run(spec)
        for path in tmp_path.glob("*.cell"):
            payload = json.loads(path.read_text(encoding="utf-8"))
            if (payload["benchmark"], payload["meta"]["mechanism"]) == (
                "dealII", "rsep-realistic"
            ):
                payload["stats"]["committed"] += 1
                path.write_text(json.dumps(payload), encoding="utf-8")
        ipc = {(cell.benchmark, cell.mechanism): cell.stats.ipc
               for cell in result.cells}

        assert main(["inspect", "--lake", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cells       : 4 readable 3, unreadable/tampered 1" in out
        assert "benchmarks  : 2 (dealII, mcf)" in out
        assert "mechanisms  : 2 (baseline, rsep-realistic)" in out
        rows = [line.split() for line in out.splitlines()]
        window = f"{TINY.warmup}+{TINY.measure}"
        sampling = SamplingSpec().fingerprint()[:12]
        baseline = harmonic_mean([ipc["dealII", "baseline"],
                                  ipc["mcf", "baseline"]])
        assert ["baseline", window, sampling, "2", "2",
                f"{baseline:.3f}"] in rows
        assert ["rsep-realistic", window, sampling, "1", "1",
                f"{ipc['mcf', 'rsep-realistic']:.3f}"] in rows
        trend = [row for row in rows if len(row) == 4
                 and row[0] in ("baseline", "rsep-realistic")]
        assert trend == [
            ["baseline", "dealII", "1", f"{ipc['dealII', 'baseline']:.3f}"],
            ["baseline", "mcf", "1", f"{ipc['mcf', 'baseline']:.3f}"],
            ["rsep-realistic", "mcf", "1",
             f"{ipc['mcf', 'rsep-realistic']:.3f}"],
        ]
        # A bare --lake means the environment's store, and off is refused.
        monkeypatch.setenv("REPRO_TRACE_STORE", "off")
        assert main(["inspect", "--lake"]) == 2
        assert "trace store is disabled" in capsys.readouterr().err

    def test_inspect_environment_mode(self, capsys, monkeypatch):
        from repro.api.cli import main

        monkeypatch.delenv("REPRO_TYPO_STRICT", raising=False)
        assert main(["inspect"]) == 0
        out = capsys.readouterr().out
        assert "REPRO_WARMUP" in out and "environment overlay" in out

    def test_no_command_prints_help(self, capsys):
        from repro.api.cli import main

        assert main([]) == 2
        assert "sweep" in capsys.readouterr().out


class TestFigureRegistry:
    def test_every_sweep_figure_has_a_spec(self):
        for name in FIGURE_NAMES:
            if name == "fig1":
                with pytest.raises(KeyError):
                    figure_spec(name)
                continue
            spec = figure_spec(name, benchmarks=["mcf"])
            assert spec.benchmarks == ("mcf",)
            assert len(spec.mechanisms) >= 1

    def test_figure_spec_leaves_the_fan_out_to_its_batch(
        self, monkeypatch
    ):
        # run_figures resolves REPRO_SHARDS, once, for the whole batch.
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert figure_spec("fig7", benchmarks=["mcf"]).shards == 0

    def test_unknown_figure_raises(self):
        with pytest.raises(KeyError, match="fig99"):
            figure_spec("fig99")

    def test_render_uses_the_named_formatter(self):
        spec = figure_spec(
            "table1", benchmarks=["mcf"], window=TINY
        )
        result = private_session().run(spec)
        text = render_figure("table1", result)
        assert "Table I" in text and "mcf" in text

    def test_fig5_and_fig6_formatters_render(self):
        session = private_session()
        _, fig5 = run_figure(
            "fig5", session=session, benchmarks=["mcf"], window=TINY
        )
        assert "Figure 5" in fig5 and "dist%" in fig5
        _, fig6 = run_figure(
            "fig6", session=session, benchmarks=["mcf"], window=TINY
        )
        assert "Figure 6" in fig6 and "anyFU%" in fig6

    def test_fig1_runs_the_functional_analysis(self):
        from repro.api.figures import run_fig1
        from repro.workloads.spec2006 import benchmark_names

        profiles, text = run_fig1(instructions=2000)
        assert "Figure 1" in text
        assert len(profiles) == len(benchmark_names())
        # CLI --benchmark/--measure reach fig1 too (they used to be
        # silently ignored).
        subset, _ = run_figure(
            "fig1", benchmarks=["mcf"], window=WindowSpec(256, 1500)
        )
        assert len(subset) == 1 and subset[0].benchmark == "mcf"

    def test_fig1_measures_the_environment_window(self, monkeypatch):
        # Without a window, fig1 analyses the measured length the sweep
        # figures resolve from the environment.
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        monkeypatch.setenv("REPRO_MEASURE", "600")
        assert figure_spec("fig4").window.measure == 600
        profiles, _ = run_figure("fig1", benchmarks=["mcf"])
        assert [profile.committed for profile in profiles] == [600]

    def test_fig1_reads_the_trace_store(self, tmp_path, monkeypatch):
        """fig1 gets its traces the way the cells do, so a second
        ``repro figures fig1 fig4`` on a warm store interprets nothing."""
        from repro.api.cli import main
        from repro.harness import sweep
        from repro.pipeline import simulator
        from repro.workloads import spec2006

        for name in ("REPRO_RESULT_LAKE", "REPRO_FAULTS", "REPRO_SCALE"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("REPRO_TRACE_STORE", str(tmp_path))
        monkeypatch.setenv("REPRO_SHARDS", "1")
        interpreted = []
        for module in (simulator, spec2006):
            def counted(program, *args, _execute=module.execute):
                interpreted.append(program.name)
                return _execute(program, *args)

            monkeypatch.setattr(module, "execute", counted)
        argv = ["figures", "fig1", "fig4", "--benchmark", "mcf",
                "--benchmark", "hmmer", "--warmup", "256", "--measure", "600"]
        assert main(argv) == 0
        assert sorted(interpreted) == ["hmmer", "mcf"]
        interpreted.clear()
        monkeypatch.setattr(sweep, "_shared", None)  # as a new process
        assert main(argv) == 0
        assert interpreted == []

    def test_session_rejects_engine_plus_store(self):
        with pytest.raises(ValueError, match="not both"):
            Session(store=StoreSpec(), engine=SweepEngine(
                simulator=Simulator(trace_store=None)
            ))

    def test_run_figure_returns_result_and_text(self):
        result, text = run_figure(
            "fig7", session=private_session(), benchmarks=["mcf"],
            window=TINY,
        )
        assert "Figure 7" in text
        assert result.outcome("mcf", "rsep-realistic").ipc > 0
