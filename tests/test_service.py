"""Fault matrix for the sharded sweep service (DESIGN.md §11).

Crash, hang, corrupt and tamper injected at each stage via the
deterministic fault plane; out-of-order and duplicate-tolerant merging;
quarantined-shard partial results with explicit holes; and the golden
property the whole layer exists for — a faulted sharded run merges to a
digest *identical* to the unfaulted in-process run.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from dataclasses import replace

import pytest

from helpers import event_records
from repro.api.result import CellResult, RunResult
from repro.api.session import Session
from repro.api.spec import (
    ExperimentSpec,
    StoreSpec,
    WindowSpec,
    default_mechanisms,
)
from repro.cluster import client
from repro.cluster.hosts import local_capabilities
from repro.obs import ObsSpec
from repro.service.faults import Fault, FaultPlan, FaultPlanError
from repro.service.server import SweepServer
from repro.service.shards import (
    ShardResult,
    ShardSpec,
    canonical_cells,
    merge_shards,
    plan_shards,
)
from repro.service.supervisor import ShardSupervisor
from repro.service.worker import (
    ForkDispatcher,
    execute_shard,
    shard_process_main,
)


def tiny_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        benchmarks=("mcf", "dealII"),
        mechanisms=default_mechanisms(),
        seeds=(1,),
        window=WindowSpec(warmup=128, measure=512),
        store=StoreSpec(enabled=False),
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def fast_supervisor(deadline: float = 60.0, **overrides) -> ShardSupervisor:
    settings = dict(
        backoff_base=0.01, backoff_cap=0.05, faults=FaultPlan(),
        dispatcher=ForkDispatcher(deadline=deadline),
    )
    settings.update(overrides)
    return ShardSupervisor(**settings)


@pytest.fixture(scope="module")
def reference() -> RunResult:
    """The unfaulted in-process artifact every sharded run must match."""
    spec = tiny_spec()
    return Session.for_spec(spec).run(spec)


# ---------------------------------------------------------------------------
# Fault plan
# ---------------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_render_round_trip(self):
        plan = FaultPlan.parse("crash:0, corrupt:1:2 ,hang:3:*")
        assert plan.faults == (
            Fault("crash", 0, 0), Fault("corrupt", 1, 2), Fault("hang", 3, -1),
        )
        assert FaultPlan.parse(plan.render()) == plan

    def test_empty_and_none(self):
        assert not FaultPlan.parse(None)
        assert not FaultPlan.parse("  ")
        assert FaultPlan.parse("").fault_for(0, 0) is None

    def test_fault_for_semantics(self):
        plan = FaultPlan.parse("crash:0,tamper:1:1,hang:2:*")
        assert plan.fault_for(0, 0) == "crash"
        assert plan.fault_for(0, 1) is None  # attempt defaults to 0 only
        assert plan.fault_for(1, 0) is None
        assert plan.fault_for(1, 1) == "tamper"
        for attempt in range(5):
            assert plan.fault_for(2, attempt) == "hang"  # poison

    @pytest.mark.parametrize("text", [
        "explode:0", "crash", "crash:x", "crash:0:y", "crash:-1", "a:b:c:d",
    ])
    def test_bad_entries_rejected(self, text):
        with pytest.raises(FaultPlanError):
            FaultPlan.parse(text)


# ---------------------------------------------------------------------------
# Planning and shard artifacts
# ---------------------------------------------------------------------------


class TestShardPlanning:
    def test_plan_partitions_grid_exactly(self):
        spec = tiny_spec(seeds=(1, 2))
        shards = plan_shards(spec, 2)
        assert [shard.index for shard in shards] == [0, 1]
        assert all(shard.total == len(shards) for shard in shards)
        union = [ref for shard in shards for ref in shard.cells]
        assert sorted(union) == sorted(canonical_cells(spec))
        assert len(set(union)) == len(union)

    def test_plan_keeps_benchmark_locality(self):
        shards = plan_shards(tiny_spec(seeds=(1, 2)), 2)
        for shard in shards:
            assert len({benchmark for benchmark, _, _ in shard.cells}) == 1

    def test_plan_is_deterministic(self):
        spec = tiny_spec()
        first = plan_shards(spec, 2)
        second = plan_shards(spec, 2)
        assert [s.cells for s in first] == [s.cells for s in second]

    def test_plan_caps_at_grid_size(self):
        spec = tiny_spec()  # 4 cells
        shards = plan_shards(spec, 16)
        assert len(shards) == spec.cells
        assert all(len(shard.cells) == 1 for shard in shards)

    def test_plan_rejects_degenerate_counts(self):
        with pytest.raises(ValueError):
            plan_shards(tiny_spec(), 1)

    def test_shard_spec_json_round_trip(self):
        shard = plan_shards(tiny_spec(), 2)[0]
        clone = ShardSpec.from_json(shard.to_json())
        assert clone == shard
        assert clone.fingerprint == shard.spec.fingerprint()

    def test_shard_spec_validates_cells(self):
        spec = tiny_spec()
        with pytest.raises(ValueError):
            ShardSpec(spec=spec, index=0, total=1, cells=())
        with pytest.raises(ValueError):
            ShardSpec(spec=spec, index=0, total=1,
                      cells=(("nonexistent", 0, 1),))
        with pytest.raises(ValueError):
            ShardSpec(spec=spec, index=0, total=1, cells=(("mcf", 9, 1),))
        with pytest.raises(ValueError):
            ShardSpec(spec=spec, index=0, total=1,
                      cells=(("mcf", 0, 1), ("mcf", 0, 1)))


class TestShardArtifacts:
    def test_round_trip_and_digest(self):
        shard = plan_shards(tiny_spec(), 2)[0]
        result = execute_shard(shard)
        clone = ShardResult.from_json(result.to_json())
        assert clone.digest() == result.digest()
        assert [c.to_dict() for c in clone.cells] == \
            [c.to_dict() for c in result.cells]

    def test_truncated_artifact_rejected(self):
        shard = plan_shards(tiny_spec(), 2)[0]
        text = execute_shard(shard).to_json()
        with pytest.raises(ValueError):
            ShardResult.from_json(text[: len(text) // 2])

    def test_tampered_stats_rejected(self):
        shard = plan_shards(tiny_spec(), 2)[0]
        payload = json.loads(execute_shard(shard).to_json())
        payload["cells"][0]["stats"]["committed"] += 1
        with pytest.raises(ValueError, match="digest"):
            ShardResult.from_dict(payload)

    def test_missing_digest_rejected(self):
        shard = plan_shards(tiny_spec(), 2)[0]
        payload = json.loads(execute_shard(shard).to_json())
        del payload["digest"]
        with pytest.raises(ValueError, match="no digest"):
            ShardResult.from_dict(payload)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


class TestMerge:
    def test_out_of_order_merge_is_deterministic(self, reference):
        spec = tiny_spec()
        shards = plan_shards(spec, 4)
        results = [execute_shard(shard) for shard in shards]
        forward, holes_f = merge_shards(spec, results)
        backward, holes_b = merge_shards(spec, list(reversed(results)))
        assert holes_f == holes_b == ()
        assert forward.digest() == backward.digest() == reference.digest()
        # Cell *order* is canonical too, not just the sorted digest.
        assert [c.to_dict() for c in forward.cells] == \
            [c.to_dict() for c in backward.cells]

    def test_merge_reports_holes(self):
        spec = tiny_spec()
        shards = plan_shards(spec, 2)
        merged, holes = merge_shards(spec, [execute_shard(shards[0])])
        assert holes == tuple(shards[1].cell_ids())
        assert len(merged.cells) == len(shards[0].cells)

    def test_merge_rejects_foreign_fingerprint(self):
        spec = tiny_spec()
        result = execute_shard(plan_shards(spec, 2)[0])
        result.fingerprint = "0" * 16
        with pytest.raises(ValueError, match="foreign"):
            merge_shards(spec, [result])

    def test_merge_rejects_disagreeing_duplicates(self):
        spec = tiny_spec()
        shard = plan_shards(spec, 2)[0]
        first = execute_shard(shard)
        second = execute_shard(shard)
        tampered = CellResult.from_dict(second.cells[0].to_dict())
        tampered.stats.committed += 1
        second.cells[0] = tampered
        with pytest.raises(ValueError, match="disagree"):
            merge_shards(spec, [first, second])

    def test_merge_tolerates_agreeing_duplicates(self, reference):
        spec = tiny_spec()
        shards = plan_shards(spec, 2)
        results = [execute_shard(shard) for shard in shards]
        merged, holes = merge_shards(spec, results + [results[0]])
        assert holes == ()
        assert merged.digest() == reference.digest()


# ---------------------------------------------------------------------------
# Supervisor: the fault matrix
# ---------------------------------------------------------------------------


class TestSupervisor:
    def test_unfaulted_sharded_matches_in_process(self):
        for spec in (tiny_spec(), tiny_spec(seeds=(1, 2))):
            outcome = fast_supervisor().run(spec, shards=2)
            assert outcome.mode == "sharded"
            assert outcome.complete
            assert outcome.attempts == {0: 1, 1: 1}
            in_process = Session.for_spec(spec).run(spec)
            assert outcome.digest() == in_process.digest()

    def test_worker_crash_is_retried(self, reference):
        supervisor = fast_supervisor(faults="crash:0")
        outcome = supervisor.run(tiny_spec(), shards=2)
        assert outcome.complete
        assert outcome.attempts[0] == 2
        assert any("worker died" in line for line in outcome.failures)
        assert outcome.digest() == reference.digest()

    def test_hung_worker_is_killed_and_retried(self, reference):
        supervisor = fast_supervisor(faults="hang:1", deadline=1.0)
        outcome = supervisor.run(tiny_spec(), shards=2)
        assert outcome.complete
        assert outcome.attempts[1] == 2
        assert any("deadline exceeded" in line for line in outcome.failures)
        assert outcome.digest() == reference.digest()

    def test_corrupt_artifact_is_rejected_and_rerun(self, reference):
        supervisor = fast_supervisor(faults="corrupt:0")
        outcome = supervisor.run(tiny_spec(), shards=2)
        assert outcome.complete
        assert outcome.attempts[0] == 2
        assert any("rejected" in line for line in outcome.failures)
        assert outcome.digest() == reference.digest()

    def test_tampered_artifact_is_rejected_and_rerun(self, reference):
        supervisor = fast_supervisor(faults="tamper:1")
        outcome = supervisor.run(tiny_spec(), shards=2)
        assert outcome.complete
        assert outcome.attempts[1] == 2
        assert any("digest" in line for line in outcome.failures)
        assert outcome.digest() == reference.digest()

    def test_golden_faulted_digest_equals_in_process(self, reference):
        """The acceptance criterion: crash + corrupt + hang injected,
        merged digest still identical to the unfaulted in-process run."""
        supervisor = fast_supervisor(
            faults="crash:0,corrupt:1,hang:0:1", deadline=1.5,
        )
        outcome = supervisor.run(tiny_spec(), shards=2)
        assert outcome.complete
        # Shard 0: crash then hang then success = 3 attempts.
        assert outcome.attempts == {0: 3, 1: 2}
        assert outcome.digest() == reference.digest()

    def test_poison_shard_is_quarantined_with_explicit_holes(self):
        spec = tiny_spec()
        supervisor = fast_supervisor(faults="crash:0:*", max_attempts=2)
        outcome = supervisor.run(spec, shards=2)  # must not raise
        assert not outcome.complete
        assert outcome.quarantined == (0,)
        assert outcome.attempts[0] == 2
        shard0 = plan_shards(spec, 2)[0]
        assert outcome.holes == tuple(shard0.cell_ids())
        # The healthy shard's cells all arrived.
        present = {
            (cell.benchmark, cell.mechanism, cell.seed)
            for cell in outcome.result.cells
        }
        assert present == set(plan_shards(spec, 2)[1].cell_ids())

    def test_partial_result_round_trips_with_holes(self, tmp_path):
        supervisor = fast_supervisor(faults="crash:0:*", max_attempts=2)
        spec = tiny_spec()
        outcome = supervisor.run(spec, shards=2)
        assert outcome.holes
        # The partial RunResult is itself a valid, reloadable artifact:
        # its cells are exactly the grid minus the holes.
        path = tmp_path / "partial.json"
        outcome.result.save(path)
        clone = RunResult.load(path)
        assert clone.digest() == outcome.digest()
        grid = {cell for shard in plan_shards(spec, 2)
                for cell in shard.cell_ids()}
        present = {(c.benchmark, c.mechanism, c.seed) for c in clone.cells}
        assert present == grid - set(outcome.holes)

    def test_degrades_to_in_process_for_small_requests(self, reference):
        supervisor = fast_supervisor()
        for shards in (0, 1):
            outcome = supervisor.run(tiny_spec(), shards=shards)
            assert outcome.mode == "in-process"
            assert outcome.complete
            assert outcome.digest() == reference.digest()

    def test_slow_healthy_worker_outlives_the_deadline(self, monkeypatch):
        """The fork deadline is a liveness deadline: every finished cell
        restarts it, so a shard of four 0.3 s cells completes under a
        0.5 s deadline on its first attempt."""
        from repro.harness.sweep import SweepEngine
        from repro.pipeline.simulator import Simulator

        spec = tiny_spec(seeds=(1, 2))
        # Every cell is served by one engine warmed before the fork, so
        # each cell costs the injected sleep and nothing else.
        warm = SweepEngine(simulator=Simulator(trace_store=None))
        reference = Session(engine=warm).run(spec)
        run_cell = SweepEngine.run_cell

        def slow(self, *args, **kwargs):
            time.sleep(0.3)
            return run_cell(warm, *args, **kwargs)

        monkeypatch.setattr(SweepEngine, "run_cell", slow)
        assert all(len(s.cells) >= 4 for s in plan_shards(spec, 2))
        outcome = fast_supervisor(deadline=0.5).run(spec, shards=2)
        assert outcome.complete
        assert outcome.attempts == {0: 1, 1: 1}
        assert outcome.failures == ()
        assert outcome.digest() == reference.digest()

    def test_nothing_to_split_runs_on_the_calling_session(self, tmp_path):
        spec = tiny_spec()
        session = Session(store=StoreSpec(path=str(tmp_path)))
        outcome = session.run_sharded(spec, shards=1)
        assert outcome.mode == "in-process"
        assert session.engine.cell_misses == spec.cells
        assert any(tmp_path.iterdir())  # the session's store was used

    def test_spawn_failure_degrades_to_inline_execution(
        self, reference, monkeypatch, tmp_path
    ):
        import multiprocessing

        def refuse(process):
            raise OSError("cannot fork")

        monkeypatch.setattr(multiprocessing.Process, "start", refuse)
        spec = tiny_spec(obs=ObsSpec(
            enabled=True, dir=str(tmp_path), metrics_every=0
        ))
        outcome = fast_supervisor().run(spec, shards=2)
        assert outcome.mode == "sharded"
        assert outcome.complete
        assert outcome.attempts == {0: 1, 1: 1}
        assert outcome.digest() == reference.digest()
        inline = [
            record["tags"]["shard"] for record in event_records(tmp_path)
            if record["name"] == "shard.inline"
        ]
        assert sorted(inline) == [0, 1]

    def test_session_run_sharded_front_door(self, reference):
        spec = tiny_spec(shards=2)
        outcome = Session.for_spec(spec).run_sharded(
            spec, supervisor=fast_supervisor(faults="crash:1")
        )
        assert outcome.mode == "sharded"
        assert outcome.digest() == reference.digest()

    def test_more_shards_than_cells(self, reference):
        outcome = fast_supervisor().run(tiny_spec(), shards=32)
        assert outcome.complete
        assert len(outcome.attempts) == 4  # capped at the grid size
        assert outcome.digest() == reference.digest()


# ---------------------------------------------------------------------------
# The coordinator resolves every cell it holds before planning
# ---------------------------------------------------------------------------


class RecordingDispatcher(ForkDispatcher):
    """A fork dispatcher that remembers the cells of every shard it ran."""

    def __init__(self) -> None:
        super().__init__(deadline=60.0)
        self.planned: dict[int, tuple] = {}

    async def attempt(self, shard, attempt, fault):
        self.planned[shard.index] = shard.cells
        return await super().attempt(shard, attempt, fault)


def lake_spec(root, **overrides) -> ExperimentSpec:
    return tiny_spec(
        store=StoreSpec(path=str(root), result_lake=True), **overrides
    )


class TestCoordinatorResolution:
    def test_warm_memo_starts_no_worker(self, reference):
        spec = tiny_spec()
        session = Session.for_spec(spec)
        session.run(spec)
        outcome = session.run_sharded(
            spec, shards=2, supervisor=fast_supervisor()
        )
        assert outcome.mode == "in-process"
        assert outcome.attempts == {}
        assert outcome.digest() == reference.digest()
        assert session.engine.cell_misses == spec.cells

    def test_warm_lake_starts_no_worker(self, tmp_path, reference):
        spec = lake_spec(tmp_path)
        Session.for_spec(spec).run(spec)
        session = Session.for_spec(spec)
        outcome = session.run_sharded(
            spec, shards=2, supervisor=fast_supervisor()
        )
        assert outcome.mode == "in-process"
        assert outcome.attempts == {}
        assert outcome.digest() == reference.digest()
        assert session.engine.lake_hits == spec.cells
        assert session.engine.cell_misses == 0

    def test_one_missing_cell_runs_in_process(self, tmp_path, reference):
        spec = lake_spec(tmp_path)
        baseline, rsep = spec.mechanisms
        Session.for_spec(spec).run(replace(spec, mechanisms=(baseline,)))
        Session.for_spec(spec).run(replace(
            spec, benchmarks=("mcf",), mechanisms=(rsep,)
        ))
        session = Session.for_spec(spec)
        outcome = session.run_sharded(
            spec, shards=2, supervisor=fast_supervisor()
        )
        assert outcome.mode == "in-process" and outcome.attempts == {}
        assert outcome.digest() == reference.digest()
        assert session.engine.lake_hits == spec.cells - 1
        assert session.engine.cell_misses == 1

    def test_half_warm_lake_shards_only_the_misses(
        self, tmp_path, reference
    ):
        spec = lake_spec(tmp_path)
        baseline, rsep = spec.mechanisms
        # Warm a diagonal: (mcf, baseline) and (dealII, rsep).
        Session.for_spec(spec).run(replace(
            spec, benchmarks=("mcf",), mechanisms=(baseline,)
        ))
        Session.for_spec(spec).run(replace(
            spec, benchmarks=("dealII",), mechanisms=(rsep,)
        ))
        missing = {("mcf", 1, 1), ("dealII", 0, 1)}
        dispatcher = RecordingDispatcher()
        session = Session.for_spec(spec)
        outcome = fast_supervisor(
            faults="crash:0,corrupt:1", dispatcher=dispatcher
        ).run(spec, shards=2, session=session)
        assert outcome.mode == "sharded" and outcome.complete
        assert outcome.attempts == {0: 2, 1: 2}
        planned = [ref for cells in dispatcher.planned.values()
                   for ref in cells]
        assert sorted(planned) == sorted(missing)
        assert outcome.digest() == reference.digest()
        assert session.engine.lake_hits == 2
        assert session.engine.lake_writes == 2

    def test_custom_core_session_runs_in_process(self):
        # Workers simulate the default core, so a session on another
        # core must never file their cells under its own key.
        from repro.harness.sweep import SweepEngine
        from repro.pipeline.config import CoreConfig
        from repro.pipeline.simulator import Simulator

        spec = tiny_spec()
        session = Session(engine=SweepEngine(simulator=Simulator(
            CoreConfig(rob_entries=64), trace_store=None
        )))
        outcome = session.run_sharded(
            spec, shards=2, supervisor=fast_supervisor()
        )
        assert outcome.mode == "in-process" and outcome.attempts == {}
        assert outcome.digest() == session.run(spec).digest()
        assert session.engine.cell_misses == spec.cells

    def test_cold_run_plans_todays_shards(self):
        spec = tiny_spec(seeds=(1, 2))
        dispatcher = RecordingDispatcher()
        fast_supervisor(dispatcher=dispatcher).run(spec, shards=2)
        assert dispatcher.planned == {
            shard.index: shard.cells for shard in plan_shards(spec, 2)
        }

    def test_cold_lake_is_filed_by_the_coordinator_only(
        self, tmp_path, reference
    ):
        events = tmp_path / "events"
        spec = lake_spec(tmp_path / "lake", obs=ObsSpec(
            enabled=True, dir=str(events), metrics_every=0
        ))
        session = Session.for_spec(spec)
        outcome = session.run_sharded(
            spec, shards=2, supervisor=fast_supervisor()
        )
        assert outcome.mode == "sharded" and outcome.complete
        assert outcome.digest() == reference.digest()
        assert session.engine.lake_writes == spec.cells
        assert session.engine.cell_misses == 0
        lake_events = {}
        for record in event_records(events):
            if record["name"].startswith("sweep.cell.lake"):
                lake_events.setdefault(record["pid"], []).append(
                    record["name"]
                )
        assert lake_events == {
            os.getpid(): ["sweep.cell.lake_write"] * spec.cells
        }
        # A fresh session serves the whole grid from what was filed.
        warm = Session.for_spec(spec)
        assert warm.run(spec).digest() == reference.digest()
        assert warm.engine.cell_misses == 0


# ---------------------------------------------------------------------------
# Worker entry point
# ---------------------------------------------------------------------------


class TestWorkerEntry:
    def test_writes_verifiable_artifact(self, tmp_path):
        shard = plan_shards(tiny_spec(), 2)[1]
        out = tmp_path / "shard.json"
        shard_process_main(shard.to_json(), str(out), None)
        result = ShardResult.from_json(out.read_text())
        assert result.index == shard.index
        assert {(c.benchmark, c.mechanism, c.seed) for c in result.cells} \
            == set(shard.cell_ids())

    def test_corrupt_fault_produces_rejected_artifact(self, tmp_path):
        shard = plan_shards(tiny_spec(), 2)[0]
        out = tmp_path / "shard.json"
        shard_process_main(shard.to_json(), str(out), "corrupt")
        with pytest.raises(ValueError):
            ShardResult.from_json(out.read_text())

    def test_tamper_fault_produces_digest_mismatch(self, tmp_path):
        shard = plan_shards(tiny_spec(), 2)[0]
        out = tmp_path / "shard.json"
        shard_process_main(shard.to_json(), str(out), "tamper")
        with pytest.raises(ValueError, match="digest"):
            ShardResult.from_json(out.read_text())


# ---------------------------------------------------------------------------
# Server
# ---------------------------------------------------------------------------


class ServerThread:
    """A SweepServer on a background thread, for client round trips."""

    def __init__(self, socket_path):
        self.socket_path = socket_path
        self.server = SweepServer(socket_path)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        asyncio.set_event_loop(self.loop)
        try:
            self.loop.run_until_complete(self.server.serve())
        except asyncio.CancelledError:
            pass
        finally:
            self.loop.close()

    def __enter__(self):
        self.thread.start()
        deadline = time.monotonic() + 10.0
        while not self.socket_path.exists():
            if time.monotonic() > deadline:
                raise RuntimeError("server socket never appeared")
            time.sleep(0.01)
        return self

    def __exit__(self, *exc_info):
        def cancel_all():
            for task in asyncio.all_tasks(self.loop):
                task.cancel()
        self.loop.call_soon_threadsafe(cancel_all)
        self.thread.join(timeout=10.0)

    def shard(self, shard: ShardSpec, fault: str | None = None) -> dict:
        """One ``shard`` op round trip; returns the raw reply."""
        message = {"op": "shard", "shard": shard.to_dict()}
        if fault is not None:
            message["fault"] = fault
        return client.call(self.socket_path, message, timeout=60.0)


class TestServer:
    def test_served_sweep_matches_in_process(self, tmp_path, reference):
        spec = tiny_spec()
        with ServerThread(tmp_path / "repro.sock") as served:
            results = []
            for shard in plan_shards(spec, 2):
                reply = served.shard(shard)
                assert reply["ok"] is True
                results.append(ShardResult.from_dict(reply["result"]))
            assert served.server.requests_served == 2
        merged, holes = merge_shards(spec, results)
        assert holes == ()
        assert merged.digest() == reference.digest()

    def test_served_faults_survive(self, tmp_path):
        shard = plan_shards(tiny_spec(), 2)[0]
        with ServerThread(tmp_path / "repro.sock") as served:
            # A faulted payload comes back under a stale digest: the
            # coordinator-side load check rejects it ...
            for fault in ("corrupt", "tamper"):
                reply = served.shard(shard, fault=fault)
                assert reply["ok"] is True
                with pytest.raises(ValueError):
                    ShardResult.from_dict(reply["result"])
            # ... and the server keeps serving clean shards.
            clean = ShardResult.from_dict(served.shard(shard)["result"])
            assert clean.index == shard.index

    def test_malformed_request_gets_error_not_crash(self, tmp_path):
        with ServerThread(tmp_path / "repro.sock") as served:
            reply = client.call(served.socket_path, {"not an op": True})
            assert reply["ok"] is False
            assert "op" in reply["error"]
            # The server survived: a good request still works.
            hello = client.call(served.socket_path, {"op": "hello"})
            assert hello["ok"] is True

    def test_undecodable_shard_gets_error(self, tmp_path):
        with ServerThread(tmp_path / "repro.sock") as served:
            reply = client.call(
                served.socket_path,
                {"op": "shard", "shard": {"not": "a shard"}},
            )
            assert reply["ok"] is False
            assert "undecodable shard" in reply["error"]


# ---------------------------------------------------------------------------
# Environment front door
# ---------------------------------------------------------------------------


class TestServiceEnvironment:
    def test_new_variables_are_known(self, monkeypatch):
        import warnings

        from repro.api import env as api_env

        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_FAULTS", "crash:0")
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "7.5")
        with warnings.catch_warnings():
            warnings.simplefilter("error", api_env.UnknownReproVariable)
            assert api_env.warn_unknown_vars() == []

    def test_typed_readers(self, monkeypatch):
        from repro.api import env as api_env

        monkeypatch.delenv("REPRO_SHARDS", raising=False)
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        monkeypatch.delenv("REPRO_SHARD_TIMEOUT", raising=False)
        assert api_env.shards_from_env() == 0
        assert api_env.faults_from_env() is None
        assert api_env.shard_timeout_from_env() == 120.0
        monkeypatch.setenv("REPRO_SHARDS", "4")
        monkeypatch.setenv("REPRO_FAULTS", "hang:2:*")
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "7.5")
        assert api_env.shards_from_env() == 4
        assert api_env.faults_from_env() == "hang:2:*"
        assert api_env.shard_timeout_from_env() == 7.5

    def test_spec_overlay_precedence(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDS", "4")
        assert ExperimentSpec.from_env(benchmarks=["mcf"]).shards == 4
        # Explicit argument beats the environment.
        assert ExperimentSpec.from_env(
            benchmarks=["mcf"], shards=2
        ).shards == 2
        monkeypatch.delenv("REPRO_SHARDS")
        assert ExperimentSpec.from_env(benchmarks=["mcf"]).shards == 0

    def test_shards_survive_spec_json_and_stay_out_of_fingerprint(self):
        spec = tiny_spec(shards=3)
        clone = ExperimentSpec.from_json(spec.to_json())
        assert clone.shards == 3
        assert spec.fingerprint() == tiny_spec().fingerprint()

    def test_supervisor_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:1")
        monkeypatch.setenv("REPRO_SHARD_TIMEOUT", "9.0")
        supervisor = ShardSupervisor()
        assert supervisor.dispatcher.deadline == 9.0
        assert supervisor.faults.fault_for(1, 0) == "crash"
        # Explicit constructor arguments beat the environment.
        explicit = ShardSupervisor(
            dispatcher=ForkDispatcher(deadline=3.0), faults="hang:0"
        )
        assert explicit.dispatcher.deadline == 3.0
        assert explicit.faults.fault_for(0, 0) == "hang"

    def test_spec_rejects_negative_shards(self):
        with pytest.raises(ValueError, match="shards"):
            tiny_spec(shards=-1)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestServiceCli:
    def test_sweep_shards_writes_identical_artifact(
        self, tmp_path, capsys, reference
    ):
        from repro.api.cli import main

        artifact = tmp_path / "sharded.json"
        code = main([
            "sweep", "--benchmark", "mcf", "--benchmark", "dealII",
            "--warmup", "128", "--measure", "512",
            "--shards", "2", "--json", str(artifact),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "sharded over 2 shard(s)" in out
        assert RunResult.load(artifact).digest() == reference.digest()

    def test_sweep_smoke_shards_gate(self, capsys, monkeypatch):
        from repro.api.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "crash:0,corrupt:1")
        assert main(["sweep", "--smoke", "--shards", "2"]) == 0
        out = capsys.readouterr().out
        assert "sharded smoke" in out and "== in-process" in out

    FIGURES_ARGV = [
        "figures", "fig4", "fig6", "fig7",
        "--benchmark", "mcf", "--benchmark", "hmmer",
        "--warmup", "256", "--measure", "1024",
    ]

    def _figure_digests(self, out_dir) -> dict[str, str]:
        return {
            path.name: RunResult.load(path).digest()
            for path in sorted(out_dir.glob("*.json"))
        }

    def test_figures_survive_crash_and_corrupt(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.api.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "crash:0,corrupt:1")
        faulted = tmp_path / "faulted"
        assert main(self.FIGURES_ARGV + ["--out", str(faulted)]) == 0
        err = capsys.readouterr().err
        assert "fault survived" in err and "PARTIAL" not in err
        monkeypatch.delenv("REPRO_FAULTS")
        monkeypatch.setenv("REPRO_SHARDS", "1")
        in_process = tmp_path / "in-process"
        assert main(self.FIGURES_ARGV + ["--out", str(in_process)]) == 0
        digests = self._figure_digests(faulted)
        assert sorted(digests) == ["fig4.json", "fig6.json", "fig7.json"]
        assert digests == self._figure_digests(in_process)

    def test_figures_with_a_poison_shard_fail_loudly(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.api.cli import main

        monkeypatch.setenv("REPRO_FAULTS", "crash:0:*")
        code = main(self.FIGURES_ARGV + ["--out", str(tmp_path)])
        assert code == 1
        captured = capsys.readouterr()
        assert "Traceback" not in captured.out + captured.err
        # Shard 0 is mcf's block: every figure lost cells.
        assert "PARTIAL RESULT: 11 cell(s) lost" in captured.err
        assert "hole: mcf × baseline × seed 1" in captured.err
        assert "Figure 4" not in captured.out
        assert list(tmp_path.glob("*.json")) == []
        # The API front door refuses to hand out the incomplete figure.
        from repro.api.figures import run_figure

        with pytest.raises(RuntimeError, match="fig7 is incomplete"):
            run_figure("fig7", benchmarks=["mcf", "hmmer"],
                       window=WindowSpec(warmup=256, measure=1024))

    def test_serve_once_round_trip(self, tmp_path):
        from repro.api.cli import main

        socket_path = tmp_path / "serve.sock"
        reply_box = {}

        def hello():
            deadline = time.monotonic() + 30.0
            while not socket_path.exists():
                if time.monotonic() > deadline:
                    return
                time.sleep(0.01)
            reply_box["reply"] = client.call(socket_path, {"op": "hello"})

        thread = threading.Thread(target=hello, daemon=True)
        thread.start()
        assert main(["serve", "--socket", str(socket_path), "--once"]) == 0
        thread.join(timeout=30.0)
        assert reply_box["reply"]["ok"] is True
        assert reply_box["reply"]["hello"] == local_capabilities()
        assert not socket_path.exists()  # socket cleaned up on exit


# ---------------------------------------------------------------------------
# Crash-safe artifact writes (satellite)
# ---------------------------------------------------------------------------


class TestAtomicWrites:
    def test_atomic_write_replaces_and_leaves_no_temp(self, tmp_path):
        from repro.common.atomicio import atomic_write_text

        target = tmp_path / "artifact.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert list(tmp_path.iterdir()) == [target]

    def test_failed_write_preserves_existing_file(self, tmp_path,
                                                  monkeypatch):
        from repro.common import atomicio

        target = tmp_path / "artifact.json"
        target.write_text("precious")

        def explode(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(atomicio.os, "replace", explode)
        with pytest.raises(OSError):
            atomicio.atomic_write_text(target, "torn")
        assert target.read_text() == "precious"
        # The temp file was cleaned up, not leaked.
        assert list(tmp_path.iterdir()) == [target]

    def test_run_result_save_is_atomic(self, tmp_path, reference,
                                       monkeypatch):
        from repro.common import atomicio

        path = tmp_path / "result.json"
        reference.save(path)
        loaded = RunResult.load(path)
        assert loaded.digest() == reference.digest()

        # An interrupted re-save leaves the previous artifact intact.
        def explode(src, dst):
            raise OSError("interrupted")

        monkeypatch.setattr(atomicio.os, "replace", explode)
        with pytest.raises(OSError):
            reference.save(path)
        assert RunResult.load(path).digest() == reference.digest()
