"""Persistent trace store: codec round-trip, reuse, invalidation, recovery."""

from __future__ import annotations

import gc
import os
import pickle
import tracemalloc
from array import array

import pytest

from repro.isa.instruction import DynInst
from repro.pipeline.config import MechanismConfig
from repro.pipeline.simulator import Simulator, load_or_interpret
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.spec2006 import build_benchmark, generate_trace
from repro.workloads.store import TraceStore, workload_code_version
from repro.workloads.trace import execute

from helpers import (  # noqa: E402  (shared test helpers)
    assert_rows_equal,
    reference_row,
    stats_dict,
)


def assert_traces_identical(left, right):
    assert left.name == right.name
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert_rows_equal(a, b)


class TestCodec:
    def test_round_trip_is_field_exact(self):
        # gcc mixes every instruction class: ALU, loads/stores, branches,
        # calls/returns, moves and zero idioms.
        trace = generate_trace("gcc", 3000, seed=2)
        payload = trace.to_payload(3500)
        decoded = ColumnarTrace.from_payload(payload)
        assert payload["budget"] == 3500
        assert_traces_identical(trace, decoded)
        for index in range(len(decoded)):
            assert_rows_equal(reference_row(trace, index), decoded[index])

    def test_packed_payload_survives_pickle(self):
        trace = generate_trace("mcf", 1000, seed=1)
        payload = pickle.loads(
            pickle.dumps(trace.to_payload(1000),
                         protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert_traces_identical(trace, ColumnarTrace.from_payload(payload))

    def test_packed_pickle_is_much_smaller_than_object_pickle(self):
        trace = generate_trace("hmmer", 4000, seed=1)
        packed = pickle.dumps(trace.to_payload(4000),
                              protocol=pickle.HIGHEST_PROTOCOL)
        objects = pickle.dumps(trace.instructions,
                               protocol=pickle.HIGHEST_PROTOCOL)
        assert len(packed) < len(objects) / 2.5

    def test_decoded_trace_runs_bit_identically(self, tmp_path):
        fresh = Simulator(trace_store=None)
        warm = Simulator(trace_store=TraceStore(tmp_path))
        # Populate the store, then force a second simulator to load it.
        Simulator(trace_store=TraceStore(tmp_path)).trace_for(
            "mcf", 1, 9096
        )
        kwargs = dict(warmup=1000, measure=4000, seed=1)
        a = fresh.run_benchmark("mcf", MechanismConfig.rsep_realistic(),
                                **kwargs)
        b = warm.run_benchmark("mcf", MechanismConfig.rsep_realistic(),
                               **kwargs)
        assert warm.trace_store.hits == 1
        assert stats_dict(a.stats) == stats_dict(b.stats)


class TestStoreReuse:
    def test_save_then_load_covers_shorter_requests(self, tmp_path):
        store = TraceStore(tmp_path)
        version = workload_code_version()
        trace = generate_trace("mcf", 4000, seed=1)
        store.save(trace, "mcf", 1, 4000, version)
        loaded = store.load("mcf", 1, 2000, version)
        assert loaded is not None
        reloaded, budget = loaded
        assert budget == 4000
        assert_traces_identical(trace, reloaded)

    def test_longer_request_misses_and_overwrites(self, tmp_path):
        store = TraceStore(tmp_path)
        version = workload_code_version()
        store.save(generate_trace("mcf", 1000, seed=1), "mcf", 1, 1000,
                   version)
        assert store.load("mcf", 1, 4000, version) is None
        longer = generate_trace("mcf", 4000, seed=1)
        store.save(longer, "mcf", 1, 4000, version)
        loaded = store.load("mcf", 1, 4000, version)
        assert loaded is not None and len(loaded[0]) == 4000

    def test_simulator_prefix_reuse_spans_processes(self, tmp_path):
        # First "process" interprets and persists; second loads, never
        # interprets, and serves shorter requests from the same object.
        first = Simulator(trace_store=TraceStore(tmp_path))
        first.trace_for("omnetpp", 1, 4000)
        second = Simulator(trace_store=TraceStore(tmp_path))
        trace = second.trace_for("omnetpp", 1, 4000)
        assert second.trace_store.hits == 1
        assert second.trace_for("omnetpp", 1, 1500) is trace

    def test_distinct_seeds_and_benchmarks_do_not_collide(self, tmp_path):
        store = TraceStore(tmp_path)
        version = workload_code_version()
        store.save(generate_trace("mcf", 500, seed=1), "mcf", 1, 500,
                   version)
        assert store.load("mcf", 2, 500, version) is None
        assert store.load("astar", 1, 500, version) is None


class TestInvalidation:
    def test_version_changes_with_source_content(self, tmp_path,
                                                 monkeypatch):
        import repro.workloads.store as store_module

        a = tmp_path / "kernels.py"
        a.write_text("KERNEL = 1\n")
        monkeypatch.setattr(store_module, "_module_sources",
                            lambda: [a])
        monkeypatch.setattr(store_module, "_version_cache", None)
        before = store_module.workload_code_version()
        assert store_module.workload_code_version() == before  # memoised
        a.write_text("KERNEL = 2\n")
        os.utime(a, ns=(1, 1))  # force a distinct stat signature
        after = store_module.workload_code_version()
        assert after != before

    def test_stale_version_cannot_serve_memory_or_disk(self, tmp_path,
                                                       monkeypatch):
        import repro.pipeline.simulator as simulator_module

        simulator = Simulator(trace_store=TraceStore(tmp_path))
        first = simulator.trace_for("mcf", 1, 1000)
        # Same version: both caches hit.
        assert simulator.trace_for("mcf", 1, 800) is first
        # "Edit" the workload code: the version moves, so neither the
        # in-memory entry nor the on-disk artifact may be served.
        monkeypatch.setattr(simulator_module, "workload_code_version",
                            lambda: "deadbeefdeadbeef")
        rebuilt = simulator.trace_for("mcf", 1, 800)
        assert rebuilt is not first
        assert simulator.trace_store.hits == 0

    def test_disk_artifacts_are_versioned(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = generate_trace("mcf", 500, seed=1)
        store.save(trace, "mcf", 1, 500, "version-a")
        assert store.load("mcf", 1, 500, "version-b") is None
        assert store.load("mcf", 1, 500, "version-a") is not None


class TestCorruptionRecovery:
    def _stored_path(self, store: TraceStore) -> "os.PathLike":
        files = list(store.root.glob("*.trace"))
        assert len(files) == 1
        return files[0]

    @pytest.mark.parametrize("corruption", ["truncate", "garbage", "empty"])
    def test_unreadable_file_falls_back_to_interpretation(
        self, tmp_path, corruption
    ):
        simulator = Simulator(trace_store=TraceStore(tmp_path))
        original = simulator.trace_for("mcf", 1, 2000)
        path = self._stored_path(simulator.trace_store)
        data = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(data[: len(data) // 2])  # partial write
        elif corruption == "garbage":
            path.write_bytes(b"\x80\x05garbage" + data[:64])
        else:
            path.write_bytes(b"")

        recovering = Simulator(trace_store=TraceStore(tmp_path))
        rebuilt = recovering.trace_for("mcf", 1, 2000)
        assert recovering.trace_store.recovered == 1
        assert recovering.trace_store.hits == 0
        assert_traces_identical(original, rebuilt)
        # The bad file was overwritten by the fallback interpretation...
        assert recovering.trace_store.writes == 1
        # ...so a third simulator loads it cleanly again.
        third = Simulator(trace_store=TraceStore(tmp_path))
        assert_traces_identical(original, third.trace_for("mcf", 1, 2000))
        assert third.trace_store.hits == 1

    def test_wrong_format_version_is_a_miss(self, tmp_path):
        store = TraceStore(tmp_path)
        trace = generate_trace("mcf", 500, seed=1)
        version = workload_code_version()
        store.save(trace, "mcf", 1, 500, version)
        path = self._stored_path(store)
        payload = pickle.loads(path.read_bytes())
        payload["format"] = 999
        path.write_bytes(pickle.dumps(payload))
        assert store.load("mcf", 1, 500, version) is None
        assert store.recovered == 1

    @pytest.mark.parametrize("column, value", [
        ("result", lambda column: array("q", column.tobytes())),
        ("dest", lambda column: column.tolist()),
        ("pc", lambda column: array("Q", column.tobytes())),
        ("flags", bytearray),
    ], ids=["typecode", "list", "pc-typecode", "bytearray"])
    def test_wrong_column_type_is_a_miss(self, tmp_path, column, value):
        store = TraceStore(tmp_path)
        version = workload_code_version()
        store.save(generate_trace("mcf", 500, seed=1), "mcf", 1, 500,
                   version)
        path = self._stored_path(store)
        payload = pickle.loads(path.read_bytes())
        payload[column] = value(payload[column])
        with pytest.raises(ValueError, match=repr(column)):
            ColumnarTrace.from_payload(payload)
        path.write_bytes(pickle.dumps(payload))
        assert store.load("mcf", 1, 500, version) is None
        assert (store.misses, store.recovered) == (1, 1)

    def test_unwritable_root_is_non_fatal(self, tmp_path):
        blocked = tmp_path / "not-a-dir"
        blocked.write_text("file, not a directory")
        store = TraceStore(blocked)
        trace = generate_trace("mcf", 200, seed=1)
        assert store.save(trace, "mcf", 1, 200, "v") is None
        simulator = Simulator(trace_store=TraceStore(blocked))
        assert len(simulator.trace_for("mcf", 1, 200)) == 200


class TestCheckpointCorruptionRecovery:
    """A bad .ckpt re-warms instead of crashing (mirror of the
    corrupt-trace fallback above, for the µarch-checkpoint artifacts)."""

    SAMPLING_KWARGS = dict(warmup=1500, measure=4000, seed=1)

    def _sampling(self):
        from repro.sampling import SamplingConfig

        return SamplingConfig(
            enabled=True, interval=1000, detail_ratio=0.25,
            detail_warmup=128, checkpoints=True,
        )

    def _run(self, root):
        from repro.pipeline.config import MechanismConfig

        simulator = Simulator(trace_store=TraceStore(root))
        result = simulator.run_benchmark(
            "mcf", MechanismConfig.rsep_realistic(),
            sampling=self._sampling(), **self.SAMPLING_KWARGS,
        )
        return simulator.trace_store, stats_dict(result.stats)

    def _checkpoint_path(self, root):
        files = list(root.glob("*.ckpt"))
        assert len(files) == 1
        return files[0]

    @pytest.mark.parametrize(
        "corruption", ["truncate", "garbage", "empty", "foreign_payload"]
    )
    def test_bad_checkpoint_rewarrms_and_is_rewritten(
        self, tmp_path, corruption
    ):
        store, reference = self._run(tmp_path)
        assert store.checkpoint_writes == 1
        path = self._checkpoint_path(tmp_path)
        data = path.read_bytes()
        if corruption == "truncate":
            path.write_bytes(data[: len(data) // 2])  # partial write
        elif corruption == "garbage":
            path.write_bytes(b"\x80\x05garbage" + data[:64])
        elif corruption == "empty":
            path.write_bytes(b"")
        else:
            # Unpickles fine but is not a checkpoint tree: exercises the
            # restore_checkpoint fallback, not just the unpickling one.
            path.write_bytes(pickle.dumps({"format": 999, "bogus": True}))

        recovering, stats = self._run(tmp_path)
        assert recovering.checkpoint_hits + recovering.checkpoint_misses >= 1
        # Re-warmed results are bit-identical to the cold reference...
        assert stats == reference
        # ...and the bad artifact was overwritten, so a third run
        # restores cleanly.
        third, stats_again = self._run(tmp_path)
        assert third.checkpoint_hits == 1
        assert third.checkpoint_writes == 0
        assert stats_again == reference


class TestTracePlaneSelection:
    def test_default_is_columnar(self):
        trace = Simulator(trace_store=None).trace_for("mcf", 1, 500)
        assert isinstance(trace, ColumnarTrace)

    def test_planes_share_one_store_artifact(self, tmp_path):
        # One file on disk: the store serves it as a columnar view whose
        # rows equal the freshly interpreted ones and the rows
        # ``DynInst.__init__`` builds from the stored columns.
        cold = Simulator(trace_store=TraceStore(tmp_path))
        fresh = cold.trace_for("mcf", 1, 800)
        (path,) = tmp_path.glob("*.trace")
        warm = Simulator(trace_store=TraceStore(tmp_path))
        columnar = warm.trace_for("mcf", 1, 800)
        assert warm.trace_store.hits == 1
        assert isinstance(columnar, ColumnarTrace)
        with open(path, "rb") as handle:
            stored = ColumnarTrace.from_payload(pickle.load(handle))

        def rows(trace):
            return [[getattr(d, f) for f in DynInst.__slots__] for d in trace]

        reference = [reference_row(stored, i) for i in range(len(stored))]
        assert rows(reference) == rows(columnar) == rows(fresh)


class TestCompactColumns:
    """A trace holds about 58 bytes per instruction, fresh or loaded
    (DESIGN.md §9): packed per-instruction columns, and PC lists whose
    equal values share one int object."""

    #: The sampled 200k sweep's trace length: 8,000 + 200,000 + slack.
    N = 212_096
    BOUND = 16_000_000  # bytes; the list-column layout retained 26-36 MB

    @staticmethod
    def _retained(build):
        """``(result, bytes it still holds)`` of *build* under tracemalloc."""
        gc.collect()
        tracemalloc.start()
        try:
            result = build()
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        return result, retained

    def test_interpreted_trace_retains_at_most_16_mb(self):
        built = build_benchmark("mcf", 1)
        trace, retained = self._retained(
            lambda: execute(built.program, self.N, built.machine())
        )
        assert len(trace) == self.N
        assert retained <= self.BOUND, retained

    def test_loaded_trace_retains_at_most_16_mb(self, tmp_path):
        store = TraceStore(tmp_path)
        version = workload_code_version()
        load_or_interpret(store, "mcf", 1, self.N, version)
        loaded, retained = self._retained(
            lambda: store.load("mcf", 1, self.N, version)
        )
        assert loaded is not None and len(loaded[0]) == self.N
        assert retained <= self.BOUND, retained

    def test_fresh_and_loaded_traces_share_one_representation(self):
        fresh = generate_trace("gcc", 3000, seed=2)
        loaded = ColumnarTrace.from_payload(pickle.loads(pickle.dumps(
            fresh.to_payload(3000), protocol=pickle.HIGHEST_PROTOCOL
        )))
        for name in ColumnarTrace.__slots__:
            a, b = getattr(fresh, name), getattr(loaded, name)
            assert type(a) is type(b), name
            assert getattr(a, "typecode", None) == getattr(
                b, "typecode", None
            ), name
        for trace in (fresh, loaded):
            assert type(trace.results) is array
            for column in (trace.pcs, trace.targets, trace.lines):
                assert type(column) is list
                assert len({id(value) for value in column}) == len(
                    set(column)
                )
