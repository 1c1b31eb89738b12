"""Differential equivalence: columnar runtime vs the object-trace loops.

Store loads and fresh interpretation always yield a ``ColumnarTrace``;
object ``Trace`` inputs (``Simulator.run_trace``, the examples) keep the
object-walking fetch and warming loops.  Every test here runs the same
cell through both, the object side on a trace decoded from the same
packed payload (``helpers.plant_object_trace``), and asserts
*bit-identical* statistics, so any drift in the columnar fetch loop, the
lazy row materialiser, the column-indexed warmer or the codec itself
fails immediately.

The cells mirror ``tests/test_determinism.py``'s golden set (every
golden mechanism config), extend over all validation modes, and cover
sampled mode (functional warming + drains) plus the on-disk store round
trip.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.validation import ValidationMode
from repro.isa.instruction import DynInst
from repro.pipeline.config import MechanismConfig
from repro.pipeline.simulator import Simulator
from repro.sampling import SamplingConfig
from repro.workloads.columnar import ColumnarTrace, unpack_trace
from repro.workloads.store import TraceStore, workload_code_version
from repro.workloads.trace import Trace


from helpers import plant_object_trace, stats_dict  # noqa: E402


#: The golden set of tests/test_determinism.py: every mechanism config
#: pinned there, with the same windows.
GOLDEN_CELLS = [
    ("mcf", MechanismConfig.baseline, 1000, 4000),
    ("mcf", MechanismConfig.rsep_realistic, 1000, 4000),
    ("libquantum", MechanismConfig.rsep_plus_vp, 0, 8000),
]


def run_cell(
    columnar: bool,
    benchmark: str,
    mechanism: MechanismConfig,
    warmup: int,
    measure: int,
    store_root=None,
    sampling: SamplingConfig | None = None,
) -> dict:
    """One (benchmark, mechanism) cell on a columnar or object trace."""
    store = TraceStore(store_root) if store_root is not None else None
    simulator = Simulator(trace_store=store)
    if not columnar:
        plant_object_trace(simulator, benchmark, warmup, measure)
    result = simulator.run_benchmark(
        benchmark, mechanism, warmup=warmup, measure=measure, seed=1,
        sampling=sampling,
    )
    return stats_dict(result.stats)


class TestTracePlaneSelection:
    def test_default_is_columnar(self):
        trace = Simulator(trace_store=None).trace_for("mcf", 1, 500)
        assert isinstance(trace, ColumnarTrace)

    def test_planes_share_one_store_artifact(self, tmp_path):
        # One file on disk: the store serves it as a columnar view, and
        # the same payload decodes into the object rows it stands for.
        Simulator(trace_store=TraceStore(tmp_path)).trace_for("mcf", 1, 800)
        (path,) = tmp_path.glob("*.trace")
        warm = Simulator(trace_store=TraceStore(tmp_path))
        columnar = warm.trace_for("mcf", 1, 800)
        assert warm.trace_store.hits == 1
        assert isinstance(columnar, ColumnarTrace)
        with open(path, "rb") as handle:
            decoded, _ = unpack_trace(pickle.load(handle))
        assert isinstance(decoded, Trace)

        def rows(trace):
            return [[getattr(d, f) for f in DynInst.__slots__] for d in trace]

        assert rows(decoded) == rows(columnar)

    def test_planted_object_trace_is_served(self):
        simulator = Simulator(trace_store=None)
        plant_object_trace(simulator, "mcf", 100, 400)
        key = ("mcf", 1, workload_code_version())
        assert isinstance(simulator._trace_cache[key][0], Trace)
        assert simulator.trace_for("mcf", 1, 500) is (
            simulator._trace_cache[key][0]
        )


class TestGoldenCellEquivalence:
    @pytest.mark.parametrize(
        "bench,mechanism,warmup,measure", GOLDEN_CELLS,
        ids=lambda value: getattr(value, "__name__", str(value)),
    )
    def test_columnar_equals_dyninst(self, bench, mechanism, warmup, measure):
        columnar = run_cell(True, bench, mechanism(), warmup, measure)
        legacy = run_cell(False, bench, mechanism(), warmup, measure)
        assert columnar == legacy

    def test_store_round_trip_equivalence(self, tmp_path):
        # Interpret + persist once, then load the same artifact as a
        # columnar view and as decoded objects: all three runs
        # bit-identical.
        mechanism = MechanismConfig.rsep_realistic()
        cold = run_cell(True, "mcf", mechanism, 1000, 4000,
                        store_root=tmp_path)
        warm_columnar = run_cell(True, "mcf", mechanism, 1000, 4000,
                                 store_root=tmp_path)
        warm_legacy = run_cell(False, "mcf", mechanism, 1000, 4000,
                               store_root=tmp_path)
        assert cold == warm_columnar == warm_legacy


class TestValidationModeEquivalence:
    """All validation modes on both trace forms (queue traffic, squash
    drain and §IV.F retention all ride on trace-fed state)."""

    def _variants(self):
        yield MechanismConfig.rsep_validation(ValidationMode.IDEAL)
        yield MechanismConfig.rsep_validation(ValidationMode.REISSUE_LOCK_FU)
        yield MechanismConfig.rsep_validation(ValidationMode.REISSUE_ANY_FU)
        yield MechanismConfig.rsep_validation(
            ValidationMode.REISSUE_ANY_FU, sampling=True,
            start_train_threshold=15,
        )

    def test_all_modes_match(self):
        for mechanism in self._variants():
            columnar = run_cell(True, "hmmer", mechanism, 500, 3000)
            legacy = run_cell(False, "hmmer", mechanism, 500, 3000)
            assert columnar == legacy, mechanism.name


class TestSampledEquivalence:
    """Sampled mode exercises the column-indexed warmer, drains and
    ``skip_to`` — the paths a plain full-detail run never touches."""

    SAMPLING = SamplingConfig(
        enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128,
    )

    @pytest.mark.parametrize("mechanism_factory", [
        MechanismConfig.baseline,
        MechanismConfig.rsep_realistic,
        MechanismConfig.rsep_plus_vp,
    ], ids=lambda factory: factory.__name__)
    def test_sampled_columnar_equals_dyninst(self, mechanism_factory):
        kwargs = dict(warmup=1500, measure=6000, sampling=self.SAMPLING)
        columnar = run_cell(True, "xalancbmk", mechanism_factory(), **kwargs)
        legacy = run_cell(False, "xalancbmk", mechanism_factory(), **kwargs)
        assert columnar["warmed"] > 0  # the warmer really ran
        assert columnar == legacy

    def test_checkpoint_crosses_planes(self, tmp_path):
        # A µarch checkpoint captured on a columnar trace restores
        # bit-identically on the object trace: the warmed state is a
        # pure function of the trace *content*.
        mechanism = MechanismConfig.rsep_realistic()
        kwargs = dict(warmup=1500, measure=4000, sampling=self.SAMPLING)
        cold = run_cell(True, "mcf", mechanism, store_root=tmp_path, **kwargs)
        restored_store = TraceStore(tmp_path)
        simulator = Simulator(trace_store=restored_store)
        plant_object_trace(simulator, "mcf", 1500, 4000)
        restored = simulator.run_benchmark("mcf", mechanism, seed=1, **kwargs)
        assert restored_store.checkpoint_hits == 1
        # A genuine restore: no fallback re-warm rewrote the artifact.
        assert restored_store.checkpoint_writes == 0
        assert stats_dict(restored.stats) == cold
