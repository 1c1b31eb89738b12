"""Differential equivalence for the generated compute stages.

Every pipeline installs per-mechanism generated rename/issue loops
(``repro.pipeline.genrename``).  The generic ``Pipeline._rename`` /
``_issue`` methods stay as their reference: the tests here select them
by replacing the install with a no-op, run the same cell through both
(every preset and every validation mode, in full detail and sampled),
and assert *bit-identical* statistics.  The four plane combinations
cross that choice with the trace form (columnar vs object trace, as in
``tests/test_columnar_equivalence.py``).  The memoised distance-
predictor fast path and the issue-port arms inlined into both issue
loops get direct hypothesis equivalence tests of their own.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.backend.fu import FuClass, IssuePorts, PortConfig
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.core.validation import ValidationMode
from repro.pipeline.config import (
    CoreConfig,
    MECHANISM_PRESETS,
    MechanismConfig,
)
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import Simulator
from repro.predictors.distance import (
    DistancePredictor,
    DistancePredictorConfig,
)
from repro.sampling import SamplingConfig
from repro.workloads.store import TraceStore

from helpers import (  # noqa: E402  (shared test helpers)
    plant_object_trace,
    stats_dict,
    use_generic_stages,
)


SAMPLING = SamplingConfig(
    enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128,
)

#: Every validation mode, plus the sampled-sharing variant.
VALIDATION_VARIANTS = [
    MechanismConfig.rsep_validation(mode) for mode in ValidationMode
] + [
    MechanismConfig.rsep_validation(
        ValidationMode.REISSUE_ANY_FU, sampling=True,
        start_train_threshold=15,
    ),
]


def run_cell(
    monkeypatch,
    benchmark: str,
    mechanism: MechanismConfig,
    warmup: int,
    measure: int,
    *,
    generated: bool = True,
    columnar: bool = True,
    store_root=None,
    sampling: SamplingConfig | None = None,
) -> dict:
    """One cell on the requested rename/issue stages and trace form."""
    with monkeypatch.context() as patch:
        if not generated:
            use_generic_stages(patch)
        store = TraceStore(store_root) if store_root is not None else None
        simulator = Simulator(trace_store=store)
        if not columnar:
            plant_object_trace(simulator, benchmark, warmup, measure)
        result = simulator.run_benchmark(
            benchmark, mechanism, warmup=warmup, measure=measure, seed=1,
            sampling=sampling if sampling is not None
            else SamplingConfig(enabled=False),
        )
    return stats_dict(result.stats)


class TestGeneratedRenameEquivalence:
    """Generic vs generated rename/issue across every mechanism."""

    @pytest.mark.parametrize("preset", sorted(MECHANISM_PRESETS))
    def test_all_presets_match(self, monkeypatch, preset):
        mechanism = MECHANISM_PRESETS[preset]()
        generated = run_cell(monkeypatch, "mcf", mechanism, 500, 3000)
        generic = run_cell(
            monkeypatch, "mcf", mechanism, 500, 3000, generated=False
        )
        assert generated == generic

    @pytest.mark.parametrize("preset", sorted(MECHANISM_PRESETS))
    def test_all_presets_match_sampled(self, monkeypatch, preset):
        mechanism = MECHANISM_PRESETS[preset]()
        kwargs = dict(sampling=SAMPLING)
        generated = run_cell(monkeypatch, "mcf", mechanism, 500, 3000,
                             **kwargs)
        generic = run_cell(monkeypatch, "mcf", mechanism, 500, 3000,
                           generated=False, **kwargs)
        assert generated["warmed"] > 0  # the warmer really ran
        assert generated == generic

    def test_all_validation_modes_match(self, monkeypatch):
        for mechanism in VALIDATION_VARIANTS:
            generated = run_cell(monkeypatch, "hmmer", mechanism, 500, 3000)
            generic = run_cell(
                monkeypatch, "hmmer", mechanism, 500, 3000, generated=False
            )
            assert generated == generic, mechanism.name

    def test_all_validation_modes_match_sampled(self, monkeypatch):
        for mechanism in VALIDATION_VARIANTS:
            generated = run_cell(monkeypatch, "hmmer", mechanism, 500, 3000,
                                 sampling=SAMPLING)
            generic = run_cell(monkeypatch, "hmmer", mechanism, 500, 3000,
                               generated=False, sampling=SAMPLING)
            assert generated["warmed"] > 0
            assert generated == generic, mechanism.name

    def test_code_cache_shared_per_fingerprint(self):
        from repro.pipeline import genrename

        config = CoreConfig()
        first = genrename.compiled_stages(
            config, MechanismConfig.rsep_realistic()
        )
        second = genrename.compiled_stages(
            config, MechanismConfig.rsep_realistic()
        )
        assert first[0] is second[0] and first[1] is second[1]
        other = genrename.compiled_stages(config, MechanismConfig.baseline())
        assert other[0] is not first[0]

    def test_escape_hatch_restores_generic_methods(self, monkeypatch):
        # Every pipeline binds the generated loops; the no-op install
        # the equivalence tests use leaves the generic methods in place.
        trace = Simulator(trace_store=None).trace_for("mcf", 1, 500)
        pipeline = Pipeline(trace, CoreConfig(), MechanismConfig.baseline())
        assert "_rename" in vars(pipeline) and "_issue" in vars(pipeline)
        use_generic_stages(monkeypatch)
        pipeline = Pipeline(trace, CoreConfig(), MechanismConfig.baseline())
        assert "_rename" not in vars(pipeline)
        assert "_issue" not in vars(pipeline)


class TestFourPlaneCombinations:
    """Generated vs generic rename/issue × columnar vs object trace: all
    four combinations digest-identical, including through a sampled-
    checkpoint capture/restore cycle."""

    def test_sampled_rsep_realistic_all_combinations(self, monkeypatch):
        kwargs = dict(warmup=1500, measure=4000, sampling=SAMPLING)
        reference = run_cell(
            monkeypatch, "mcf", MechanismConfig.rsep_realistic(),
            generated=False, columnar=False, **kwargs,
        )
        for generated in (True, False):
            for columnar in (True, False):
                if not generated and not columnar:
                    continue
                observed = run_cell(
                    monkeypatch, "mcf", MechanismConfig.rsep_realistic(),
                    generated=generated, columnar=columnar, **kwargs,
                )
                assert observed == reference, (generated, columnar)

    def test_checkpoint_crosses_planes(self, monkeypatch, tmp_path):
        # A µarch checkpoint captured on the generated loops over a
        # columnar trace restores bit-identically on the generic loops
        # over an object trace: warmed state is a pure function of the
        # trace content, and the restore re-stamps the fast-predict memo
        # version (see checkpoint.py).
        mechanism = MechanismConfig.rsep_realistic()
        kwargs = dict(warmup=1500, measure=4000, sampling=SAMPLING)
        cold = run_cell(
            monkeypatch, "mcf", mechanism, store_root=tmp_path, **kwargs,
        )
        use_generic_stages(monkeypatch)
        restored_store = TraceStore(tmp_path)
        simulator = Simulator(trace_store=restored_store)
        plant_object_trace(simulator, "mcf", 1500, 4000)
        restored = simulator.run_benchmark("mcf", mechanism, seed=1, **kwargs)
        assert restored_store.checkpoint_hits == 1
        # A genuine restore: no fallback re-warm rewrote the artifact.
        assert restored_store.checkpoint_writes == 0
        assert stats_dict(restored.stats) == cold


# ---------------------------------------------------------------------------
# Satellite: memoised fast_predict vs predict_reference
# ---------------------------------------------------------------------------


def _predictor_pair():
    """Two predictors sharing nothing, built identically: one drives the
    memoised generated path, the other the generic reference."""
    pairs = []
    for _ in range(2):
        history = GlobalHistory()
        path = PathHistory()
        predictor = DistancePredictor(
            DistancePredictorConfig.realistic(), history, path,
            XorShift64(0xDECAF),
        )
        pairs.append((history, path, predictor))
    return pairs


_PCS = [0x1000 + 4 * i for i in range(24)]

_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("push"), st.integers(0, 1)),
        st.tuples(st.just("path"), st.sampled_from(_PCS)),
        st.tuples(st.just("predict"), st.sampled_from(_PCS)),
        st.tuples(st.just("repredict"), st.sampled_from(_PCS)),
        st.tuples(st.just("train_pair"), st.integers(0, 40)),
        st.tuples(st.just("train_val"), st.booleans()),
        st.tuples(st.just("mispredict"), st.just(0)),
        st.tuples(st.just("snapshot"), st.just(0)),
        st.tuples(st.just("restore"), st.just(0)),
    ),
    min_size=4, max_size=80,
)


def _fields(p):
    return (
        p.pc, p.distance, p.use_pred, p.likely_candidate, p.provider,
        p.indices, p.tags, p.base_index, p.confidence_level,
    )


class TestMemoisedPredictEquivalence:
    """The memoised fast path vs ``predict_reference`` under interleaved
    pushes, trainings and squash-style history snapshot/restores."""

    @settings(max_examples=60, deadline=None)
    @given(ops=_OPS)
    def test_random_interleavings(self, ops):
        (hist_fast, path_fast, fast), (hist_ref, path_ref, ref) = (
            _predictor_pair()
        )
        last_fast = last_ref = None
        snap = None
        for op, value in ops:
            if op == "push":
                hist_fast.push(value)
                hist_ref.push(value)
            elif op == "path":
                path_fast.push(value)
                path_ref.push(value)
            elif op in ("predict", "repredict"):
                last_fast = fast.predict(value)
                last_ref = ref.predict_reference(value)
                if op == "repredict":
                    # Same history/path/tables: the memo must serve the
                    # identical object, counters advancing as ever.
                    assert fast.predict(value) is last_fast
                    last_ref = ref.predict_reference(value)
                assert _fields(last_fast) == _fields(last_ref)
            elif op == "train_pair" and last_fast is not None:
                fast.train_from_pairing(last_fast, value)
                ref.train_from_pairing(last_ref, value)
            elif op == "train_val" and last_fast is not None:
                fast.train_from_validation(last_fast, value)
                ref.train_from_validation(last_ref, value)
            elif op == "mispredict" and last_fast is not None:
                fast.on_mispredict(last_fast)
                ref.on_mispredict(last_ref)
            elif op == "snapshot":
                snap = (
                    hist_fast.snapshot(), path_fast.snapshot(),
                    hist_ref.snapshot(), path_ref.snapshot(),
                )
            elif op == "restore" and snap is not None:
                # Squash emulation: roll history back under the memo.
                hist_fast.restore(snap[0])
                path_fast.restore(snap[1])
                hist_ref.restore(snap[2])
                path_ref.restore(snap[3])
        # Stat counters advanced in lockstep on both paths.
        assert fast.lookups == ref.lookups
        assert fast.confident_predictions == ref.confident_predictions

    def test_memo_hit_and_invalidation(self):
        (_, _, fast), _ = _predictor_pair()
        first = fast.predict(0x1000)
        assert fast.predict(0x1000) is first  # memo hit
        fast.invalidate_prediction_memo()
        recomputed = fast.predict(0x1000)
        assert recomputed is not first  # version re-stamped: recompute
        assert _fields(recomputed) == _fields(first)  # tables untouched

    def test_training_invalidates_memo(self):
        (_, _, fast), _ = _predictor_pair()
        first = fast.predict(0x1000)
        fast.train_from_pairing(first, 3)  # bumps the table version
        assert fast.predict(0x1000) is not first


# ---------------------------------------------------------------------------
# Satellite: try_issue arms inlined into the issue loops
# ---------------------------------------------------------------------------


def _inline_arm(ports: IssuePorts, fu: FuClass, cycle: int) -> bool:
    """Replica of the arms both issue loops inline (core.py / genrename):
    the INT_ALU/BRANCH and MEM_LOAD decisions with literal counts."""
    if fu is FuClass.INT_ALU or fu is FuClass.BRANCH:
        if ports._alu >= ports._alu_count:
            return False
        ports._alu += 1
        ports._total += 1
        return True
    if fu is FuClass.MEM_LOAD:
        if ports._ldst >= ports._ldst_ports:
            return False
        ports._ldst += 1
        ports._total += 1
        return True
    return ports.try_issue(fu, cycle)


class TestIssuePortInlineEquivalence:
    """The inlined arms match ``IssuePorts.try_issue`` exactly while a
    slot is free — and both issue loops break on ``_total >=
    issue_width`` before ever reaching an arm, so that is the only
    regime the inline decision runs in."""

    @settings(max_examples=120, deadline=None)
    @given(
        fus=st.lists(
            st.sampled_from([
                FuClass.INT_ALU, FuClass.BRANCH, FuClass.MEM_LOAD,
                FuClass.MEM_STORE, FuClass.FP_ALU, FuClass.INT_MUL,
            ]),
            min_size=1, max_size=24,
        ),
    )
    def test_arm_matches_method(self, fus):
        config = PortConfig()
        oracle = IssuePorts(config)
        inlined = IssuePorts(config)
        oracle.new_cycle(0)
        inlined.new_cycle(0)
        for fu in fus:
            # Both issue loops only reach the arms below this guard.
            if inlined._total >= config.issue_width:
                break
            assert oracle.try_issue(fu, 0) == _inline_arm(inlined, fu, 0)
            assert (
                oracle._total, oracle._alu, oracle._ldst,
                oracle._fp, oracle._store_only, oracle._mul,
            ) == (
                inlined._total, inlined._alu, inlined._ldst,
                inlined._fp, inlined._store_only, inlined._mul,
            )
