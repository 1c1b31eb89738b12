"""Tests for the prediction structures: TAGE, distance, D-VTAGE, zero,
gshare, and the confidence scale."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.bitops import mask64
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.frontend.tage import TageBranchPredictor, TageConfig
from repro.predictors.confidence import (
    PAPER,
    SCALED,
    ConfidenceScale,
)
from repro.predictors.distance import (
    DistancePredictor,
    DistancePredictorConfig,
    NO_DISTANCE,
)
from repro.predictors.dvtage import DVtageConfig, DVtagePredictor
from repro.predictors.gshare_distance import (
    GshareDistanceConfig,
    GshareDistancePredictor,
)
from repro.predictors.tagged_table import (
    ComponentGeometry,
    GeometricIndexer,
    geometric_history_lengths,
)
from repro.predictors.zero import ZeroPredictor


def fresh_context(seed=1):
    return GlobalHistory(), PathHistory(), XorShift64(seed)


class TestConfidenceScale:
    def test_paper_scale_saturation(self):
        assert PAPER.cumulative[-1] == pytest.approx(255, rel=0.05)

    def test_scaled_saturation(self):
        assert SCALED.cumulative[-1] == pytest.approx(128, rel=0.05)

    def test_threshold_mapping_monotonic(self):
        scale = ConfidenceScale(saturate_occurrences=64)
        levels = [
            scale.level_for_paper_threshold(t) for t in (0, 15, 63, 255)
        ]
        assert levels == sorted(levels)
        assert levels[-1] == scale.levels

    def test_threshold_ratio_preserved(self):
        # start_train (63) must map strictly below use_pred (255).
        for scale in (SCALED, PAPER, ConfidenceScale(saturate_occurrences=32)):
            assert (
                scale.level_for_paper_threshold(63)
                < scale.level_for_paper_threshold(255)
            )

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            ConfidenceScale(saturate_occurrences=3, levels=7)


class TestGeometricMachinery:
    def test_history_lengths_monotonic(self):
        lengths = geometric_history_lengths(4, 640, 12)
        assert lengths[0] == 4 and lengths[-1] == 640
        assert all(b > a for a, b in zip(lengths, lengths[1:]))

    def test_single_component(self):
        assert geometric_history_lengths(5, 100, 1) == [5]

    def test_indexer_within_bounds(self):
        history, path, _ = fresh_context()
        geometries = [ComponentGeometry(8, 9, length) for length in (4, 16)]
        indexer = GeometricIndexer(geometries, history, path)
        rng = XorShift64(3)
        for _ in range(300):
            history.push(rng.next_below(2))
            lookup = indexer.lookup(rng.next_u64() & 0xFFFF)
            for index, tag, geometry in zip(
                lookup.indices, lookup.tags, geometries
            ):
                assert 0 <= index < geometry.entries
                assert 0 <= tag < (1 << geometry.tag_bits)

    def test_history_changes_index(self):
        history, path, _ = fresh_context()
        geometries = [ComponentGeometry(10, 12, 32)]
        indexer = GeometricIndexer(geometries, history, path)
        before = indexer.lookup(0x4000).indices[0]
        indices = set()
        rng = XorShift64(5)
        for _ in range(64):
            history.push(rng.next_below(2))
            indices.add(indexer.lookup(0x4000).indices[0])
        assert len(indices | {before}) > 1


class TestBranchTage:
    def test_learns_bias(self):
        history, path, rng = fresh_context()
        bp = TageBranchPredictor(TageConfig(), history, path, rng)
        correct = 0
        for i in range(500):
            pred = bp.predict(0x1000)
            taken = True
            if pred.taken == taken and i > 50:
                correct += 1
            bp.update(pred, taken)
            history.push(1)
            path.push(0x1000)
        assert correct > 430

    def test_learns_period_four_pattern(self):
        history, path, rng = fresh_context()
        bp = TageBranchPredictor(TageConfig(), history, path, rng)
        correct = late = 0
        for i in range(3000):
            taken = (i % 4) == 0
            pred = bp.predict(0x2000)
            if i >= 2000:
                late += 1
                correct += pred.taken == taken
            bp.update(pred, taken)
            history.push(1 if taken else 0)
            if taken:
                path.push(0x2000)
        assert correct / late > 0.95

    def test_random_stream_not_catastrophic(self):
        history, path, rng = fresh_context()
        bp = TageBranchPredictor(TageConfig(), history, path, rng)
        data = XorShift64(99)
        correct = 0
        for _ in range(2000):
            taken = data.chance(0.5)
            pred = bp.predict(0x3000)
            correct += pred.taken == taken
            bp.update(pred, taken)
            history.push(1 if taken else 0)
        assert 0.35 < correct / 2000 < 0.65

    def test_storage_close_to_table_i(self):
        history, path, rng = fresh_context()
        bp = TageBranchPredictor(TageConfig(), history, path, rng)
        # Table I: ~15K entries total -> tens of KB of state.
        total_entries = (1 << 12) + 12 * (1 << 10)
        assert total_entries == 16384
        assert 20 < bp.storage_report().total_kib < 40


class TestDistancePredictor:
    def make(self, config=None, seed=7):
        history, path, rng = fresh_context(seed)
        predictor = DistancePredictor(
            config or DistancePredictorConfig.realistic(), history, path, rng
        )
        return predictor, history

    def test_storage_matches_paper(self):
        ideal, _ = self.make(DistancePredictorConfig.ideal())
        realistic, _ = self.make(DistancePredictorConfig.realistic())
        assert ideal.storage_report().total_kib == pytest.approx(42.6, abs=0.1)
        assert realistic.storage_report().total_kib == pytest.approx(
            10.1, abs=0.1
        )

    def test_trains_stable_distance_to_confidence(self):
        predictor, _ = self.make()
        pc = 0x1000
        for _ in range(600):
            prediction = predictor.predict(pc)
            predictor.train_from_pairing(prediction, 17)
        prediction = predictor.predict(pc)
        assert prediction.use_pred and prediction.distance == 17

    def test_unstable_distance_never_confident(self):
        predictor, _ = self.make()
        rng = XorShift64(31)
        for _ in range(600):
            prediction = predictor.predict(0x2000)
            predictor.train_from_pairing(prediction, 1 + rng.next_below(100))
        assert not predictor.predict(0x2000).use_pred

    def test_mispredict_resets_confidence(self):
        predictor, _ = self.make()
        for _ in range(600):
            prediction = predictor.predict(0x1000)
            predictor.train_from_pairing(prediction, 9)
        prediction = predictor.predict(0x1000)
        assert prediction.use_pred
        predictor.on_mispredict(prediction)
        assert not predictor.predict(0x1000).use_pred

    def test_no_pair_does_not_train(self):
        predictor, _ = self.make()
        for _ in range(400):
            prediction = predictor.predict(0x3000)
            predictor.train_from_pairing(prediction, None)
        assert predictor.predict(0x3000).distance == NO_DISTANCE

    def test_out_of_range_distance_ignored(self):
        predictor, _ = self.make()
        for _ in range(400):
            prediction = predictor.predict(0x4000)
            predictor.train_from_pairing(prediction, 300)  # > 255
        assert not predictor.predict(0x4000).use_pred

    def test_validation_training_path(self):
        predictor, _ = self.make()
        for _ in range(600):
            prediction = predictor.predict(0x5000)
            predictor.train_from_pairing(prediction, 5)
            if prediction.use_pred:
                break
        # Continue training through the validation mechanism (§IV.B.3).
        for _ in range(100):
            prediction = predictor.predict(0x5000)
            predictor.train_from_validation(prediction, True)
        assert predictor.predict(0x5000).use_pred

    def test_likely_candidate_threshold_below_use_pred(self):
        predictor, _ = self.make()
        seen_likely_before_confident = False
        for _ in range(600):
            prediction = predictor.predict(0x6000)
            if prediction.likely_candidate and not prediction.use_pred:
                seen_likely_before_confident = True
            predictor.train_from_pairing(prediction, 12)
        assert seen_likely_before_confident

    def test_history_correlated_distances(self):
        # Same PC, two distances selected by a history bit: the tagged
        # components must eventually disambiguate.
        config = DistancePredictorConfig.ideal()
        predictor, history = self.make(config)
        correct = total = 0
        for i in range(4000):
            phase = (i // 8) % 2
            history.push(phase)
            prediction = predictor.predict(0x7000)
            observed = 11 if phase else 23
            if prediction.use_pred:
                total += 1
                correct += prediction.distance == observed
            predictor.train_from_pairing(prediction, observed)
        if total > 50:
            assert correct / total > 0.80


class TestDVtage:
    def make(self, seed=11):
        history, path, rng = fresh_context(seed)
        return DVtagePredictor(DVtageConfig(), history, path, rng)

    def test_learns_stride(self):
        predictor = self.make()
        value = 1000
        for _ in range(800):
            prediction = predictor.predict(0x1000)
            predictor.train(prediction, value)
            value = mask64(value + 24)
        prediction = predictor.predict(0x1000)
        assert prediction.predicted()
        assert prediction.value == value

    def test_learns_constant(self):
        predictor = self.make()
        for _ in range(800):
            prediction = predictor.predict(0x2000)
            predictor.train(prediction, 0xCAFE)
        prediction = predictor.predict(0x2000)
        assert prediction.predicted() and prediction.value == 0xCAFE

    def test_random_values_never_confident(self):
        predictor = self.make()
        rng = XorShift64(3)
        for _ in range(800):
            prediction = predictor.predict(0x3000)
            predictor.train(prediction, rng.next_u64())
        assert not predictor.predict(0x3000).predicted()

    def test_inflight_rank_compensation(self):
        # Two unresolved instances of a strided instruction: the second
        # must be predicted last + 2*stride (the BeBoP speculative window).
        predictor = self.make()
        value = 0
        for _ in range(800):
            prediction = predictor.predict(0x4000)
            predictor.train(prediction, value)
            value = mask64(value + 10)
        first = predictor.predict(0x4000)
        second = predictor.predict(0x4000)
        assert second.value == mask64(first.value + 10)
        predictor.train(first, first.value)
        predictor.train(second, second.value)

    def test_release_on_squash(self):
        predictor = self.make()
        value = 0
        for _ in range(800):
            prediction = predictor.predict(0x5000)
            predictor.train(prediction, value)
            value = mask64(value + 10)
        first = predictor.predict(0x5000)
        predictor.release(first)  # squashed
        again = predictor.predict(0x5000)
        assert again.value == first.value

    def test_mispredict_resets(self):
        predictor = self.make()
        for _ in range(800):
            prediction = predictor.predict(0x6000)
            predictor.train(prediction, 5)
        prediction = predictor.predict(0x6000)
        assert prediction.predicted()
        predictor.on_mispredict(prediction)
        predictor.train(prediction, 999)
        assert not predictor.predict(0x6000).predicted()


class TestZeroPredictor:
    def test_always_zero_becomes_confident(self):
        predictor = ZeroPredictor(rng=XorShift64(2))
        for _ in range(600):
            prediction = predictor.predict(0x1000)
            predictor.train(prediction, True)
        assert predictor.predict(0x1000).use_pred

    def test_nonzero_resets(self):
        predictor = ZeroPredictor(rng=XorShift64(2))
        for _ in range(600):
            prediction = predictor.predict(0x2000)
            predictor.train(prediction, True)
        prediction = predictor.predict(0x2000)
        predictor.train(prediction, False)
        assert not predictor.predict(0x2000).use_pred

    def test_intermittent_zero_rarely_confident(self):
        predictor = ZeroPredictor(rng=XorShift64(2))
        data = XorShift64(5)
        confident = 0
        for _ in range(2000):
            prediction = predictor.predict(0x3000)
            confident += prediction.use_pred
            predictor.train(prediction, data.chance(0.5))
        assert confident < 50

    def test_storage(self):
        predictor = ZeroPredictor(log2_entries=12)
        assert predictor.storage_report().total_bits == 4096 * 3


class TestGshareDistance:
    def make(self, seed=17):
        history = GlobalHistory()
        return (
            GshareDistancePredictor(
                GshareDistanceConfig(), history, XorShift64(seed)
            ),
            history,
        )

    def test_trains_stable_distance(self):
        predictor, _ = self.make()
        for _ in range(600):
            prediction = predictor.predict(0x1000)
            predictor.train_from_pairing(prediction, 21)
        prediction = predictor.predict(0x1000)
        assert prediction.use_pred and prediction.distance == 21

    def test_mispredict_resets(self):
        predictor, _ = self.make()
        for _ in range(600):
            prediction = predictor.predict(0x2000)
            predictor.train_from_pairing(prediction, 8)
        prediction = predictor.predict(0x2000)
        assert prediction.use_pred
        predictor.on_mispredict(prediction)
        assert not predictor.predict(0x2000).use_pred

    def test_validation_training(self):
        predictor, _ = self.make()
        for _ in range(600):
            prediction = predictor.predict(0x3000)
            predictor.train_from_pairing(prediction, 4)
            if prediction.likely_candidate:
                break
        for _ in range(200):
            prediction = predictor.predict(0x3000)
            predictor.train_from_validation(prediction, True)
        assert predictor.predict(0x3000).use_pred

    def test_storage_report(self):
        predictor, _ = self.make()
        assert predictor.storage_report().total_bits == 2 * 4096 * 11


# ---------------------------------------------------------------------------
# Memoised fast_predict vs predict_reference
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
