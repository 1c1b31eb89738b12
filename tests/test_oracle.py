"""The pipeline's oracle: goldens and planted-pair programs, audited.

Each stage has one implementation, so nothing here compares two of them.
Instead every run below carries the invariant auditor (``auditor.py``):

* every golden cell of ``tests/test_determinism.py`` -- full detail and
  sampled, drains included -- reproduces its pinned value with the
  auditor attached, which is also the proof that auditing changes
  nothing it observes;
* a hypothesis fuzzer builds programs through ``workloads/builder.py``
  that plant both answers to the equality question, the way
  HoneyBadgerMPC's ``test_equality`` asserts ``share1 == share0 +
  share1`` and ``share1 != share2``: a value loaded again a few
  producers later (equal), and one static instruction that equals it on
  most iterations and is one bit off on a data-dependent subset (a
  near-miss RSEP, the zero predictor and the value predictor all take).
  Its equal pair through a share of zero is this repo's zero register:
  moves fed by a zero idiom and by a zero-predicted value;
* a fixed anchor program shows the near-misses really are predicted and
  caught, so the fuzzer cannot pass by never speculating, and a zero
  idiom feeding a move shows the zero register is moved without the
  ISRB;
* the auditor itself raises on planted faults.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import (
    HealthCheck,
    Phase,
    given,
    settings,
    strategies as st,
)

from repro.common.rng import XorShift64
from repro.core.validation import ValidationMode
from repro.isa.registers import RegClass
from repro.pipeline.config import MECHANISM_PRESETS, MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import Simulator
from repro.rename.move_elim import MoveEliminator
from repro.sampling import SamplingConfig
from repro.workloads.builder import ProgramBuilder
from repro.workloads.store import cell_stats_digest
from repro.workloads.trace import Machine, execute

from auditor import AuditError, Auditor, audit_every_pipeline  # noqa: E402
from helpers import stats_dict  # noqa: E402
from test_determinism import (  # noqa: E402
    GOLDEN_DIGESTS,
    GOLDEN_LIBQUANTUM_RSEP_VP,
    GOLDEN_MCF_BASELINE,
    GOLDEN_MCF_RSEP_REALISTIC,
)

#: Every preset, every validation mode and the sampled-sharing variant.
MECHANISMS = {
    **MECHANISM_PRESETS,
    **{
        f"rsep-val-{mode.value}":
            (lambda mode=mode: MechanismConfig.rsep_validation(mode))
        for mode in ValidationMode
    },
    "rsep-val-sampled": lambda: MechanismConfig.rsep_validation(
        ValidationMode.REISSUE_ANY_FU, sampling=True,
        start_train_threshold=15,
    ),
    # Zero-predicted values feeding moves: no preset has both.
    "zero_pred+move_elim": lambda: MechanismConfig(
        name="zero_pred+move_elim", zero_pred=True, move_elim=True,
    ),
}


def _audited_cell(monkeypatch, bench, mechanism, warmup, measure,
                  sampling=SamplingConfig()):
    """One simulator cell with every pipeline it builds audited."""
    auditors = audit_every_pipeline(monkeypatch)
    result = Simulator(trace_store=None).run_benchmark(
        bench, mechanism, warmup=warmup, measure=measure, seed=1,
        sampling=sampling,
    )
    assert auditors and all(a.commits > 0 and a.checks > 0
                            for a in auditors)
    return result.stats, auditors


class TestAuditedGoldens:
    """Auditor on == auditor off, on every pinned cell."""

    @pytest.mark.parametrize(
        "bench,mechanism,warmup,measure,sampling,digest", GOLDEN_DIGESTS
    )
    def test_golden_digest_under_audit(
        self, monkeypatch, bench, mechanism, warmup, measure, sampling,
        digest,
    ):
        stats, auditors = _audited_cell(
            monkeypatch, bench, mechanism, warmup, measure, sampling,
        )
        if sampling.enabled:
            assert stats.warmed > 0
            assert auditors[-1].drains > 0  # drain boundaries audited
        assert cell_stats_digest(dataclasses.asdict(stats)) == digest

    @pytest.mark.parametrize("bench,factory,warmup,measure,golden", [
        ("mcf", MechanismConfig.baseline, 1000, 4000, GOLDEN_MCF_BASELINE),
        ("mcf", MechanismConfig.rsep_realistic, 1000, 4000,
         GOLDEN_MCF_RSEP_REALISTIC),
        ("libquantum", MechanismConfig.rsep_plus_vp, 0, 8000,
         GOLDEN_LIBQUANTUM_RSEP_VP),
    ], ids=["mcf-baseline", "mcf-rsep-realistic", "libquantum-rsep+vpred"])
    def test_golden_stats_under_audit(self, monkeypatch, bench, factory,
                                      warmup, measure, golden):
        stats, _ = _audited_cell(monkeypatch, bench, factory(), warmup,
                                 measure)
        assert stats_dict(stats) == golden


# ---------------------------------------------------------------------------
# Planted-pair programs
# ---------------------------------------------------------------------------


def planted_trace(seed: int, slots: int, misses, gaps, move: bool,
                  store: bool, zero: bool = False,
                  instructions: int = 3000):
    """A loop over *slots* random words that plants equal pairs and
    near-misses.

    Per iteration: load the slot's value ``v`` and its near-miss bit
    ``m`` (1 on the slots in *misses*, else 0) and produce ``i ^ m``
    (strided, one bit off where ``m`` is set).  Then, per entry of
    *gaps*: that many unrelated producers, the value loaded again (an
    equal pair at a distance), and ``c = w ^ m`` -- one static
    instruction that equals ``v`` unless the slot is a near-miss.
    Optionally ``c`` is moved (move elimination) and stored and
    reloaded through a scratch slot (store-to-load forwarding).  With
    *zero*, moves copy the zero register: the result of a zero idiom
    (``w ^ w``) and ``m``, which is 0 on most slots, so the zero
    predictor learns to predict it.
    """
    rng = XorShift64(seed + 1)
    b = ProgramBuilder("planted")
    values = b.data.alloc_words([rng.next_u64() for _ in range(slots)])
    flags = b.data.alloc_words(
        [1 if k in misses else 0 for k in range(slots)]
    )
    scratch = b.data.alloc_words([0] * slots)
    i, limit, values_reg, flags_reg, scratch_reg, t, v_addr, m_addr, \
        s_addr, v, m, strided, acc = b.regs.int_regs(13)
    if zero:
        zeroed, zero_copy, flag_copy = b.regs.int_regs(3)
    b.movz(i, 0)
    b.load_imm64(limit, 1 << 40)
    b.load_imm64(values_reg, values)
    b.load_imm64(flags_reg, flags)
    b.load_imm64(scratch_reg, scratch)
    b.movz(acc, 0)
    loop = b.label(b.fresh_label("loop"))
    b.andi(t, i, slots - 1)
    b.lsli(t, t, 3)
    b.add(v_addr, values_reg, t)
    b.add(m_addr, flags_reg, t)
    b.ldr(v, v_addr)
    b.ldr(m, m_addr)
    b.eor(strided, i, m)
    for gap in gaps:
        w, c = b.regs.int_regs(2)
        for step in range(gap):
            b.addi(acc, acc, step + 1)
        b.ldr(w, v_addr)
        b.eor(c, w, m)
        if move:
            b.mov(b.regs.int_reg(), c)
        if store:
            b.add(s_addr, scratch_reg, t)
            b.str_(c, s_addr)
            b.ldr(b.regs.int_reg(), s_addr)
        if zero:
            b.eor(zeroed, w, w)
            b.mov(zero_copy, zeroed)
            b.mov(flag_copy, m)
    b.addi(i, i, 1)
    b.blt(i, limit, loop)
    b.halt()
    return execute(b.build(), instructions, Machine(dict(b.data.image)))


def run_audited(trace, mechanism, warmup: int = 500):
    """Run *trace* on an audited ``Pipeline`` built on it."""
    pipeline = Pipeline(trace, mechanisms=mechanism, seed=1)
    auditor = Auditor(pipeline)
    stats = pipeline.run(len(trace) - warmup, warmup)
    assert auditor.commits == pipeline.total_committed == len(trace)
    pipeline.close()
    return stats, auditor


#: Programs from a small space: a few pairs, up to a squash storm of
#: near-misses (a third of the slots), with or without moves, stores and
#: moves of the zero register.
PROGRAMS = st.fixed_dictionaries({
    "seed": st.integers(0, 1 << 16),
    "slots": st.sampled_from([16, 64, 128]),
    "misses": st.sets(st.integers(0, 127), max_size=40),
    "gaps": st.lists(st.integers(0, 6), min_size=1, max_size=3),
    "move": st.booleans(),
    "store": st.booleans(),
    "zero": st.booleans(),
})


class TestPlantedPairFuzzer:
    @pytest.mark.parametrize("mechanism", sorted(MECHANISMS))
    # Derandomized and bounded, failures included: no shrinking, so a
    # broken invariant reports its first program within the same budget.
    @settings(max_examples=5, deadline=None, derandomize=True,
              database=None, phases=[Phase.explicit, Phase.generate],
              suppress_health_check=[HealthCheck.too_slow])
    @given(program=PROGRAMS)
    def test_every_invariant_holds(self, mechanism, program):
        run_audited(planted_trace(**program), MECHANISMS[mechanism]())


#: A program whose near-misses every predictor takes: 128 slots, three
#: of them one bit off, late enough for the zero predictor to saturate.
ANCHOR = dict(seed=7, slots=128, misses={100, 140, 180}, gaps=[3],
              move=True, store=True, instructions=4000)


class TestAnchorProgram:
    def test_near_misses_are_predicted_and_caught(self):
        trace = planted_trace(**ANCHOR)
        rsep, auditor = run_audited(trace, MechanismConfig.rsep_ideal())
        assert rsep.dist_pred > 0 and auditor.value_checks > 0
        assert rsep.rsep_mispredicts > 0 and rsep.squashed_ops > 0
        zero, _ = run_audited(trace, MechanismConfig.zero_prediction())
        assert zero.zero_pred > 0 and zero.zero_mispredicts > 0
        vp, _ = run_audited(trace, MechanismConfig.value_prediction())
        assert vp.value_pred > 0 and vp.vp_mispredicts > 0
        moves, _ = run_audited(trace, MechanismConfig.move_elimination())
        assert moves.move_elim > 0


def zero_move_trace(instructions: int = 3000):
    """The loop ``eor x5,x5,x5; mov x6,x5``: every move copies the zero
    register."""
    b = ProgramBuilder("zero-move")
    i, limit, zeroed, copy = b.regs.int_regs(4)
    b.movz(i, 0)
    b.load_imm64(limit, 1 << 40)
    loop = b.label(b.fresh_label("loop"))
    b.eor(zeroed, zeroed, zeroed)
    b.mov(copy, zeroed)
    b.addi(i, i, 1)
    b.blt(i, limit, loop)
    b.halt()
    return execute(b.build(), instructions, Machine(dict(b.data.image)))


class TestZeroRegisterMoves:
    @pytest.mark.parametrize("mechanism", ["move_elim", "rsep"])
    def test_moves_of_the_zero_register_skip_the_isrb(self, mechanism):
        # Sharing the zero preg through the ISRB would pin an entry no
        # commit ever frees, until its counter saturates and every later
        # move is refused.
        pipeline = Pipeline(zero_move_trace(),
                            mechanisms=MECHANISMS[mechanism](), seed=1)
        auditor = Auditor(pipeline)
        stats = pipeline.run(2500, 500)
        assert auditor.commits == 3000
        assert stats.move_elim == 624  # every move of the window
        assert pipeline.move_eliminator.rejected == 0
        assert pipeline.isrb.occupancy == 0
        pipeline.close()

    def test_zero_predicted_values_feed_moves(self, monkeypatch):
        # Without near-misses the zero predictor learns ``m``, so the
        # move of ``m`` copies the zero register like the zero idiom's.
        eliminate = MoveEliminator.try_eliminate
        zero_moves = set()

        def recording(self, op):
            preg = eliminate(self, op)
            if preg == self._zero_preg:
                zero_moves.add(op.pc)
            return preg

        monkeypatch.setattr(MoveEliminator, "try_eliminate", recording)
        program = {**ANCHOR, "misses": set(), "zero": True}
        stats, _ = run_audited(planted_trace(**program),
                               MECHANISMS["zero_pred+move_elim"]())
        assert stats.zero_pred > 0
        assert len(zero_moves) == 2  # the zero idiom's move and m's


# ---------------------------------------------------------------------------
# The auditor catches what it claims to
# ---------------------------------------------------------------------------


def _anchor_pipeline(mechanism):
    pipeline = Pipeline(planted_trace(**ANCHOR), mechanisms=mechanism,
                        seed=1)
    return pipeline, Auditor(pipeline)


class TestAuditorCatchesFaults:
    def test_leaked_preg(self):
        pipeline, auditor = _anchor_pipeline(MechanismConfig.baseline())
        pipeline.run_until(200)
        pipeline.free_list._free_int.pop()
        with pytest.raises(AuditError, match="invariant 1"):
            auditor.check()

    def test_unreferenced_allocation(self):
        pipeline, auditor = _anchor_pipeline(MechanismConfig.baseline())
        pipeline.run_until(200)
        pipeline.free_list.allocate(RegClass.INT)
        with pytest.raises(AuditError, match="invariant 2"):
            auditor.check()

    def test_commit_out_of_order(self):
        pipeline, auditor = _anchor_pipeline(MechanismConfig.baseline())
        pipeline.run_until(200)
        auditor.next_index += 1  # as if one instruction had been skipped
        with pytest.raises(AuditError, match="invariant 4"):
            for _ in range(100):
                pipeline._step()

    def test_unvalidated_equality_prediction_commits(self, monkeypatch):
        # Every equality prediction looks validated: the near-misses
        # commit shared instead of squashing.
        share = Pipeline._try_share

        def always_equal(self, op, prediction, dest_class):
            preg = share(self, op, prediction, dest_class)
            if op.dist_used and not op.equality_ok:
                op.equality_ok = True
            return preg

        monkeypatch.setattr(Pipeline, "_try_share", always_equal)
        pipeline, _ = _anchor_pipeline(MechanismConfig.rsep_ideal())
        with pytest.raises(AuditError, match="invariant 5.*holds"):
            pipeline.run(3500, 500)
