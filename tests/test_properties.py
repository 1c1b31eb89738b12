"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.common.bitops import fold_hash, mask64, to_signed64, from_signed64
from repro.common.history import GlobalHistory
from repro.common.rng import XorShift64
from repro.core.fifo_history import FifoHistory
from repro.core.sharing import ProducerWindow
from repro.isa.registers import RegClass
from repro.rename.free_list import FreeList
from repro.rename.isrb import Isrb

u64 = st.integers(min_value=0, max_value=(1 << 64) - 1)


class TestBitopsProperties:
    @given(u64)
    def test_fold_hash_in_range(self, value):
        for bits in (8, 13, 14, 16):
            assert 0 <= fold_hash(value, bits) < (1 << bits)

    @given(u64)
    def test_fold_hash_deterministic(self, value):
        assert fold_hash(value, 14) == fold_hash(value, 14)

    @given(u64, u64)
    def test_equal_values_equal_hashes(self, a, b):
        # No false negatives: the hash never misses a true equality.
        if a == b:
            assert fold_hash(a, 14) == fold_hash(b, 14)

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_signed_round_trip(self, value):
        assert to_signed64(from_signed64(value)) == value

    @given(u64, u64)
    def test_mask64_addition_closure(self, a, b):
        assert 0 <= mask64(a + b) < (1 << 64)


class TestFreeListProperties:
    @given(st.lists(st.booleans(), max_size=200))
    def test_alloc_free_conservation(self, operations):
        free_list = FreeList(64, 64)
        allocated = []
        for do_alloc in operations:
            if do_alloc:
                preg = free_list.allocate(RegClass.INT)
                if preg is not None:
                    allocated.append(preg)
            elif allocated:
                free_list.release(allocated.pop())
        assert free_list.free_int + len(allocated) == 64
        assert len(set(allocated)) == len(allocated)  # no duplicates


class TestIsrbProperties:
    @given(st.lists(st.sampled_from(["share", "deref", "unshare"]),
                    max_size=300))
    @settings(max_examples=60)
    def test_never_negative_never_leaks(self, operations):
        isrb = Isrb(entries=8)
        live_refs = 0  # extra references we created and not yet removed
        for operation in operations:
            if operation == "share":
                if isrb.share(7):
                    live_refs += 1
            elif operation == "deref" and isrb.is_shared(7):
                isrb.dereference(7)
            elif operation == "unshare" and isrb.is_shared(7):
                entry = isrb.entry(7)
                if entry is not None and entry.referenced > 0:
                    isrb.unshare(7)
                    live_refs -= 1
            entry = isrb.entry(7)
            if entry is not None:
                assert entry.referenced >= 0
                assert entry.committed >= 0
        assert isrb.occupancy <= 8


class TestFifoHistoryProperties:
    @given(st.lists(st.integers(min_value=0, max_value=7), min_size=2,
                    max_size=200))
    @settings(max_examples=60)
    def test_find_matches_linear_scan(self, hashes):
        history = FifoHistory(entries=32)
        pushed = []
        for value_hash in hashes:
            # Oracle: youngest older producer with the same hash.
            expected = None
            for age, older in enumerate(reversed(pushed), start=1):
                if age > 32:
                    break
                if older == value_hash:
                    expected = age
                    break
            assert history.find(value_hash, max_distance=255) == expected
            history.push(value_hash)
            pushed.append(value_hash)

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=5,
                    max_size=100),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=40)
    def test_preferred_distance_only_returns_real_matches(
        self, hashes, preferred
    ):
        history = FifoHistory(entries=16)
        pushed = []
        for value_hash in hashes:
            found = history.find(
                value_hash, max_distance=255, preferred_distance=preferred
            )
            if found is not None:
                assert pushed[len(pushed) - found] == value_hash
            history.push(value_hash)
            pushed.append(value_hash)


class _FifoReference:
    """The hardware FIFO by brute force: the last ``entries`` hashes in a
    list, scanned newest first on every search."""

    def __init__(self, entries: int) -> None:
        self.entries = entries
        self.fifo: list[int] = []
        self.searches = self.matches = self.preferred_matches = 0

    def push(self, value_hash: int) -> None:
        self.fifo.append(value_hash)
        del self.fifo[:-self.entries]

    def find(self, value_hash, max_distance, preferred=None):
        self.searches += 1
        best = None
        limit = min(self.entries, max_distance)
        for distance, older in enumerate(reversed(self.fifo), start=1):
            if distance > limit:
                break
            if older != value_hash:
                continue
            if preferred is not None and distance == preferred:
                self.matches += 1
                self.preferred_matches += 1
                return distance
            if best is None:
                best = distance
        if best is not None:
            self.matches += 1
        return best


_hash = st.integers(min_value=0, max_value=5)
_fifo_call = st.one_of(
    st.tuples(st.just("push"), _hash),
    st.tuples(st.just("push_group"), st.lists(_hash, max_size=6)),
    st.tuples(st.just("find"), _hash, st.integers(1, 12),
              st.one_of(st.none(), st.integers(1, 12))),
    st.tuples(st.just("find_push_group"),
              st.lists(st.tuples(_hash, st.integers(-1, 12)), max_size=6),
              st.integers(1, 12)),
)


class TestFifoWindowMatchesReference:
    """``FifoHistory`` holds only its window and answers every search
    exactly as a brute-force FIFO of the last ``entries`` hashes does."""

    @given(st.integers(min_value=1, max_value=8),
           st.lists(_fifo_call, max_size=60))
    @settings(max_examples=80, derandomize=True, database=None,
              deadline=None)
    def test_calls_results_and_counters_match(self, entries, calls):
        history = FifoHistory(entries=entries)
        reference = _FifoReference(entries)
        pushed = 0
        for call in calls:
            kind = call[0]
            if kind == "push":
                assert history.push(call[1]) == pushed
                reference.push(call[1])
                pushed += 1
            elif kind == "push_group":
                history.push_group(call[1])
                for value_hash in call[1]:
                    reference.push(value_hash)
                pushed += len(call[1])
            elif kind == "find":
                _, value_hash, max_distance, preferred = call
                assert history.find(
                    value_hash, max_distance, preferred
                ) == reference.find(value_hash, max_distance, preferred)
            else:
                _, ops, max_distance = call
                hashes = [value_hash for value_hash, _ in ops]
                prefs = [pref for _, pref in ops]
                expected = []
                for value_hash, pref in ops:
                    expected.append(None if pref < 0 else reference.find(
                        value_hash, max_distance, pref or None
                    ))
                    reference.push(value_hash)
                assert history.find_push_group(
                    hashes, prefs, max_distance
                ) == expected
                pushed += len(ops)
            assert history.producer_count == pushed
            assert (history.searches, history.matches,
                    history.preferred_matches) == (
                reference.searches, reference.matches,
                reference.preferred_matches)
            held = sum(map(len, history._positions.values()))
            assert held == min(pushed, entries)
            assert all(history._positions.values())  # no empty bucket
            assert len(history._window) == held


class TestProducerWindowProperties:
    @given(st.lists(st.sampled_from(["push", "commit", "squash"]),
                    max_size=300))
    @settings(max_examples=60)
    def test_fifo_discipline(self, operations):
        window = ProducerWindow(capacity=16)
        model = []
        for operation in operations:
            if operation == "push" and len(model) < 16:
                op = object()
                window.push(op)
                model.append(op)
            elif operation == "commit" and model:
                window.retire_head(model.pop(0))
            elif operation == "squash" and model:
                window.squash_tail(model.pop())
            assert len(window) == len(model)
            for distance in range(1, len(model) + 1):
                assert window.producer_at(distance) is model[-distance]


class TestHistoryProperties:
    @given(st.lists(st.booleans(), min_size=1, max_size=300))
    @settings(max_examples=50)
    def test_folded_consistency_under_restores(self, bits):
        from repro.common.bitops import fold_bits

        history = GlobalHistory()
        history.register_fold(16, 7)
        snapshots = []
        for index, bit in enumerate(bits):
            if index % 7 == 3:
                snapshots.append((history.snapshot(), history.raw(16)))
            history.push(1 if bit else 0)
        # Every snapshot restores exactly.
        for snapshot, raw in snapshots:
            history.restore(snapshot)
            assert history.raw(16) == raw
            assert history.folded(16, 7) == fold_bits(raw, 16, 7)


class TestRngProperties:
    @given(st.integers(min_value=0, max_value=(1 << 64) - 1))
    def test_streams_reproducible(self, seed):
        a, b = XorShift64(seed), XorShift64(seed)
        assert [a.next_u64() for _ in range(5)] == [
            b.next_u64() for _ in range(5)
        ]

    @given(st.integers(min_value=1, max_value=1 << 32))
    def test_next_below_in_range(self, bound):
        rng = XorShift64(1234)
        for _ in range(20):
            assert 0 <= rng.next_below(bound) < bound


# ---------------------------------------------------------------------------
# Packed-codec / columnar-trace properties
# ---------------------------------------------------------------------------

import pickle
from array import array

import pytest

from repro.isa.instruction import DynInst, NO_ADDR, NO_REG
from repro.isa.opcodes import Opcode, OP_INFO
from repro.isa.registers import NUM_ARCH_REGS, XZR
from repro.workloads.columnar import (
    KIND_BRANCH,
    KIND_CALL,
    KIND_CONDITIONAL,
    KIND_LOAD,
    KIND_RETURN,
    KIND_STORE,
    MOVE,
    TAKEN,
    ZERO_IDIOM,
    ColumnarTrace,
)

from helpers import assert_rows_equal, reference_row  # noqa: E402

_reg = st.integers(min_value=0, max_value=NUM_ARCH_REGS - 1)
_opt_reg = st.one_of(st.just(NO_REG), _reg)
_pc = st.integers(min_value=0, max_value=(1 << 20)).map(lambda w: w * 4)
_addr = st.one_of(st.just(NO_ADDR), st.integers(0, (1 << 40) - 1))
_target = st.one_of(st.just(-1), _pc)


@st.composite
def _dyn_fields(draw):
    """Field tuple for one random dynamic instruction.

    Deliberately wider than what the interpreter emits (any opcode may
    carry any register/flag combination) so the codec round-trip is
    pinned on raw field fidelity, not on interpreter invariants.
    """
    opcode = draw(st.sampled_from(list(Opcode)))
    return (
        opcode,
        draw(_pc),
        draw(_opt_reg),                 # dest (NO_REG / XZR included)
        draw(_opt_reg),                 # src1
        draw(_opt_reg),                 # src2
        draw(u64),                      # result
        draw(_addr),
        draw(st.booleans()),            # taken
        draw(_target),
        draw(st.booleans()),            # zero_idiom
        draw(st.booleans()),            # move
    )


def _build_trace(rows) -> ColumnarTrace:
    """The field tuples as trace columns, the form the interpreter
    writes."""
    (opcodes, pcs, dests, src1s, src2s, results, addrs, takens, targets,
     zero_idioms, moves) = (list(column) for column in zip(*rows))
    flags = bytes(
        (TAKEN if taken else 0) | (ZERO_IDIOM if zero_idiom else 0)
        | (MOVE if move else 0)
        for taken, zero_idiom, move in zip(takens, zero_idioms, moves)
    )
    return ColumnarTrace(
        "fuzz", len(rows), pcs, bytes(opcodes), array("b", dests),
        array("b", src1s), array("b", src2s), array("Q", results),
        array("q", addrs), targets, flags,
    )


def _reference_rows(rows) -> list[DynInst]:
    """``DynInst.__init__`` on the same field tuples: the reference
    ``ColumnarTrace.row`` must equal."""
    return [
        DynInst(
            seq=seq, pc=pc, opcode=opcode, dest=dest, src1=src1, src2=src2,
            result=result, addr=addr, taken=taken, target_pc=target_pc,
            zero_idiom=zero_idiom, move=move,
        )
        for seq, (opcode, pc, dest, src1, src2, result, addr, taken,
                  target_pc, zero_idiom, move) in enumerate(rows)
    ]


class TestCodecProperties:
    @given(st.lists(_dyn_fields(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_encode_decode_round_trip_both_planes(self, rows):
        # The columns as written and as decoded from their payload both
        # give the reference rows.
        trace = _build_trace(rows)
        payload = trace.to_payload(len(rows))
        assert payload["budget"] == len(rows)
        decoded = ColumnarTrace.from_payload(payload)
        assert len(decoded) == len(trace) == len(rows)
        for index, expected in enumerate(_reference_rows(rows)):
            assert_rows_equal(expected, trace.row(index))
            assert_rows_equal(expected, decoded.row(index))

    @given(st.lists(_dyn_fields(), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_column_reads_equal_dyninst_decode(self, rows):
        # Per-field *column* reads — what fetch and the warmer consume —
        # must agree with the reference row for every index.
        columnar = ColumnarTrace.from_payload(
            _build_trace(rows).to_payload(len(rows))
        )
        for index, d in enumerate(_reference_rows(rows)):
            assert columnar.pcs[index] == d.pc
            assert columnar.lines[index] == d.line
            assert columnar.dests[index] == d.dest
            assert columnar.src1s[index] == d.src1
            assert columnar.src2s[index] == d.src2
            assert columnar.results[index] == d.result
            assert columnar.addrs[index] == d.addr
            assert columnar.targets[index] == d.target_pc
            assert columnar.eligibles[index] == d.eligible
            kind = columnar.kinds[index]
            assert bool(kind & KIND_BRANCH) == d.is_branch
            assert bool(kind & KIND_CONDITIONAL) == d.is_conditional
            assert bool(kind & KIND_CALL) == d.is_call
            assert bool(kind & KIND_RETURN) == d.is_return
            assert bool(kind & KIND_LOAD) == d.is_load
            assert bool(kind & KIND_STORE) == d.is_store

    @given(st.lists(_dyn_fields(), min_size=1, max_size=30))
    @settings(max_examples=40, deadline=None)
    def test_repack_and_pickle_stability(self, rows):
        # ColumnarTrace -> payload -> ColumnarTrace is lossless, and the
        # payload survives pickling (the store's wire path) unchanged.
        first = ColumnarTrace.from_payload(_build_trace(rows).to_payload(7))
        payload = pickle.loads(
            pickle.dumps(first.to_payload(7),
                         protocol=pickle.HIGHEST_PROTOCOL)
        )
        assert payload["budget"] == 7
        second = ColumnarTrace.from_payload(payload)
        for index, expected in enumerate(_reference_rows(rows)):
            assert_rows_equal(expected, second.row(index))

    @given(st.lists(_dyn_fields(), min_size=2, max_size=20),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_truncated_column_is_rejected(self, rows, data):
        payload = _build_trace(rows).to_payload(len(rows))
        column = data.draw(st.sampled_from([
            "pc", "opcode", "dest", "src1", "src2", "result", "addr",
            "target_pc", "flags",
        ]))
        payload[column] = payload[column][:-1]
        with pytest.raises(ValueError):
            ColumnarTrace.from_payload(payload)

    def test_unknown_opcode_is_rejected(self):
        payload = _build_trace([(Opcode.ADD, 4, 1, 2, 3, 9, NO_ADDR, False,
                                 -1, False, False)]).to_payload(1)
        payload["opcode"] = bytes([250])
        with pytest.raises(ValueError):
            ColumnarTrace.from_payload(payload)


class TestCodecEdgeCases:
    """Directed cases the fuzz strategies only hit by chance."""

    def _single(self, **kwargs) -> DynInst:
        defaults = dict(seq=0, pc=64, opcode=Opcode.ADD, dest=1, src1=2,
                        src2=3, result=5, addr=NO_ADDR)
        defaults.update(kwargs)
        return DynInst(**defaults)

    def _round_trip(self, d: DynInst):
        trace = _build_trace([(
            d.opcode, d.pc, d.dest, d.src1, d.src2, d.result, d.addr,
            d.taken, d.target_pc, d.zero_idiom, d.move,
        )])
        columnar = ColumnarTrace.from_payload(trace.to_payload(1))
        assert_rows_equal(d, trace.row(0))
        assert_rows_equal(d, columnar.row(0))
        return columnar

    def test_no_reg_no_addr_sentinels(self):
        d = self._single(opcode=Opcode.NOP, dest=NO_REG, src1=NO_REG,
                         src2=NO_REG, result=0, addr=NO_ADDR)
        columnar = self._round_trip(d)
        assert columnar.dests[0] == NO_REG
        assert columnar.addrs[0] == NO_ADDR
        assert not columnar.eligibles[0]

    def test_xzr_dest_is_not_eligible(self):
        d = self._single(dest=XZR)
        columnar = self._round_trip(d)
        assert not columnar.eligibles[0]
        assert not columnar.row(0).produces_result()

    @pytest.mark.parametrize("opcode", [Opcode.DIV, Opcode.FDIV])
    def test_non_pipelined_dividers(self, opcode):
        d = self._single(opcode=opcode)
        columnar = self._round_trip(d)
        row = columnar.row(0)
        assert row.pipelined is False
        assert row.latency == OP_INFO[opcode].latency
        assert columnar.kinds[0] & KIND_BRANCH == 0

    @pytest.mark.parametrize("opcode,taken,flags", [
        (Opcode.B, True, (False, False, False)),
        (Opcode.BEQ, True, (True, False, False)),
        (Opcode.BEQ, False, (True, False, False)),
        (Opcode.BL, True, (False, True, False)),
        (Opcode.RET, True, (False, False, True)),
    ])
    def test_branch_flag_combinations(self, opcode, taken, flags):
        conditional, call, is_return = flags
        d = self._single(
            opcode=opcode, dest=NO_REG, taken=taken,
            target_pc=256 if taken else -1,
        )
        columnar = self._round_trip(d)
        kind = columnar.kinds[0]
        assert kind & KIND_BRANCH
        assert bool(kind & KIND_CONDITIONAL) == conditional
        assert bool(kind & KIND_CALL) == call
        assert bool(kind & KIND_RETURN) == is_return
        row = columnar.row(0)
        assert row.taken is taken
        assert row.target_pc == (256 if taken else -1)
        assert not columnar.eligibles[0]  # branches never share

    def test_extreme_results_and_addresses(self):
        d = self._single(result=(1 << 64) - 1, addr=(1 << 62) - 8,
                         opcode=Opcode.LDR)
        columnar = self._round_trip(d)
        assert columnar.results[0] == (1 << 64) - 1
        assert columnar.addrs[0] == (1 << 62) - 8
        assert columnar.kinds[0] & KIND_LOAD

    def test_interpreter_trace_round_trips(self):
        # A real committed-path trace (every instruction class the
        # benchmarks emit) through the full wire path.
        from repro.workloads.spec2006 import generate_trace

        trace = generate_trace("gcc", 2000, seed=3)
        columnar = ColumnarTrace.from_payload(trace.to_payload(2000))
        for index in range(len(trace)):
            expected = reference_row(trace, index)
            assert_rows_equal(expected, trace.row(index))
            assert_rows_equal(expected, columnar.row(index))
