"""Behavioural tests for the workload kernels and builder internals.

Each kernel advertises a value behaviour (RSEP-capturable, VP-capturable,
zero-producing, …); these tests verify the advertised property holds in
the generated trace, independent of any timing model.
"""

import tracemalloc

import pytest

from repro.common.bitops import MASK64
from repro.common.rng import XorShift64
from repro.isa.program import ProgramError
from repro.workloads import kernels as K
from repro.workloads.builder import (
    DATA_BASE,
    DataSegment,
    ProgramBuilder,
    RegAllocator,
)
from repro.workloads.spec2006 import build_benchmark
from repro.workloads.trace import Machine, execute


def run_kernels(kernel_factories, instructions=12000, seed=42):
    builder = ProgramBuilder("kernel-test")
    rng = XorShift64(seed)
    kernels = [factory(builder, rng) for factory in kernel_factories]
    entry = builder.fresh_label("main")
    builder.b(entry)
    for kernel in kernels:
        if kernel.functions is not None:
            kernel.functions()
    builder.label(entry)
    for kernel in kernels:
        kernel.setup()
    loop = builder.label(builder.fresh_label("outer"))
    for kernel in kernels:
        kernel.body()
    builder.b(loop)
    builder.halt()
    return execute(
        builder.build(), instructions, Machine(dict(builder.data.image))
    )


def stable_distance_fraction(trace, pc):
    """Fraction of dynamic instances of *pc* whose result equals the
    result of a producer at one single dominant back-distance."""
    producers = [d for d in trace if d.produces_result()]
    positions = {}
    distances = []
    for index, d in enumerate(producers):
        if d.pc == pc and d.result in positions:
            distances.append(index - positions[d.result])
        positions.setdefault(d.result, index)
        positions[d.result] = index
    if not distances:
        return 0.0
    dominant = max(set(distances), key=distances.count)
    return distances.count(dominant) / len(distances)


class TestRegAllocator:
    def test_exhaustion(self):
        allocator = RegAllocator()
        allocator.int_regs(30)
        with pytest.raises(ProgramError):
            allocator.int_reg()

    def test_fp_pool(self):
        allocator = RegAllocator()
        regs = allocator.fp_regs(32)
        assert len(set(regs)) == 32
        with pytest.raises(ProgramError):
            allocator.fp_reg()


class TestDataSegment:
    def test_bump_allocation_aligned(self):
        segment = DataSegment()
        a = segment.alloc(10, align=8)
        b = segment.alloc(8, align=8)
        assert a >= DATA_BASE and a % 8 == 0
        assert b >= a + 10

    def test_words_and_bytes(self):
        segment = DataSegment()
        base = segment.alloc_words([1, 2, 3])
        assert segment.image[base >> 3] == 1
        assert segment.image[(base >> 3) + 2] == 3
        buf = segment.alloc_bytes(b"\x11\x22")
        assert segment.image[buf >> 3] & 0xFFFF == 0x2211

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            DataSegment().alloc(0)


class TestMemoryImage:
    def test_packed_words_read_masked_and_zero_elsewhere(self):
        segment = DataSegment()
        base = segment.alloc_words([5, -1])
        image = segment.image
        word = base >> 3
        assert image[word] == 5
        assert image[word + 1] == MASK64
        assert image[word + 2] == 0 and image[0] == 0
        assert dict(image) == {word: 5, word + 1: MASK64}

    def test_machines_read_one_image_and_never_write_it(self):
        segment = DataSegment()
        base = segment.alloc_words([1, 2])
        first, second = Machine(segment.image), Machine(segment.image)
        first.store_word(base, 9)
        assert first.load_word(base) == 9
        assert second.load_word(base) == 1
        assert segment.image[base >> 3] == 1
        assert second.load_word(base + 16) == 0

    def test_interpreting_a_large_image_stays_small(self):
        # bzip2's image holds 66,560 words.  As a dict, copied into the
        # benchmark and again into the machine, it peaked above 10 MB
        # here; packed and read lazily it peaks at 2.2 MB, so a run that
        # interprets stays as low as one that loads a stored trace.
        tracemalloc.start()
        try:
            built = build_benchmark("bzip2", 1)
            trace = execute(built.program, 4000, built.machine())
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(trace) == 4000
        assert peak < 4_000_000, f"peak {peak / 1e6:.2f} MB"


class TestRingChase:
    def test_chase_values_periodic_and_stable(self):
        trace = run_kernels(
            [lambda b, r: K.ring_chase(b, r, ring_nodes=8, reps=16,
                                       payload=False)]
        )
        chase_pcs = {
            d.pc for d in trace
            if d.is_load and d.produces_result()
        }
        assert chase_pcs
        # Every chase load PC has a dominant stable pair distance.
        stable = [
            stable_distance_fraction(trace, pc) for pc in list(chase_pcs)[:4]
        ]
        assert all(fraction > 0.9 for fraction in stable)

    def test_branch_arm_keeps_producers_stable(self):
        trace = run_kernels(
            [lambda b, r: K.ring_chase(b, r, ring_nodes=6, reps=6,
                                       payload_branch=True)]
        )
        # Producer count between consecutive outer-loop back-edges must be
        # constant despite the data-dependent branches.
        counts = []
        producers = 0
        for d in trace:
            if d.is_branch and d.taken and d.target_pc < d.pc:
                counts.append(producers)
                producers = 0
            elif d.produces_result():
                producers += 1
        assert len(set(counts[2:-1])) == 1


class TestXorRing:
    def test_period_two_values(self):
        trace = run_kernels(
            [lambda b, r: K.xor_ring(b, r, chain=6, period_two=True)]
        )
        by_pc = {}
        for d in trace:
            if d.produces_result() and d.opcode.name == "EORI":
                by_pc.setdefault(d.pc, []).append(d.result)
        assert by_pc
        for values in by_pc.values():
            # Alternating A,B,A,B...
            assert len(set(values)) == 2
            assert values[0] == values[2] and values[1] == values[3]

    def test_period_one_when_constants_cancel(self):
        trace = run_kernels(
            [lambda b, r: K.xor_ring(b, r, chain=5, period_two=False)]
        )
        by_pc = {}
        for d in trace:
            if d.produces_result() and d.opcode.name == "EORI":
                by_pc.setdefault(d.pc, []).append(d.result)
        for values in by_pc.values():
            assert len(set(values)) == 1

    def test_with_move_inserts_move(self):
        trace = run_kernels(
            [lambda b, r: K.xor_ring(b, r, chain=5, with_move=True)]
        )
        assert any(d.move for d in trace)


class TestStrideChain:
    def test_values_strided_never_repeat(self):
        trace = run_kernels([lambda b, r: K.stride_chain(b, r, chain=6)],
                            instructions=4000)
        by_pc = {}
        for d in trace:
            if d.produces_result() and d.opcode.name == "ADDI":
                by_pc.setdefault(d.pc, []).append(d.result)
        chain_pcs = [pc for pc, vals in by_pc.items() if len(vals) > 10]
        assert chain_pcs
        for pc in chain_pcs:
            values = by_pc[pc]
            strides = {
                (b - a) & ((1 << 64) - 1) for a, b in zip(values, values[1:])
            }
            assert len(strides) == 1          # perfectly strided
            assert len(set(values)) == len(values)  # never equal


class TestConstChain:
    def test_constant_loads(self):
        trace = run_kernels([lambda b, r: K.const_chain(b, r, links=4)],
                            instructions=4000)
        by_pc = {}
        for d in trace:
            if d.is_load and d.produces_result():
                by_pc.setdefault(d.pc, set()).add(d.result)
        assert by_pc
        assert all(len(values) == 1 for values in by_pc.values())
        assert all(0 not in values for values in by_pc.values())

    def test_zero_fields_variant_loads_zero(self):
        trace = run_kernels(
            [lambda b, r: K.const_chain(b, r, links=3, zero_fields=True)],
            instructions=4000,
        )
        loads = [d for d in trace if d.is_load and d.produces_result()]
        assert loads
        assert all(d.result == 0 for d in loads)
        assert not any(d.zero_idiom for d in loads)


class TestZeroLoads:
    def test_density_in_ballpark(self):
        trace = run_kernels(
            [lambda b, r: K.zero_loads(b, r, zero_density=0.4, zero_run=8)],
            instructions=10000,
        )
        loads = [d for d in trace if d.is_load]
        zero_fraction = sum(d.result == 0 for d in loads) / len(loads)
        assert 0.15 < zero_fraction < 0.65

    def test_no_decode_visible_idioms_in_loop_body(self):
        trace = run_kernels(
            [lambda b, r: K.zero_loads(b, r, zero_density=0.5)],
            instructions=4000,
        )
        # Setup code may contain movz #0 idioms; the steady-state loop
        # zeros (loads and masked extractions) must not be idioms.
        steady = trace.instructions[200:]
        zero_results = [
            d for d in steady if d.produces_result() and d.result == 0
        ]
        assert zero_results
        assert not any(d.zero_idiom for d in zero_results)


class TestStackSpill:
    def test_reload_equals_spilled_value(self):
        trace = run_kernels(
            [lambda b, r: K.stack_spill(b, r, reps=2, spacing=4)],
            instructions=4000,
        )
        stores = {d.seq: d for d in trace if d.is_store}
        reload_matches = 0
        reload_total = 0
        store_values = {}
        for d in trace:
            if d.is_store:
                store_values[d.addr] = d.seq
            elif d.is_load and d.addr in store_values:
                reload_total += 1
        assert reload_total > 10


class TestLateProducerPair:
    def test_mirror_equals_big_array(self):
        trace = run_kernels(
            [lambda b, r: K.late_producer_pair(b, r, reps=2, spacing=3)],
            instructions=6000,
        )
        loads = [d for d in trace if d.is_load]
        # Consecutive load pairs carry equal values by construction.
        equal_pairs = sum(
            1 for a, b in zip(loads, loads[1:])
            if a.result == b.result and a.addr != b.addr
        )
        assert equal_pairs > len(loads) // 4


class TestFpStencil:
    def test_store_is_scaled_sum(self):
        from repro.workloads.trace import bits_to_float

        trace = run_kernels(
            [lambda b, r: K.fp_stencil(b, r, elements=256, reps=1)],
            instructions=3000,
        )
        loads = [d for d in trace if d.is_load]
        stores = [d for d in trace if d.is_store]
        assert loads and stores

    def test_serial_acc_emits_recurrence(self):
        trace = run_kernels(
            [lambda b, r: K.fp_stencil(b, r, elements=256, reps=1,
                                       serial_acc=True, acc_steps=2)],
            instructions=2000,
        )
        fadds = [d for d in trace if d.opcode.name == "FADD"]
        assert len(fadds) >= 3 * len(
            [d for d in trace if d.is_store]
        )  # 1 sum + 2 acc per element


class TestMixedChain:
    def test_stride_and_spill_interleaved(self):
        trace = run_kernels(
            [lambda b, r: K.mixed_chain(b, r, stride_links=8, spills=2,
                                        segment=4)],
            instructions=4000,
        )
        assert any(d.is_store for d in trace)
        assert any(d.is_load for d in trace)
        addis = [d for d in trace if d.opcode.name == "ADDI"]
        assert addis


class TestCallRet:
    def test_calls_return_correctly(self):
        trace = run_kernels(
            [lambda b, r: K.call_ret(b, r, reps=1, functions=3)],
            instructions=3000,
        )
        calls = [d for d in trace if d.is_call]
        returns = [d for d in trace if d.is_return]
        assert len(calls) > 10
        assert abs(len(calls) - len(returns)) <= 1
        # Every return targets the instruction after some call.
        call_returns = {d.pc + 4 for d in calls}
        assert all(d.target_pc in call_returns for d in returns)


class TestBranchy:
    def test_random_branch_outcomes_mixed(self):
        trace = run_kernels(
            [lambda b, r: K.branchy(b, r, reps=2, random_branches=2,
                                    pattern_branches=0)],
            instructions=6000,
        )
        conditional = [d for d in trace if d.is_conditional]
        taken_fraction = sum(d.taken for d in conditional) / len(conditional)
        assert 0.2 < taken_fraction < 0.8

    def test_pattern_branch_periodic(self):
        trace = run_kernels(
            [lambda b, r: K.branchy(b, r, reps=1, random_branches=0,
                                    pattern_branches=1, pattern_period=4)],
            instructions=4000,
        )
        conditional = [d for d in trace if d.is_conditional]
        outcomes = [d.taken for d in conditional]
        # Period 4: outcome sequence repeats exactly.
        assert outcomes[:40] == outcomes[4:44]
