"""Tests for the micro-ISA, program assembly and the functional interpreter."""

import pytest

from repro.common.bitops import mask64
from repro.isa.instruction import Instr, NO_REG
from repro.isa.opcodes import FuClass, OP_INFO, Opcode
from repro.isa.program import Program, ProgramError
from repro.isa.registers import XZR, f, reg_class, reg_name, x, RegClass
from repro.workloads.builder import ProgramBuilder
from repro.workloads.trace import (
    Machine,
    bits_to_float,
    execute,
    float_to_bits,
)


def run_snippet(emit, max_instructions=1000, image=None):
    """Build a program from *emit* and execute it with its data image."""
    b = ProgramBuilder("snippet")
    emit(b)
    b.halt()
    machine = Machine(image if image is not None else dict(b.data.image))
    trace = execute(b.build(), max_instructions, machine)
    return trace, machine


class TestRegisters:
    def test_unified_numbering(self):
        assert x(0) == 0 and x(30) == 30
        assert f(0) == 32 and f(31) == 63
        assert reg_class(5) == RegClass.INT
        assert reg_class(f(3)) == RegClass.FP

    def test_names(self):
        assert reg_name(XZR) == "xzr"
        assert reg_name(x(4)) == "x4"
        assert reg_name(f(2)) == "f2"

    def test_bounds(self):
        with pytest.raises(ValueError):
            x(32)
        with pytest.raises(ValueError):
            f(32)


class TestOpcodeMetadata:
    def test_every_opcode_has_info(self):
        for op in Opcode:
            assert op in OP_INFO

    def test_divider_not_pipelined(self):
        assert not OP_INFO[Opcode.DIV].pipelined
        assert not OP_INFO[Opcode.FDIV].pipelined
        assert OP_INFO[Opcode.MUL].pipelined

    def test_table_i_latencies(self):
        assert OP_INFO[Opcode.ADD].latency == 1
        assert OP_INFO[Opcode.MUL].latency == 3
        assert OP_INFO[Opcode.DIV].latency == 25
        assert OP_INFO[Opcode.FADD].latency == 3
        assert OP_INFO[Opcode.FDIV].latency == 11

    def test_fu_classes(self):
        assert OP_INFO[Opcode.LDR].fu_class == FuClass.MEM_LOAD
        assert OP_INFO[Opcode.STR].fu_class == FuClass.MEM_STORE
        assert OP_INFO[Opcode.BEQ].fu_class == FuClass.BRANCH


class TestZeroIdiomsAndMoves:
    def test_eor_same_register(self):
        assert Instr(Opcode.EOR, rd=1, rs1=2, rs2=2).is_zero_idiom()
        assert not Instr(Opcode.EOR, rd=1, rs1=2, rs2=3).is_zero_idiom()

    def test_sub_same_register(self):
        assert Instr(Opcode.SUB, rd=1, rs1=4, rs2=4).is_zero_idiom()

    def test_movz_zero(self):
        assert Instr(Opcode.MOVZ, rd=1, imm=0).is_zero_idiom()
        assert not Instr(Opcode.MOVZ, rd=1, imm=7).is_zero_idiom()

    def test_and_with_zero_register(self):
        assert Instr(Opcode.AND, rd=1, rs1=XZR, rs2=5).is_zero_idiom()
        assert Instr(Opcode.ANDI, rd=1, rs1=5, imm=0).is_zero_idiom()

    def test_move_detection(self):
        assert Instr(Opcode.MOV, rd=1, rs1=2).is_move()
        # mov from XZR is a zero idiom, not a move-elimination candidate.
        assert not Instr(Opcode.MOV, rd=1, rs1=XZR).is_move()
        assert Instr(Opcode.MOV, rd=1, rs1=XZR).is_zero_idiom()


class TestProgramValidation:
    def test_must_end_with_halt(self):
        with pytest.raises(ProgramError):
            Program("p", [Instr(Opcode.NOP)])

    def test_branch_target_bounds(self):
        instrs = [Instr(Opcode.B, target=5), Instr(Opcode.HALT)]
        with pytest.raises(ProgramError):
            Program("p", instrs)

    def test_pc_round_trip(self):
        b = ProgramBuilder("p")
        b.nop(), b.nop(), b.halt()
        program = b.build()
        for index in range(len(program)):
            assert program.index_of(program.pc_of(index)) == index

    def test_undefined_label(self):
        b = ProgramBuilder("p")
        b.b("nowhere")
        b.halt()
        with pytest.raises(ProgramError):
            b.build()

    def test_duplicate_label(self):
        b = ProgramBuilder("p")
        b.label("dup")
        with pytest.raises(ProgramError):
            b.label("dup")


class TestInterpreterArithmetic:
    def test_add_sub_masking(self):
        def emit(b):
            b.load_imm64(x(1), mask64(-1))
            b.addi(x(2), x(1), 1)          # wraps to 0
            b.subi(x(3), x(2), 1)          # wraps back to -1
        trace, m = run_snippet(emit)
        assert m.read_reg(x(2)) == 0
        assert m.read_reg(x(3)) == mask64(-1)

    def test_logic_and_shifts(self):
        def emit(b):
            b.movz(x(1), 0b1100)
            b.movz(x(2), 0b1010)
            b.and_(x(3), x(1), x(2))
            b.orr(x(4), x(1), x(2))
            b.eor(x(5), x(1), x(2))
            b.lsli(x(6), x(1), 2)
            b.lsri(x(7), x(1), 2)
        _, m = run_snippet(emit)
        assert m.read_reg(x(3)) == 0b1000
        assert m.read_reg(x(4)) == 0b1110
        assert m.read_reg(x(5)) == 0b0110
        assert m.read_reg(x(6)) == 0b110000
        assert m.read_reg(x(7)) == 0b11

    def test_mul_div_semantics(self):
        def emit(b):
            b.movz(x(1), 7)
            b.load_imm64(x(2), mask64(-3))
            b.mul(x(3), x(1), x(2))
            b.div(x(4), x(2), x(1))        # -3 / 7 == 0 (truncation)
            b.load_imm64(x(5), mask64(-21))
            b.div(x(6), x(5), x(1))        # -21 / 7 == -3
            b.movz(x(7), 0)
            b.div(x(8), x(1), x(7))        # divide by zero -> 0
        _, m = run_snippet(emit)
        assert m.read_reg(x(3)) == mask64(-21)
        assert m.read_reg(x(4)) == 0
        assert m.read_reg(x(6)) == mask64(-3)
        assert m.read_reg(x(8)) == 0

    def test_writes_to_xzr_discarded(self):
        def emit(b):
            b.movz(XZR, 55)
            b.add(x(1), XZR, XZR)
        trace, m = run_snippet(emit)
        assert m.read_reg(x(1)) == 0
        # The movz to XZR must not count as a result producer.
        movz_record = trace[0]
        assert movz_record.dest == NO_REG
        assert not movz_record.produces_result()


class TestInterpreterMemory:
    def test_store_load_round_trip(self):
        def emit(b):
            base = b.data.alloc(64)
            b.load_imm64(x(1), base)
            b.load_imm64(x(2), 0xDEAD_BEEF_0BAD_F00D)
            b.str_(x(2), x(1), 8)
            b.ldr(x(3), x(1), 8)
        trace, m = run_snippet(emit)
        assert m.read_reg(x(3)) == 0xDEAD_BEEF_0BAD_F00D

    def test_byte_load(self):
        def emit(b):
            base = b.data.alloc_bytes(bytes([0x11, 0x22, 0x33, 0x44]))
            b.load_imm64(x(1), base)
            b.ldrb(x(2), x(1), 2)
        b = ProgramBuilder("p")
        emit(b)
        b.halt()
        m = Machine(dict(b.data.image))
        execute(b.build(), 100, m)
        assert m.read_reg(x(2)) == 0x33

    def test_trace_records_addresses(self):
        def emit(b):
            base = b.data.alloc(16)
            b.load_imm64(x(1), base)
            b.str_(x(1), x(1))
            b.ldr(x(2), x(1))
        trace, _ = run_snippet(emit)
        stores = [d for d in trace if d.is_store]
        loads = [d for d in trace if d.is_load]
        assert len(stores) == 1 and len(loads) == 1
        assert stores[0].addr == loads[0].addr


class TestInterpreterControlFlow:
    def test_conditional_branch_taken_and_not(self):
        def emit(b):
            b.movz(x(1), 5)
            b.movz(x(2), 5)
            skip = b.fresh_label("skip")
            b.beq(x(1), x(2), skip)
            b.movz(x(3), 99)           # skipped
            b.label(skip)
            b.movz(x(4), 42)
        _, m = run_snippet(emit)
        assert m.read_reg(x(3)) == 0
        assert m.read_reg(x(4)) == 42

    def test_loop_executes_n_times(self):
        def emit(b):
            b.movz(x(1), 0)
            b.movz(x(2), 10)
            head = b.label(b.fresh_label("head"))
            b.addi(x(1), x(1), 1)
            b.blt(x(1), x(2), head)
        _, m = run_snippet(emit)
        assert m.read_reg(x(1)) == 10

    def test_signed_comparison(self):
        def emit(b):
            b.load_imm64(x(1), mask64(-5))
            b.movz(x(2), 3)
            taken = b.fresh_label("t")
            b.blt(x(1), x(2), taken)   # -5 < 3 signed
            b.movz(x(3), 1)
            b.label(taken)
            b.movz(x(4), 1)
        _, m = run_snippet(emit)
        assert m.read_reg(x(3)) == 0
        assert m.read_reg(x(4)) == 1

    def test_call_and_return(self):
        def emit(b):
            b.b("main")
            b.label("fn")
            b.movz(x(5), 77)
            b.ret()
            b.label("main")
            b.bl("fn")
            b.movz(x(6), 88)
        _, m = run_snippet(emit)
        assert m.read_reg(x(5)) == 77
        assert m.read_reg(x(6)) == 88

    def test_branch_records_target_and_outcome(self):
        def emit(b):
            b.movz(x(1), 1)
            skip = b.fresh_label("s")
            b.beq(x(1), XZR, skip)
            b.nop()
            b.label(skip)
        trace, _ = run_snippet(emit)
        branch = next(d for d in trace if d.is_branch)
        assert not branch.taken
        assert branch.target_pc == branch.pc + 4  # fall-through recorded

    def test_instruction_budget_stops_infinite_loop(self):
        def emit(b):
            head = b.label(b.fresh_label("spin"))
            b.addi(x(1), x(1), 1)
            b.b(head)
        b = ProgramBuilder("p")
        emit(b)
        b.halt()
        trace = execute(b.build(), 500, Machine())
        assert len(trace) == 500


class TestFloatingPoint:
    def test_fp_round_trip(self):
        assert bits_to_float(float_to_bits(2.5)) == 2.5

    def test_fp_arithmetic(self):
        def emit(b):
            b.fmovi(f(1), 1.5)
            b.fmovi(f(2), 2.0)
            b.fadd(f(3), f(1), f(2))
            b.fmul(f(4), f(3), f(2))
            b.fsub(f(5), f(4), f(1))
            b.fdiv(f(6), f(4), f(2))
        _, m = run_snippet(emit)
        assert bits_to_float(m.read_reg(f(3))) == 3.5
        assert bits_to_float(m.read_reg(f(4))) == 7.0
        assert bits_to_float(m.read_reg(f(5))) == 5.5
        assert bits_to_float(m.read_reg(f(6))) == 3.5

    def test_fp_divide_by_zero_gives_infinity(self):
        def emit(b):
            b.fmovi(f(1), 1.0)
            b.fmovi(f(2), 0.0)
            b.fdiv(f(3), f(1), f(2))
        _, m = run_snippet(emit)
        assert bits_to_float(m.read_reg(f(3))) == float("inf")

    def test_fp_memory(self):
        def emit(b):
            base = b.data.alloc_words([float_to_bits(9.25)])
            b.load_imm64(x(1), base)
            b.fldr(f(1), x(1))
            b.fstr(f(1), x(1), 8)
            b.ldr(x(2), x(1), 8)
        _, m = run_snippet(emit)
        assert bits_to_float(m.read_reg(x(2))) == 9.25


class TestDynInstClassification:
    def test_rsep_eligibility(self):
        def emit(b):
            b.movz(x(1), 3)            # eligible
            b.eor(x(2), x(1), x(1))    # zero idiom: not eligible
            b.str_(x(1), x(1))         # store: not eligible (also no dest)
            skip = b.fresh_label("s")
            b.beq(x(1), XZR, skip)
            b.label(skip)
        trace, _ = run_snippet(emit, image={})
        movz, eor, store, branch = trace.instructions[:4]
        assert movz.rsep_eligible()
        assert not eor.rsep_eligible()
        assert not store.rsep_eligible()
        assert not branch.rsep_eligible()
