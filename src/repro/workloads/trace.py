"""Functional interpreter: executes programs into committed-path traces.

The interpreter is the architectural reference model.  It executes a
:class:`~repro.isa.program.Program` with real 64-bit semantics and
writes each committed instruction — result value, effective address and
branch outcome — into the columns of a
:class:`~repro.workloads.columnar.ColumnarTrace`, the one trace form.
The timing model replays this committed path and resolves all
speculation against it.

Dispatch is table-driven: every data-path opcode has a handler in
``_DISPATCH`` (indexed by opcode number), and :func:`execute` pre-resolves
one handler per *static* instruction before the dynamic loop starts, so the
hot loop performs one list index and one call instead of walking an opcode
``if``/``elif`` chain.  Static per-instruction columns (PC, opcode,
source registers masked by read visibility, zero-idiom/move flags) are
likewise decoded once per static instruction and gathered by static
index after the loop.
"""

from __future__ import annotations

import struct
from array import array
from typing import TYPE_CHECKING, Mapping

from repro.common.bitops import MASK64, mask64, to_signed64
from repro.isa.instruction import NO_ADDR, NO_REG
from repro.isa.opcodes import OP_INFO, Opcode
from repro.isa.program import Program
from repro.isa.registers import NUM_ARCH_REGS, XZR
from repro.workloads.columnar import MOVE, TAKEN, ZERO_IDIOM, ColumnarTrace

if TYPE_CHECKING:
    from repro.workloads.builder import MemoryImage


def float_to_bits(value: float) -> int:
    """Raw 64-bit pattern of a float64."""
    return struct.unpack("<Q", struct.pack("<d", value))[0]


def bits_to_float(bits: int) -> float:
    """float64 value of a raw 64-bit pattern."""
    return struct.unpack("<d", struct.pack("<Q", bits & ((1 << 64) - 1)))[0]


def _signed_div(dividend: int, divisor: int) -> int:
    """Hardware-style signed division: truncate toward zero, x/0 == 0."""
    a = to_signed64(dividend)
    b = to_signed64(divisor)
    if b == 0:
        return 0
    quotient = abs(a) // abs(b)
    if (a < 0) != (b < 0):
        quotient = -quotient
    return mask64(quotient)


def _fp_op(op, a_bits: int, b_bits: int) -> int:
    """Apply a float64 binary operation on raw bit patterns."""
    a = bits_to_float(a_bits)
    b = bits_to_float(b_bits)
    try:
        result = op(a, b)
    except (OverflowError, ZeroDivisionError):
        result = float("inf") if (a >= 0) == (b >= 0) else float("-inf")
    if result != result:  # NaN: canonicalise
        return 0x7FF8_0000_0000_0000
    try:
        return float_to_bits(result)
    except (OverflowError, struct.error):
        return float_to_bits(float("inf") if result > 0 else float("-inf"))


class Machine:
    """Architectural state: unified register file plus word-grain memory.

    *memory_image* is the initial memory: a
    :class:`~repro.workloads.builder.MemoryImage` or any word-address
    mapping with ``get``.  The machine reads it lazily and never copies
    or writes it, so a run holds only the words it touches.
    """

    __slots__ = ("regs", "memory")

    def __init__(self, memory_image: MemoryImage | Mapping[int, int]
                 | None = None) -> None:
        self.regs = [0] * NUM_ARCH_REGS
        # Maps word address (byte address >> 3) -> 64-bit value.
        self.memory = _Memory({} if memory_image is None else memory_image)

    def read_reg(self, reg: int) -> int:
        if reg == XZR:
            return 0
        return self.regs[reg]

    def write_reg(self, reg: int, value: int) -> None:
        if reg != XZR:
            self.regs[reg] = mask64(value)

    def load_word(self, addr: int) -> int:
        return self.memory[addr >> 3]

    def load_byte(self, addr: int) -> int:
        word = self.memory[addr >> 3]
        return (word >> ((addr & 7) * 8)) & 0xFF

    def store_word(self, addr: int, value: int) -> None:
        self.memory[addr >> 3] = mask64(value)


class _Memory(dict):
    """The words a machine has stored or read.  Any other word comes
    from the initial image on its first read (zero outside it); a hit
    costs one dict lookup, as a plain dict would."""

    __slots__ = ("image",)

    def __init__(self, image) -> None:
        super().__init__()
        self.image = image

    def __missing__(self, word: int) -> int:
        value = self[word] = self.image.get(word, 0)
        return value


class InterpreterError(RuntimeError):
    """Raised on malformed execution (e.g. runaway PC)."""


# ---------------------------------------------------------------------------
# Data-path handlers
# ---------------------------------------------------------------------------
# Each handler executes one non-control instruction against machine state
# and returns ``(dest, result, addr)``.  The zero register is readable
# directly from the register file: ``write_reg`` never writes it, so
# ``regs[XZR]`` is always 0 and the per-read XZR branch can be skipped.
# Control flow (branches, calls, returns, HALT) stays in :func:`execute`,
# which owns the program counter.


def _ex_add(m, i):
    r = m.regs
    return i.rd, (r[i.rs1] + r[i.rs2]) & MASK64, NO_ADDR


def _ex_addi(m, i):
    return i.rd, (m.regs[i.rs1] + i.imm) & MASK64, NO_ADDR


def _ex_sub(m, i):
    r = m.regs
    return i.rd, (r[i.rs1] - r[i.rs2]) & MASK64, NO_ADDR


def _ex_subi(m, i):
    return i.rd, (m.regs[i.rs1] - i.imm) & MASK64, NO_ADDR


def _ex_and(m, i):
    r = m.regs
    return i.rd, r[i.rs1] & r[i.rs2], NO_ADDR


def _ex_andi(m, i):
    return i.rd, m.regs[i.rs1] & (i.imm & MASK64), NO_ADDR


def _ex_orr(m, i):
    r = m.regs
    return i.rd, r[i.rs1] | r[i.rs2], NO_ADDR


def _ex_orri(m, i):
    return i.rd, m.regs[i.rs1] | (i.imm & MASK64), NO_ADDR


def _ex_eor(m, i):
    r = m.regs
    return i.rd, r[i.rs1] ^ r[i.rs2], NO_ADDR


def _ex_eori(m, i):
    return i.rd, m.regs[i.rs1] ^ (i.imm & MASK64), NO_ADDR


def _ex_lsl(m, i):
    r = m.regs
    return i.rd, (r[i.rs1] << (r[i.rs2] & 63)) & MASK64, NO_ADDR


def _ex_lsli(m, i):
    return i.rd, (m.regs[i.rs1] << (i.imm & 63)) & MASK64, NO_ADDR


def _ex_lsr(m, i):
    r = m.regs
    return i.rd, r[i.rs1] >> (r[i.rs2] & 63), NO_ADDR


def _ex_lsri(m, i):
    return i.rd, m.regs[i.rs1] >> (i.imm & 63), NO_ADDR


def _ex_movz(m, i):
    return i.rd, i.imm & MASK64, NO_ADDR


def _ex_mov(m, i):
    return i.rd, m.regs[i.rs1], NO_ADDR


def _ex_mul(m, i):
    r = m.regs
    return i.rd, (r[i.rs1] * r[i.rs2]) & MASK64, NO_ADDR


def _ex_div(m, i):
    r = m.regs
    return i.rd, _signed_div(r[i.rs1], r[i.rs2]), NO_ADDR


def _ex_ldr(m, i):
    addr = ((m.regs[i.rs1] + i.imm) & MASK64) & ~7
    return i.rd, m.memory[addr >> 3], addr


def _ex_ldrb(m, i):
    addr = (m.regs[i.rs1] + i.imm) & MASK64
    word = m.memory[addr >> 3]
    return i.rd, (word >> ((addr & 7) * 8)) & 0xFF, addr


def _ex_str(m, i):
    r = m.regs
    addr = ((r[i.rs1] + i.imm) & MASK64) & ~7
    m.memory[addr >> 3] = r[i.rs2]
    return NO_REG, 0, addr


def _ex_fadd(m, i):
    r = m.regs
    return i.rd, _fp_op(float.__add__, r[i.rs1], r[i.rs2]), NO_ADDR


def _ex_fsub(m, i):
    r = m.regs
    return i.rd, _fp_op(float.__sub__, r[i.rs1], r[i.rs2]), NO_ADDR


def _ex_fmul(m, i):
    r = m.regs
    return i.rd, _fp_op(float.__mul__, r[i.rs1], r[i.rs2]), NO_ADDR


def _ex_fdiv(m, i):
    r = m.regs
    return i.rd, _fp_op(float.__truediv__, r[i.rs1], r[i.rs2]), NO_ADDR


def _ex_fmov(m, i):
    return i.rd, m.regs[i.rs1], NO_ADDR


def _ex_fmovi(m, i):
    return i.rd, i.imm & MASK64, NO_ADDR


def _ex_fldr(m, i):
    addr = ((m.regs[i.rs1] + i.imm) & MASK64) & ~7
    return i.rd, m.memory[addr >> 3], addr


def _ex_fstr(m, i):
    r = m.regs
    addr = ((r[i.rs1] + i.imm) & MASK64) & ~7
    m.memory[addr >> 3] = r[i.rs2]
    return NO_REG, 0, addr


def _ex_nop(m, i):
    return NO_REG, 0, NO_ADDR


#: Handler per opcode number; ``None`` marks control flow handled inline.
_DISPATCH: list = [None] * len(Opcode)
for _opcode, _handler in {
    Opcode.ADD: _ex_add, Opcode.ADDI: _ex_addi,
    Opcode.SUB: _ex_sub, Opcode.SUBI: _ex_subi,
    Opcode.AND: _ex_and, Opcode.ANDI: _ex_andi,
    Opcode.ORR: _ex_orr, Opcode.ORRI: _ex_orri,
    Opcode.EOR: _ex_eor, Opcode.EORI: _ex_eori,
    Opcode.LSL: _ex_lsl, Opcode.LSLI: _ex_lsli,
    Opcode.LSR: _ex_lsr, Opcode.LSRI: _ex_lsri,
    Opcode.MOVZ: _ex_movz, Opcode.MOV: _ex_mov,
    Opcode.MUL: _ex_mul, Opcode.DIV: _ex_div,
    Opcode.LDR: _ex_ldr, Opcode.LDRB: _ex_ldrb, Opcode.STR: _ex_str,
    Opcode.FADD: _ex_fadd, Opcode.FSUB: _ex_fsub,
    Opcode.FMUL: _ex_fmul, Opcode.FDIV: _ex_fdiv,
    Opcode.FMOV: _ex_fmov, Opcode.FMOVI: _ex_fmovi,
    Opcode.FLDR: _ex_fldr, Opcode.FSTR: _ex_fstr,
    Opcode.NOP: _ex_nop,
}.items():
    _DISPATCH[_opcode] = _handler
del _opcode, _handler


def _predecode(program: Program):
    """Per-static-instruction tables resolved once per :func:`execute`.

    Returns ``(handlers, pcs, opcodes, src1s, src2s, flags)``, each
    indexed by static instruction.  Sources are already masked by the
    opcode's read visibility, and ``flags`` holds the static
    ``ZERO_IDIOM``/``MOVE`` bits of the packed flag byte.
    """
    instructions = program.instructions
    handlers = [_DISPATCH[instr.opcode] for instr in instructions]
    pcs = [program.pc_of(index) for index in range(len(instructions))]
    opcodes = bytes(instr.opcode for instr in instructions)
    src1s, src2s, flags = [], [], bytearray()
    for instr in instructions:
        info = OP_INFO[instr.opcode]
        src1s.append(instr.rs1 if info.reads_rs1 else NO_REG)
        src2s.append(instr.rs2 if info.reads_rs2 else NO_REG)
        flags.append(
            (ZERO_IDIOM if instr.is_zero_idiom() else 0)
            | (MOVE if instr.is_move() else 0)
        )
    return handlers, pcs, opcodes, src1s, src2s, bytes(flags)


def execute(
    program: Program,
    max_instructions: int,
    machine: Machine | None = None,
) -> ColumnarTrace:
    """Run *program* for at most *max_instructions* dynamic instructions.

    Returns the committed path as a :class:`ColumnarTrace`.  The loop
    appends each instruction's dynamic fields to their columns; the
    static ones (PC, opcode, sources) are gathered by static index once
    it ends, and the per-instruction values are packed into arrays
    (DESIGN.md §9).  The PC and target lists hold the program's own int
    objects, one per static PC.  No ``DynInst`` is built here: rows
    materialise lazily, as they do for a trace loaded from the store.
    Execution stops early at ``HALT``.  The caller may pass a
    pre-initialised :class:`Machine` (e.g. with a data image); by
    default an image-less machine is used.
    """
    m = machine if machine is not None else Machine()
    regs = m.regs
    instructions = program.instructions
    handlers, pcs, opcodes, src1s, src2s, static_flags = _predecode(program)
    indices: list[int] = []
    dests: list[int] = []
    results: list[int] = []
    addrs: list[int] = []
    targets: list[int] = []
    flags = bytearray()

    index = 0
    seq = 0
    num_static = len(instructions)
    while seq < max_instructions:
        if not 0 <= index < num_static:
            raise InterpreterError(f"PC escaped program: index {index}")
        instr = instructions[index]
        handler = handlers[index]
        flag = static_flags[index]
        target_pc = -1

        if handler is not None:
            dest, result, addr = handler(m, instr)
            next_index = index + 1
        else:
            # ---- control flow (and HALT), PC-owning path --------------
            op = instr.opcode
            dest = NO_REG
            result = 0
            addr = NO_ADDR

            if op == Opcode.HALT:
                break
            if op == Opcode.B:
                taken = True
                next_index = instr.target
            elif op == Opcode.BL:
                taken = True
                result = pcs[index + 1]
                dest = instr.rd
                next_index = instr.target
            elif op == Opcode.RET:
                taken = True
                next_index = program.index_of(regs[src1s[index]])
            else:
                # Conditional: the target is the taken or the
                # fall-through PC, whichever executes next.
                a = regs[src1s[index]]
                b = regs[src2s[index]]
                if op == Opcode.BEQ:
                    taken = a == b
                elif op == Opcode.BNE:
                    taken = a != b
                elif op == Opcode.BLT:
                    taken = to_signed64(a) < to_signed64(b)
                elif op == Opcode.BGE:
                    taken = to_signed64(a) >= to_signed64(b)
                else:  # pragma: no cover - defensive
                    raise InterpreterError(f"unimplemented opcode {op!r}")
                next_index = instr.target if taken else index + 1
            target_pc = pcs[next_index]
            if taken:
                flag |= TAKEN

        if dest != NO_REG:
            if dest != XZR:
                regs[dest] = result & MASK64
            else:
                dest = NO_REG  # architectural no-op: not a result producer
                result = 0

        indices.append(index)
        dests.append(dest)
        results.append(result)
        addrs.append(addr)
        targets.append(target_pc)
        flags.append(flag)
        seq += 1
        index = next_index

    # Packed once here: a list append is cheaper per instruction than
    # an array append, and the lists die with this call.
    return ColumnarTrace(
        program.name, seq,
        list(map(pcs.__getitem__, indices)),
        bytes(map(opcodes.__getitem__, indices)),
        array("b", dests),
        array("b", list(map(src1s.__getitem__, indices))),
        array("b", list(map(src2s.__getitem__, indices))),
        array("Q", results), array("q", addrs), targets, bytes(flags),
    )
