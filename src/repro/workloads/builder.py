"""Program construction DSL.

:class:`ProgramBuilder` offers a tiny assembler: one convenience method per
opcode, textual labels resolved at :meth:`build` time, plus register and data
segment allocators used by the workload kernels to stay out of each other's
way.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.common.bitops import mask64
from repro.isa.instruction import Instr, NO_REG
from repro.isa.opcodes import Opcode
from repro.isa.program import Program, ProgramError
from repro.isa.registers import LINK_REG, NUM_FP_ARCH_REGS, f, x

#: Base address of the data segment.  Kept far from the code segment so
#: instruction and data streams never alias.
DATA_BASE = 0x10_0000


class RegAllocator:
    """Hands out architectural registers so kernels never clash.

    Integer registers X0..X29 are allocatable (X30 is the link register,
    X31 is XZR).  All 32 FP registers are allocatable.
    """

    def __init__(self) -> None:
        self._free_int = list(range(29, -1, -1))  # pop() yields x0 first
        self._free_fp = list(range(NUM_FP_ARCH_REGS - 1, -1, -1))

    def int_reg(self) -> int:
        """Allocate one integer register (unified numbering)."""
        if not self._free_int:
            raise ProgramError("out of integer architectural registers")
        return x(self._free_int.pop())

    def fp_reg(self) -> int:
        """Allocate one FP register (unified numbering)."""
        if not self._free_fp:
            raise ProgramError("out of FP architectural registers")
        return f(self._free_fp.pop())

    def int_regs(self, count: int) -> list[int]:
        return [self.int_reg() for _ in range(count)]

    def fp_regs(self, count: int) -> list[int]:
        return [self.fp_reg() for _ in range(count)]


class MemoryImage:
    """A data segment's initial memory, packed: the 64-bit words from
    word address *base* up in one ``array('Q')``; every other word reads
    as zero.

    Indexed by word address (byte address >> 3).  Packed because a dict
    entry and its two ints take about 100 bytes a word against 8 here,
    and the largest benchmark images hold about 70k words.  A
    :class:`~repro.workloads.trace.Machine` reads the image lazily and
    never writes it, so one image serves any number of machines;
    ``dict(image)`` gives the word-by-word mapping.
    """

    __slots__ = ("base", "words")

    def __init__(self, base: int) -> None:
        self.base = base
        self.words = array("Q")

    def keys(self) -> range:
        return range(self.base, self.base + len(self.words))

    def get(self, word: int, default: int = 0) -> int:
        index = word - self.base
        if 0 <= index < len(self.words):
            return self.words[index]
        return default

    def __getitem__(self, word: int) -> int:
        return self.get(word)

    def __setitem__(self, word: int, value: int) -> None:
        self.write(word, array("Q", (value,)))

    def write(self, word: int, words: array) -> None:
        """Store *words* from word address *word* on, growing the image."""
        index = word - self.base
        if index < 0:
            raise ValueError(f"word {word:#x} is below the data segment")
        end = index + len(words)
        if end > len(self.words):
            self.words.frombytes(bytes(8 * (end - len(self.words))))
        self.words[index:end] = words


@dataclass
class DataSegment:
    """Bump allocator for the data segment plus its initial memory image.

    The image (:class:`MemoryImage`) maps *word addresses* (byte address
    >> 3) to 64-bit values; untouched memory reads as zero.
    """

    next_addr: int = DATA_BASE
    image: MemoryImage = field(
        default_factory=lambda: MemoryImage(DATA_BASE >> 3)
    )

    def alloc(self, num_bytes: int, align: int = 8) -> int:
        """Reserve *num_bytes* and return the base byte address."""
        if num_bytes <= 0:
            raise ValueError("allocation must be positive")
        base = (self.next_addr + align - 1) & ~(align - 1)
        self.next_addr = base + num_bytes
        return base

    def alloc_words(self, values: list[int]) -> int:
        """Reserve and initialise an array of 64-bit words."""
        words = array("Q", map(mask64, values))
        base = self.alloc(len(words) * 8)
        self.image.write(base >> 3, words)
        return base

    def alloc_bytes(self, data: bytes) -> int:
        """Reserve and initialise a byte buffer (zero-padded to words)."""
        base = self.alloc(max(len(data), 1))
        padded = data + b"\x00" * (-len(data) % 8)
        self.image.write(base >> 3, array("Q", (
            int.from_bytes(padded[offset:offset + 8], "little")
            for offset in range(0, len(padded), 8)
        )))
        return base

    def poke(self, addr: int, value: int) -> None:
        """Set one 64-bit word of the initial image at byte address *addr*."""
        self.image[addr >> 3] = mask64(value)


class ProgramBuilder:
    """Incremental program construction with labels."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.regs = RegAllocator()
        self.data = DataSegment()
        self._instructions: list[Instr] = []
        self._labels: dict[str, int] = {}
        self._fixups: list[tuple[int, str]] = []
        self._label_counter = 0

    # ------------------------------------------------------------------
    # Label management
    # ------------------------------------------------------------------

    def fresh_label(self, stem: str = "L") -> str:
        """Return a unique label name."""
        self._label_counter += 1
        return f"{stem}_{self._label_counter}"

    def label(self, name: str) -> str:
        """Bind *name* to the current position; returns the name."""
        if name in self._labels:
            raise ProgramError(f"label redefined: {name}")
        self._labels[name] = len(self._instructions)
        return name

    def here(self) -> int:
        """Current instruction index."""
        return len(self._instructions)

    # ------------------------------------------------------------------
    # Raw emission
    # ------------------------------------------------------------------

    def emit(
        self,
        opcode: Opcode,
        rd: int = NO_REG,
        rs1: int = NO_REG,
        rs2: int = NO_REG,
        imm: int = 0,
        target: str | int = -1,
    ) -> int:
        """Append an instruction; *target* may be a label name."""
        resolved = -1
        if isinstance(target, str):
            self._fixups.append((len(self._instructions), target))
        else:
            resolved = target
        self._instructions.append(Instr(opcode, rd, rs1, rs2, imm, resolved))
        return len(self._instructions) - 1

    # ------------------------------------------------------------------
    # Integer ALU
    # ------------------------------------------------------------------

    def add(self, rd, rs1, rs2):
        return self.emit(Opcode.ADD, rd, rs1, rs2)

    def sub(self, rd, rs1, rs2):
        return self.emit(Opcode.SUB, rd, rs1, rs2)

    def and_(self, rd, rs1, rs2):
        return self.emit(Opcode.AND, rd, rs1, rs2)

    def orr(self, rd, rs1, rs2):
        return self.emit(Opcode.ORR, rd, rs1, rs2)

    def eor(self, rd, rs1, rs2):
        return self.emit(Opcode.EOR, rd, rs1, rs2)

    def lsl(self, rd, rs1, rs2):
        return self.emit(Opcode.LSL, rd, rs1, rs2)

    def lsr(self, rd, rs1, rs2):
        return self.emit(Opcode.LSR, rd, rs1, rs2)

    def addi(self, rd, rs1, imm):
        return self.emit(Opcode.ADDI, rd, rs1, imm=imm)

    def subi(self, rd, rs1, imm):
        return self.emit(Opcode.SUBI, rd, rs1, imm=imm)

    def andi(self, rd, rs1, imm):
        return self.emit(Opcode.ANDI, rd, rs1, imm=imm)

    def orri(self, rd, rs1, imm):
        return self.emit(Opcode.ORRI, rd, rs1, imm=imm)

    def eori(self, rd, rs1, imm):
        return self.emit(Opcode.EORI, rd, rs1, imm=imm)

    def lsli(self, rd, rs1, imm):
        return self.emit(Opcode.LSLI, rd, rs1, imm=imm)

    def lsri(self, rd, rs1, imm):
        return self.emit(Opcode.LSRI, rd, rs1, imm=imm)

    def movz(self, rd, imm):
        return self.emit(Opcode.MOVZ, rd, imm=imm)

    def mov(self, rd, rs1):
        return self.emit(Opcode.MOV, rd, rs1)

    def mul(self, rd, rs1, rs2):
        return self.emit(Opcode.MUL, rd, rs1, rs2)

    def div(self, rd, rs1, rs2):
        return self.emit(Opcode.DIV, rd, rs1, rs2)

    # ------------------------------------------------------------------
    # Memory
    # ------------------------------------------------------------------

    def ldr(self, rd, base, offset=0):
        return self.emit(Opcode.LDR, rd, base, imm=offset)

    def ldrb(self, rd, base, offset=0):
        return self.emit(Opcode.LDRB, rd, base, imm=offset)

    def str_(self, value_reg, base, offset=0):
        return self.emit(Opcode.STR, rs1=base, rs2=value_reg, imm=offset)

    def fldr(self, fd, base, offset=0):
        return self.emit(Opcode.FLDR, fd, base, imm=offset)

    def fstr(self, value_reg, base, offset=0):
        return self.emit(Opcode.FSTR, rs1=base, rs2=value_reg, imm=offset)

    # ------------------------------------------------------------------
    # Control flow
    # ------------------------------------------------------------------

    def b(self, target):
        return self.emit(Opcode.B, target=target)

    def beq(self, rs1, rs2, target):
        return self.emit(Opcode.BEQ, rs1=rs1, rs2=rs2, target=target)

    def bne(self, rs1, rs2, target):
        return self.emit(Opcode.BNE, rs1=rs1, rs2=rs2, target=target)

    def blt(self, rs1, rs2, target):
        return self.emit(Opcode.BLT, rs1=rs1, rs2=rs2, target=target)

    def bge(self, rs1, rs2, target):
        return self.emit(Opcode.BGE, rs1=rs1, rs2=rs2, target=target)

    def bl(self, target):
        return self.emit(Opcode.BL, rd=LINK_REG, target=target)

    def ret(self, rs1=LINK_REG):
        return self.emit(Opcode.RET, rs1=rs1)

    # ------------------------------------------------------------------
    # Floating point
    # ------------------------------------------------------------------

    def fadd(self, fd, fs1, fs2):
        return self.emit(Opcode.FADD, fd, fs1, fs2)

    def fsub(self, fd, fs1, fs2):
        return self.emit(Opcode.FSUB, fd, fs1, fs2)

    def fmul(self, fd, fs1, fs2):
        return self.emit(Opcode.FMUL, fd, fs1, fs2)

    def fdiv(self, fd, fs1, fs2):
        return self.emit(Opcode.FDIV, fd, fs1, fs2)

    def fmov(self, fd, fs1):
        return self.emit(Opcode.FMOV, fd, fs1)

    def fmovi(self, fd, value: float):
        from repro.workloads.trace import float_to_bits
        return self.emit(Opcode.FMOVI, fd, imm=float_to_bits(value))

    def nop(self):
        return self.emit(Opcode.NOP)

    def halt(self):
        return self.emit(Opcode.HALT)

    # ------------------------------------------------------------------
    # Composite helpers
    # ------------------------------------------------------------------

    def load_imm64(self, rd, value: int) -> None:
        """Materialise an arbitrary 64-bit constant (MOVZ + shifted ORRs)."""
        value = mask64(value)
        self.movz(rd, value & 0xFFFF)
        for shift in (16, 32, 48):
            chunk = (value >> shift) & 0xFFFF
            if chunk:
                scratch = rd  # shift-or into place via immediate ops
                self.orri(scratch, scratch, chunk << shift)

    def counted_loop(self, count_reg: int, limit_reg: int, body) -> None:
        """Emit ``for (; count < limit; count++) body()``.

        The caller must have initialised both registers.  *body* is a
        callable invoked once to emit the loop body.
        """
        head = self.label(self.fresh_label("loop"))
        body()
        self.addi(count_reg, count_reg, 1)
        self.blt(count_reg, limit_reg, head)

    # ------------------------------------------------------------------
    # Final assembly
    # ------------------------------------------------------------------

    def build(self) -> Program:
        """Resolve labels and return the validated :class:`Program`."""
        for index, label_name in self._fixups:
            if label_name not in self._labels:
                raise ProgramError(f"undefined label: {label_name}")
            self._instructions[index].target = self._labels[label_name]
        return Program(self.name, self._instructions)
