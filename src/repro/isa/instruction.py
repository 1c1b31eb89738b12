"""Static and dynamic instruction representations.

:class:`Instr` is a *static* instruction as it appears in a program.
:class:`DynInst` is one *dynamic* execution of a static instruction, a row
of the committed-path trace the functional interpreter writes — it carries
the actual result value, effective address and branch outcome, which is
what allows the timing model to resolve every speculation against ground
truth.
"""

from __future__ import annotations

from repro.common.bitops import LINE_SHIFT
from repro.isa.opcodes import FuClass, OP_INFO, Opcode
from repro.isa.registers import XZR, reg_name

#: Sentinel for "no register" / "no address" fields.
NO_REG = -1
NO_ADDR = -1


class Instr:
    """A static instruction: opcode plus register/immediate/target fields.

    Field conventions:

    * ``rd`` — destination register (unified numbering), or :data:`NO_REG`.
    * ``rs1`` — first source; for memory operations, the address base.
    * ``rs2`` — second source; for stores, the value to store.
    * ``imm`` — immediate operand / address offset.
    * ``target`` — branch target as a *static instruction index*.
    """

    __slots__ = ("opcode", "rd", "rs1", "rs2", "imm", "target")

    def __init__(
        self,
        opcode: Opcode,
        rd: int = NO_REG,
        rs1: int = NO_REG,
        rs2: int = NO_REG,
        imm: int = 0,
        target: int = -1,
    ) -> None:
        self.opcode = opcode
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.target = target

    @property
    def info(self):
        return OP_INFO[self.opcode]

    def is_zero_idiom(self) -> bool:
        """True iff the front-end can *non-speculatively* see a zero result.

        These are the idioms eliminated at rename in the baseline (§III.a):
        ``movz rd, #0``; ``eor/sub rd, rs, rs``; ``and`` with the zero
        register; and ``mov rd, xzr``.
        """
        op = self.opcode
        if op == Opcode.MOVZ and self.imm == 0:
            return True
        if op in (Opcode.EOR, Opcode.SUB) and self.rs1 == self.rs2:
            return True
        if op == Opcode.AND and (self.rs1 == XZR or self.rs2 == XZR):
            return True
        if op == Opcode.ANDI and self.imm == 0:
            return True
        if op == Opcode.MOV and self.rs1 == XZR:
            return True
        return False

    def is_move(self) -> bool:
        """True iff this is a 64-bit integer register-register move.

        Only these are move-eliminated (§IV.H.1 considers 64-bit moves; FP
        moves are left alone).
        """
        return self.opcode == Opcode.MOV and self.rs1 != XZR

    def disassemble(self) -> str:
        """Best-effort textual form for debugging."""
        info = self.info
        parts = [info.mnemonic]
        operands = []
        if info.writes_reg and self.rd != NO_REG:
            operands.append(reg_name(self.rd))
        if info.reads_rs1 and self.rs1 != NO_REG:
            operands.append(reg_name(self.rs1))
        if info.reads_rs2 and self.rs2 != NO_REG:
            operands.append(reg_name(self.rs2))
        if info.is_load or info.is_store or self.opcode in (
            Opcode.MOVZ, Opcode.FMOVI,
        ) or self.opcode.name.endswith("I"):
            operands.append(f"#{self.imm}")
        if info.is_branch and not info.is_return:
            operands.append(f"@{self.target}")
        return " ".join([parts[0], ", ".join(operands)]) if operands else parts[0]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Instr({self.disassemble()})"


class DynInst:
    """One dynamic instance of a static instruction.

    Materialised lazily from a trace's columns
    (:meth:`~repro.workloads.columnar.ColumnarTrace.row`); consumed by the
    timing model.  All speculative mechanisms are validated against
    ``result`` (the architecturally correct value).
    """

    __slots__ = (
        "seq",          # dynamic sequence number in the trace (commit order)
        "pc",           # byte PC of the static instruction
        "opcode",       # Opcode
        "fu",           # FuClass the instruction executes on
        "latency",      # FU latency in cycles (loads: overridden by caches)
        "pipelined",    # False for DIV / FDIV (unit is busy for `latency`)
        "dest",         # unified architectural dest reg, NO_REG if none
        "src1",         # unified architectural source regs (NO_REG if unused)
        "src2",
        "result",       # 64-bit result value (0 when dest is NO_REG)
        "addr",         # effective address for loads/stores, else NO_ADDR
        "is_load",
        "is_store",
        "is_branch",
        "is_conditional",
        "is_call",
        "is_return",
        "taken",        # branch outcome
        "target_pc",    # taken-path target PC (branches only)
        "zero_idiom",   # front-end-visible zero idiom (never speculated on)
        "move",         # move-elimination candidate
        "line",         # cache-line index of pc (precomputed for fetch)
        "eligible",     # rsep_eligible(), precomputed at trace build
    )

    def __init__(
        self,
        seq: int,
        pc: int,
        opcode: Opcode,
        dest: int = NO_REG,
        src1: int = NO_REG,
        src2: int = NO_REG,
        result: int = 0,
        addr: int = NO_ADDR,
        taken: bool = False,
        target_pc: int = -1,
        zero_idiom: bool = False,
        move: bool = False,
    ) -> None:
        info = OP_INFO[opcode]
        self.seq = seq
        self.pc = pc
        self.opcode = opcode
        self.fu = info.fu_class
        self.latency = info.latency
        self.pipelined = info.pipelined
        self.dest = dest
        self.src1 = src1
        self.src2 = src2
        self.result = result
        self.addr = addr
        self.is_load = info.is_load
        self.is_store = info.is_store
        self.is_branch = info.is_branch
        self.is_conditional = info.is_conditional
        self.is_call = info.is_call
        self.is_return = info.is_return
        self.taken = taken
        self.target_pc = target_pc
        self.zero_idiom = zero_idiom
        self.move = move
        self.line = pc >> LINE_SHIFT
        self.eligible = (
            dest != NO_REG
            and dest != XZR
            and not info.is_branch
            and not zero_idiom
        )

    def produces_result(self) -> bool:
        """True iff the instruction writes an architectural register.

        Writes to the hardwired zero register are architectural no-ops and
        therefore do not count as producing a result.
        """
        return self.dest != NO_REG and self.dest != XZR

    def rsep_eligible(self) -> bool:
        """True iff equality/value prediction may apply (§VI.B).

        Stores and branches are not eligible; neither are instructions the
        front-end already eliminates non-speculatively (zero idioms, moves —
        the latter are handled by move elimination when RSEP is on).
        """
        return self.eligible

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"DynInst(seq={self.seq}, pc={self.pc:#x}, "
            f"{OP_INFO[self.opcode].mnemonic}, result={self.result:#x})"
        )
