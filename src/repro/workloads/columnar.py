"""The trace: committed-path columns, with rows on demand (DESIGN.md §9).

:class:`ColumnarTrace` is the one trace form.  The interpreter
(:func:`repro.workloads.trace.execute`) writes its columns; the trace
store pickles them as a payload of packed ``array`` columns
(:meth:`ColumnarTrace.to_payload`, :meth:`ColumnarTrace.from_payload`);
the pipeline's fetch stage, the functional warmer and the Fig. 1
analysis read them directly.

* Columns whose values change per instruction are packed: ``results``
  is an ``array('Q')``, ``addrs`` an ``array('q')``, the register
  columns are ``array('b')`` and the byte columns (opcodes, flags,
  kinds, eligibility) are ``bytes``.  ``pcs``, ``targets`` and
  ``lines`` stay lists, because fetch and warming index them per
  instruction and an array index allocates a new int each time; in
  them equal values share one int object, so a list costs one pointer
  per instruction.  A fresh trace and a loaded one hold the same types.
* Static per-opcode properties are never stored.  The per-opcode flags
  fold into one *kind* byte per instruction with one C-speed
  ``bytes.translate``; the derived ``lines`` and ``eligibles`` columns
  are C-speed passes too.
* ``DynInst`` rows materialise lazily, one instruction at a time, only
  when the pipeline fetches that index, and stay cached: sweeps that
  replay one trace through many mechanism cells pay for a row once per
  process, while loads, unfetched slack and functionally-warmed spans
  pay nothing.

Invariants the pipeline and the property suites rely on:

* A materialised row is field-for-field identical to ``DynInst.__init__``
  on the same fields.
* ``rows[i].seq == i``: the dynamic sequence number *is* the trace index.
* Column reads (``pcs[i]``, ``kinds[i]`` bit tests, ``eligibles[i]``)
  agree with the corresponding row attributes for every index.
"""

from __future__ import annotations

from array import array

from repro.common.bitops import LINE_SHIFT
from repro.isa.instruction import DynInst
from repro.isa.opcodes import FuClass, OP_INFO, Opcode
from repro.isa.registers import XZR

#: Bump when the packed layout changes; readers reject other versions.
FORMAT = 1

#: Flag bits of the packed per-instruction dynamic-flag byte.
TAKEN = 1
ZERO_IDIOM = 2
MOVE = 4

#: Bits of the per-instruction *kind* byte (static opcode properties,
#: derived from the opcode column with one C-speed ``bytes.translate``).
KIND_BRANCH = 1
KIND_CONDITIONAL = 2
KIND_CALL = 4
KIND_RETURN = 8
KIND_LOAD = 16
KIND_STORE = 32
KIND_HAS_FU = 64  # executes on a functional unit (fu != FuClass.NONE)


def _opcode_statics() -> list[tuple]:
    """Per-opcode constants a decoded ``DynInst`` carries."""
    statics = []
    for opcode in Opcode:
        info = OP_INFO[opcode]
        statics.append((
            opcode, info.fu_class, info.latency, info.pipelined,
            info.is_load, info.is_store, info.is_branch,
            info.is_conditional, info.is_call, info.is_return,
        ))
    return statics


def _kind_table() -> bytes:
    """256-entry opcode-byte -> kind-byte table for ``bytes.translate``."""
    table = bytearray(256)
    for opcode in Opcode:
        info = OP_INFO[opcode]
        table[opcode] = (
            (KIND_BRANCH if info.is_branch else 0)
            | (KIND_CONDITIONAL if info.is_conditional else 0)
            | (KIND_CALL if info.is_call else 0)
            | (KIND_RETURN if info.is_return else 0)
            | (KIND_LOAD if info.is_load else 0)
            | (KIND_STORE if info.is_store else 0)
            | (KIND_HAS_FU if info.fu_class != FuClass.NONE else 0)
        )
    return bytes(table)


_OPCODE_STATICS = _opcode_statics()
_KIND_TABLE = _kind_table()
_OPCODE_BYTES = bytes(range(len(Opcode)))

#: ``bytes.translate`` tables to 1 where each column allows RSEP
#: eligibility (DESIGN.md §9): a destination other than none (-1, the
#: byte 255) or the zero register, a non-branch kind, no zero idiom.
_DEST_ELIGIBLE = bytes(int(dest not in (0xFF, XZR)) for dest in range(256))
_KIND_ELIGIBLE = bytes(int(not kind & KIND_BRANCH) for kind in range(256))
_FLAG_ELIGIBLE = bytes(int(not flag & ZERO_IDIOM) for flag in range(256))

#: Stored payload columns: (key, type, ``array`` typecode or ``None``).
_PAYLOAD_COLUMNS = (
    ("pc", array, "q"), ("opcode", bytes, None), ("dest", array, "b"),
    ("src1", array, "b"), ("src2", array, "b"), ("result", array, "Q"),
    ("addr", array, "q"), ("target_pc", array, "q"), ("flags", bytes, None),
)


def _shared(column: array) -> list:
    """*column* as a list in which equal values are one int object:
    ``setdefault`` returns the first object it stored for a value."""
    canonical: dict[int, int] = {}
    return list(map(canonical.setdefault, column, column))


class ColumnarTrace:
    """A committed-path trace held as flat columns, rows on demand.

    ``len``, indexing, iteration and ``instructions`` walk ``DynInst``
    rows, materialising (and caching) each one they reach.  The
    pipeline's fetch stage, the functional warmer and the Fig. 1
    analysis never do: they read the columns directly.
    """

    __slots__ = (
        "name", "n",
        "pcs", "opcodes", "dests", "src1s", "src2s",
        "results", "addrs", "targets", "flags",
        "lines", "kinds", "eligibles", "rows",
    )

    def __init__(self, name, n, pcs, opcodes, dests, src1s, src2s,
                 results, addrs, targets, flags) -> None:
        self.name = name
        self.n = n
        self.pcs = pcs
        self.opcodes = opcodes
        self.dests = dests
        self.src1s = src1s
        self.src2s = src2s
        self.results = results
        self.addrs = addrs
        self.targets = targets
        self.flags = flags
        # Derived columns, all at C speed.  ``lines`` maps each distinct
        # PC once, so equal lines share one int as equal PCs do.
        # ``eligibles`` ANDs three translated 0/1 byte strings, each read
        # as one little-endian integer.
        kinds = self.kinds = opcodes.translate(_KIND_TABLE)
        line_of = {pc: pc >> LINE_SHIFT for pc in set(pcs)}
        self.lines = list(map(line_of.__getitem__, pcs))
        self.eligibles = (
            int.from_bytes(dests.tobytes().translate(_DEST_ELIGIBLE),
                           "little")
            & int.from_bytes(kinds.translate(_KIND_ELIGIBLE), "little")
            & int.from_bytes(flags.translate(_FLAG_ELIGIBLE), "little")
        ).to_bytes(n, "little")
        self.rows: list[DynInst | None] = [None] * n

    # -- construction ---------------------------------------------------

    @classmethod
    def from_payload(cls, payload: dict) -> "ColumnarTrace":
        """Wrap a stored payload; no ``DynInst`` is ever constructed.

        The packed columns are kept as they are; ``pc`` and
        ``target_pc`` become lists with one int object per distinct
        value.  Raises ``ValueError`` on a foreign format, a column of
        the wrong type or typecode, columns of unequal length or an
        unknown opcode (the store treats it as a miss).
        """
        if payload.get("format") != FORMAT:
            raise ValueError(
                f"unsupported trace format {payload.get('format')}"
            )
        n = payload["n"]
        for key, kind, typecode in _PAYLOAD_COLUMNS:
            column = payload[key]
            if type(column) is not kind or (
                typecode is not None and column.typecode != typecode
            ):
                raise ValueError(f"trace payload column {key!r} has the "
                                 "wrong type")
            if len(column) != n:
                raise ValueError("trace payload columns disagree on length")
        if payload["opcode"].translate(None, _OPCODE_BYTES):
            raise ValueError("trace payload contains an unknown opcode")
        return cls(
            payload["name"], n,
            _shared(payload["pc"]), payload["opcode"],
            payload["dest"], payload["src1"], payload["src2"],
            payload["result"], payload["addr"],
            _shared(payload["target_pc"]), payload["flags"],
        )

    def to_payload(self, budget: int) -> dict:
        """Pack the columns into the stored payload (no rows touched).

        The only packer: the trace store persists exactly this dict.
        The packed columns go in as they are; ``seq`` is implicit
        (0..n-1).
        """
        return {
            "format": FORMAT,
            "name": self.name,
            "budget": budget,
            "n": self.n,
            "pc": array("q", self.pcs),
            "opcode": self.opcodes,
            "dest": self.dests,
            "src1": self.src1s,
            "src2": self.src2s,
            "result": self.results,
            "addr": self.addrs,
            "target_pc": array("q", self.targets),
            "flags": self.flags,
        }

    # -- rows -----------------------------------------------------------

    def row(self, index: int) -> DynInst:
        """The (cached) ``DynInst`` row at *index*.

        Field-for-field identical to ``DynInst.__init__`` on the same
        fields; the codec property suite pins this.  The derived fields
        come from per-opcode tables instead of that constructor's
        lookups.
        """
        d = self.rows[index]
        if d is not None:
            return d
        d = DynInst.__new__(DynInst)
        pc = self.pcs[index]
        dest = self.dests[index]
        flag = self.flags[index]
        zero_idiom = flag & ZERO_IDIOM != 0
        (
            d.opcode, d.fu, d.latency, d.pipelined,
            d.is_load, d.is_store, is_branch,
            d.is_conditional, d.is_call, d.is_return,
        ) = _OPCODE_STATICS[self.opcodes[index]]
        d.is_branch = is_branch
        d.seq = index
        d.pc = pc
        d.dest = dest
        d.src1 = self.src1s[index]
        d.src2 = self.src2s[index]
        d.result = self.results[index]
        d.addr = self.addrs[index]
        d.taken = flag & TAKEN != 0
        d.target_pc = self.targets[index]
        d.zero_idiom = zero_idiom
        d.move = flag & MOVE != 0
        d.line = self.lines[index]
        d.eligible = (
            dest != -1 and dest != XZR and not is_branch and not zero_idiom
        )
        self.rows[index] = d
        return d

    # -- row walks ------------------------------------------------------

    @property
    def instructions(self) -> list[DynInst]:
        """All rows, materialising any not yet fetched."""
        rows = self.rows
        row = self.row
        for index, d in enumerate(rows):
            if d is None:
                row(index)
        return rows  # fully materialised: safe to hand out

    def __len__(self) -> int:
        return self.n

    def __getitem__(self, index: int) -> DynInst:
        if index < 0:
            index += self.n
        if not 0 <= index < self.n:
            raise IndexError("trace index out of range")
        return self.row(index)

    def __iter__(self):
        row = self.row
        return (row(index) for index in range(self.n))
