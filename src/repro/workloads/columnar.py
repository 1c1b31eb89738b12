"""Columnar trace plane: the packed parallel-array codec as the *runtime*
trace representation (DESIGN.md §9).

Since PR 2 the on-disk trace format has been parallel packed ``array``
columns (one per ``DynInst`` field).  Until now that was only the wire
format: every load decoded the columns back into per-instruction
``DynInst`` objects before the timing model saw them.  This module makes
the columns themselves the representation the hot paths consume:

* :func:`pack_trace` / :func:`unpack_trace` — the codec (moved here from
  ``workloads.store``, which re-exports them).  Static per-opcode
  properties are never stored; they come from one table lookup at decode
  time.
* :class:`ColumnarTrace` — the runtime view over a packed payload.
  Construction performs **no per-instruction Python work for decode**:
  the arrays convert to flat lists via C-speed ``tolist()`` and the
  per-opcode static flags fold into one *kind* byte per instruction via
  ``bytes.translate``.  Only two cheap derived columns (cache-line index
  and RSEP eligibility) take a Python pass.  ``DynInst`` row objects are
  materialised **lazily, one instruction at a time, only when the
  pipeline actually fetches that index** — and cached, so sweeps that
  replay one trace through many mechanism cells pay materialisation
  once per process, exactly like the old eager decode, while loads,
  unfetched slack and functionally-warmed spans pay nothing at all.
* :func:`columnar_from_trace` — packs an object
  :class:`~repro.workloads.trace.Trace` into its runtime view once.
  Fresh interpretation (``Simulator.trace_for``) and a ``Pipeline``
  built on an object trace (the examples, the planted-pair fuzzer) both
  go through it, so the pipeline and the functional warmer only ever
  read columns.

Invariants the pipeline and the property suites rely on:

* A materialised row is field-for-field identical to the ``DynInst`` the
  eager decoder would have produced (same assignments, same tables).
* ``rows[i].seq == i``: the dynamic sequence number *is* the trace
  index, for packed and object traces alike (the interpreter emits
  ``seq`` densely from 0).
* Column reads (``pcs[i]``, ``kinds[i]`` bit tests, ``eligibles[i]``)
  agree with the corresponding row attributes for every index.
"""

from __future__ import annotations

from array import array

from repro.common.bitops import LINE_SHIFT
from repro.isa.instruction import DynInst, NO_REG
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
_NUM_OPCODES = len(Opcode)


# ---------------------------------------------------------------------------
# Flat-array codec
# ---------------------------------------------------------------------------


def pack_trace(trace, budget: int) -> dict:
    """Serialise *trace* as parallel packed columns.

    ``seq`` is implicit (0..n-1); static per-opcode properties (FU class,
    latency, load/store/branch flags, …) are not stored — they are
    re-derived from the opcode at decode time, exactly as the interpreter
    derives them at build time.  Accepts both an object
    :class:`~repro.workloads.trace.Trace` and a :class:`ColumnarTrace`
    (whose columns repack without materialising any rows).
    """
    if isinstance(trace, ColumnarTrace):
        return trace.to_payload(budget)
    n = len(trace)
    pc = array("q", bytes(8 * n))
    opcode = bytearray(n)
    dest = array("b", bytes(n))
    src1 = array("b", bytes(n))
    src2 = array("b", bytes(n))
    result = array("Q", bytes(8 * n))
    addr = array("q", bytes(8 * n))
    target_pc = array("q", bytes(8 * n))
    flags = bytearray(n)
    for index, d in enumerate(trace.instructions):
        pc[index] = d.pc
        opcode[index] = d.opcode
        dest[index] = d.dest
        src1[index] = d.src1
        src2[index] = d.src2
        result[index] = d.result
        addr[index] = d.addr
        target_pc[index] = d.target_pc
        flags[index] = (
            (TAKEN if d.taken else 0)
            | (ZERO_IDIOM if d.zero_idiom else 0)
            | (MOVE if d.move else 0)
        )
    return {
        "format": FORMAT,
        "name": trace.name,
        "budget": budget,
        "n": n,
        "pc": pc,
        "opcode": bytes(opcode),
        "dest": dest,
        "src1": src1,
        "src2": src2,
        "result": result,
        "addr": addr,
        "target_pc": target_pc,
        "flags": bytes(flags),
    }


def _validate_payload(payload: dict) -> int:
    """Shared payload checks; returns ``n`` or raises ``ValueError``."""
    if payload.get("format") != FORMAT:
        raise ValueError(f"unsupported trace format {payload.get('format')}")
    n = payload["n"]
    if not (
        len(payload["pc"]) == len(payload["opcode"]) == len(payload["dest"])
        == len(payload["src1"]) == len(payload["src2"])
        == len(payload["result"]) == len(payload["addr"])
        == len(payload["target_pc"]) == len(payload["flags"]) == n
    ):
        raise ValueError("trace payload columns disagree on length")
    opcodes = payload["opcode"]
    if n and max(opcodes) >= _NUM_OPCODES:
        raise ValueError("trace payload contains an unknown opcode")
    return n


def unpack_trace(payload: dict):
    """Decode a packed payload into ``(trace, budget)`` of ``DynInst`` objects.

    The unit-level reference for :meth:`ColumnarTrace.row`: the store and
    codec property suites compare the two field for field.
    Reconstruction bypasses ``DynInst.__init__``: all derived fields
    (``line``, ``eligible``, the static opcode properties) are assigned
    from precomputed tables.  No simulation path decodes a whole trace:
    see :class:`ColumnarTrace`.
    """
    from repro.workloads.trace import Trace

    n = _validate_payload(payload)
    pcs = payload["pc"]
    opcodes = payload["opcode"]
    dests = payload["dest"]
    src1s = payload["src1"]
    src2s = payload["src2"]
    results = payload["result"]
    addrs = payload["addr"]
    targets = payload["target_pc"]
    flags = payload["flags"]

    statics = _OPCODE_STATICS
    new = DynInst.__new__
    cls = DynInst
    instructions = []
    append = instructions.append
    for seq in range(n):
        d = new(cls)
        pc = pcs[seq]
        dest = dests[seq]
        flag = flags[seq]
        zero_idiom = flag & ZERO_IDIOM != 0
        (
            d.opcode, d.fu, d.latency, d.pipelined,
            d.is_load, d.is_store, is_branch,
            d.is_conditional, d.is_call, d.is_return,
        ) = statics[opcodes[seq]]
        d.is_branch = is_branch
        d.seq = seq
        d.pc = pc
        d.dest = dest
        d.src1 = src1s[seq]
        d.src2 = src2s[seq]
        d.result = results[seq]
        d.addr = addrs[seq]
        d.taken = flag & TAKEN != 0
        d.target_pc = targets[seq]
        d.zero_idiom = zero_idiom
        d.move = flag & MOVE != 0
        d.line = pc >> LINE_SHIFT
        d.eligible = (
            dest != -1 and dest != XZR and not is_branch and not zero_idiom
        )
        append(d)
    return Trace(payload["name"], instructions), payload["budget"]


def columnar_from_trace(trace, budget: int) -> tuple["ColumnarTrace", dict]:
    """Pack an object trace once: ``(runtime view, codec payload)``.

    The payload is what a trace store persists.  The trace's own
    ``DynInst`` objects seed the view's row cache: they are field-identical
    to decoded rows (pinned by the codec property suite), so nothing the
    interpreter just built is materialised twice.
    """
    payload = pack_trace(trace, budget)
    columnar = ColumnarTrace.from_payload(payload)
    columnar.rows[:] = trace.instructions
    return columnar, payload


# ---------------------------------------------------------------------------
# Runtime columnar view
# ---------------------------------------------------------------------------


class ColumnarTrace:
    """A committed-path trace held as flat columns, rows on demand.

    Duck-compatible with :class:`~repro.workloads.trace.Trace` (``name``,
    ``len``, indexing, iteration, ``instructions``,
    ``result_producers``), so analyses and tests that walk instruction
    objects keep working — they simply trigger (cached) row
    materialisation.  The pipeline's fetch stage and the functional
    warmer never do: they read the columns directly.
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
        # Derived columns.  ``kinds`` is pure C (one translate);
        # ``lines``/``eligibles`` are the only Python passes — a couple
        # of operations per instruction, vs ~25 for an eager decode.
        self.kinds = opcodes.translate(_KIND_TABLE)
        self.lines = [pc >> LINE_SHIFT for pc in pcs]
        kind_branch = KIND_BRANCH
        zero_idiom = ZERO_IDIOM
        xzr = XZR
        self.eligibles = [
            dest != -1 and dest != xzr
            and not kind & kind_branch and not flag & zero_idiom
            for dest, kind, flag in zip(dests, self.kinds, flags)
        ]
        self.rows: list[DynInst | None] = [None] * n

    # -- construction ---------------------------------------------------

    @classmethod
    def from_payload(cls, payload: dict) -> "ColumnarTrace":
        """Wrap a packed payload; no ``DynInst`` is ever constructed."""
        n = _validate_payload(payload)
        return cls(
            payload["name"], n,
            payload["pc"].tolist(), bytes(payload["opcode"]),
            payload["dest"].tolist(), payload["src1"].tolist(),
            payload["src2"].tolist(), payload["result"].tolist(),
            payload["addr"].tolist(), payload["target_pc"].tolist(),
            bytes(payload["flags"]),
        )

    def to_payload(self, budget: int) -> dict:
        """Repack the columns into a codec payload (no rows touched)."""
        return {
            "format": FORMAT,
            "name": self.name,
            "budget": budget,
            "n": self.n,
            "pc": array("q", self.pcs),
            "opcode": self.opcodes,
            "dest": array("b", self.dests),
            "src1": array("b", self.src1s),
            "src2": array("b", self.src2s),
            "result": array("Q", self.results),
            "addr": array("q", self.addrs),
            "target_pc": array("q", self.targets),
            "flags": self.flags,
        }

    # -- rows -----------------------------------------------------------

    def row(self, index: int) -> DynInst:
        """The (cached) ``DynInst`` row at *index*.

        Field-for-field identical to what :func:`unpack_trace` builds —
        the equivalence and property suites pin this.
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

    # -- Trace-compatible surface --------------------------------------

    @property
    def instructions(self) -> list[DynInst]:
        """All rows, materialising any not yet fetched (for analyses)."""
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

    @property
    def result_producers(self) -> int:
        """Producer count straight from the columns (no rows)."""
        xzr = XZR
        return sum(
            1 for dest in self.dests if dest != NO_REG and dest != xzr
        )
