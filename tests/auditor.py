"""Invariant auditor: the modelled hardware's rules, checked on a live run.

Attach an :class:`Auditor` to a :class:`~repro.pipeline.core.Pipeline`
right after it is built.  It changes nothing the pipeline computes:

* it drives ``run_until`` in chunks of :data:`CHUNK` commits, which by
  that method's contract executes exactly the step sequence of one call;
* it wraps the instance's ``_commit`` (the way ``repro.obs.profile``
  wraps stages) to see every op that commits, and ``drain_inflight`` /
  ``skip_to`` to follow sampled runs across their warmed spans.

At every chunk boundary, drain and skip it checks the structural
invariants 1-3; at every commit, invariants 4 and 5:

1. no preg is both free and allocated, and free + allocated pregs are
   exactly ``int_pregs + fp_pregs``;
2. the allocated pregs are exactly the rename map's pregs plus every ROB
   op's ``old_preg`` (zero register excluded), and each is referenced
   ``1 + referenced - committed`` times by them (1 if the ISRB does not
   track it);
3. the ROB and then the fetch buffer hold trace indices ``next commit ..
   fetch cursor - 1`` in order with ``d.seq == trace_index``, every LSQ op
   and every live IQ op is a ROB op, and each LSQ list is in seq order;
4. ops commit in trace order with no gap (a warmed span or a restored
   checkpoint moves the next index forward, never back);
5. the paper's guarantee, stated on values: every committed op's
   destination preg holds its trace result -- shared, move-eliminated
   and zero-renamed ops included -- and no op commits with ``dist_used
   and not equality_ok`` or with ``zero_pred_used`` and a non-zero
   result.

For 5 the auditor keeps the value each preg holds: an allocating op
writes its own result when it commits, every other op must find its
result already there.  A warmed span writes the architectural values of
the instructions it skips into the mapped pregs; a preg that two
registers map to with different values has no single value (the timing
model carries none) and is learnt from its next committed reader.

A violation raises :class:`AuditError` naming the invariant, the cycle
and the op.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

from repro.isa.instruction import NO_REG
from repro.isa.registers import NUM_ARCH_REGS
from repro.pipeline.core import Pipeline

#: Commits between two structural checks inside one ``run_until`` call.
CHUNK = 128


class AuditError(AssertionError):
    """A modelled-hardware invariant does not hold."""


class Auditor:
    """Checks invariants 1-5 (module docstring) on one pipeline."""

    def __init__(self, pipeline) -> None:
        self.pipeline = pipeline
        #: Trace index of the next instruction to commit.
        self.next_index = pipeline._cursor
        #: Ops whose commit was audited, committed non-allocating ops whose
        #: preg value was compared, structural checks run, and drains.
        self.commits = 0
        self.value_checks = 0
        self.checks = 0
        self.drains = 0
        # The interpreter starts every architectural register at zero,
        # and the rename map starts with one preg per register.
        self.arch = [0] * NUM_ARCH_REGS
        self.values: list[int | None] = [None] * len(pipeline._reg_ready)
        for preg in pipeline.rename_map._map:
            self.values[preg] = 0
        self._run_until = pipeline.run_until
        self._commit = pipeline._commit
        self._drain = pipeline.drain_inflight
        self._skip_to = pipeline.skip_to
        pipeline.run_until = self.run_until
        pipeline._commit = self.commit
        pipeline.drain_inflight = self.drain_inflight
        pipeline.skip_to = self.skip_to

    # -- wrappers ------------------------------------------------------

    def run_until(self, target_committed: int) -> None:
        p = self.pipeline
        self.check()
        while p.total_committed < target_committed and not p._finished():
            self._run_until(
                min(target_committed, p.total_committed + CHUNK)
            )
            self.check()

    def commit(self, cycle: int) -> None:
        p = self.pipeline
        head = list(islice(p.rob._entries, p.config.commit_width))
        self._commit(cycle)
        for op in head:
            if not op.committed:
                break
            self._committed(op)

    def drain_inflight(self) -> int:
        resume = self._drain()
        self.drains += 1
        if resume != self.next_index:
            self._fail(4, f"drain resumes fetch at {resume}, but the next "
                          f"instruction to commit is {self.next_index}")
        self.check()
        return resume

    def skip_to(self, index: int, cycle: int) -> None:
        p = self.pipeline
        if index < self.next_index:
            self._fail(4, f"skip_to({index}) moves back over committed "
                          f"instructions (next commit {self.next_index})")
        self._skip_to(index, cycle)
        arch = self.arch
        dests = p.trace.dests
        results = p.trace.results
        for i in range(self.next_index, index):
            if dests[i] != NO_REG:
                arch[dests[i]] = results[i]
        self.next_index = index
        held: dict[int, set] = {}
        for reg, preg in enumerate(p.rename_map._map):
            if preg != p.zero_preg:
                held.setdefault(preg, set()).add(arch[reg])
        for preg, values in held.items():
            self.values[preg] = values.pop() if len(values) == 1 else None
        self.check()

    # -- invariant 4 and 5: every commit -------------------------------

    def _committed(self, op) -> None:
        d = op.d
        if op.trace_index != self.next_index or d.seq != op.trace_index:
            self._fail(4, f"committed trace index {op.trace_index} "
                          f"(seq {d.seq}), expected {self.next_index}", op)
        self.next_index = op.trace_index + 1
        self.commits += 1
        if op.dist_used and not op.equality_ok:
            self._fail(5, "an unvalidated equality prediction committed", op)
        if op.zero_pred_used and d.result != 0:
            self._fail(5, "a zero prediction committed a non-zero result", op)
        preg = op.dest_preg
        if preg == NO_REG:
            return
        self.arch[d.dest] = d.result
        if op.allocated:
            self.values[preg] = d.result
            return
        held = self.values[preg]
        if held is None:
            self.values[preg] = d.result
        elif held != d.result:
            self._fail(5, f"preg {preg} holds {held:#x} but the trace "
                          f"result is {d.result:#x}", op)
        else:
            self.value_checks += 1

    # -- invariants 1-3: chunk boundaries ------------------------------

    def check(self) -> None:
        p = self.pipeline
        self.checks += 1
        zero = p.zero_preg
        total = p.config.int_pregs + p.config.fp_pregs
        free_list = p.free_list
        allocated = free_list._allocated
        free = free_list._free_int + free_list._free_fp
        held = {preg for preg in range(total) if allocated[preg]}
        if len(set(free)) != len(free) or held.intersection(free):
            self._fail(1, "a preg is free twice, or free and allocated")
        if len(free) + len(held) != total or allocated[zero]:
            self._fail(1, f"{len(free)} free + {len(held)} allocated "
                          f"pregs, expected {total}")

        rob = p.rob._entries
        refs = Counter(
            preg for preg in p.rename_map._map if preg != zero
        )
        refs.update(
            op.old_preg for op in rob
            if op.old_preg != NO_REG and op.old_preg != zero
        )
        if set(refs) != held:
            self._fail(2, f"allocated but unreferenced "
                          f"{sorted(held - set(refs))}, referenced but free "
                          f"{sorted(set(refs) - held)}")
        shared = p.isrb._entries
        for preg, count in refs.items():
            entry = shared.get(preg)
            expected = (
                1 if entry is None else 1 + entry.referenced - entry.committed
            )
            if count != expected:
                self._fail(2, f"preg {preg} has {count} references, the "
                              f"ISRB accounts for {expected}")
        if not held.issuperset(shared):
            self._fail(2, f"the ISRB tracks unallocated pregs "
                          f"{sorted(set(shared) - held)}")

        index = self.next_index
        for op in (*rob, *p._fetch_buffer):
            if (op.trace_index != index or op.d.seq != index
                    or op.committed or op.squashed):
                self._fail(3, f"in-flight op at trace index {op.trace_index}"
                              f" (seq {op.d.seq}), expected {index}", op)
            index += 1
        if p._cursor != index:
            self._fail(3, f"fetch cursor {p._cursor}, in-flight window "
                          f"ends at {index}")
        in_rob = {id(op) for op in rob}
        for queue in (p.lsq._loads, p.lsq._stores):
            seqs = [op.d.seq for op in queue]
            if seqs != sorted(seqs) or not in_rob.issuperset(map(id, queue)):
                self._fail(3, "an LSQ op is out of seq order or not in "
                              "the ROB")
        live = [op for op in p.iq._entries if op is not None]
        if len(live) != len(p.iq) or not in_rob.issuperset(map(id, live)):
            self._fail(3, "a live IQ op is not in the ROB")

    def _fail(self, invariant: int, detail: str, op=None) -> None:
        where = f"cycle {self.pipeline.cycle}"
        if op is not None:
            where += f", op seq {op.d.seq} pc {op.d.pc:#x}"
        raise AuditError(f"invariant {invariant} ({where}): {detail}")


def audit_every_pipeline(monkeypatch) -> list[Auditor]:
    """Attach an :class:`Auditor` to every ``Pipeline`` built from now on.

    Returns the list the auditors are appended to, in build order.
    """
    auditors: list[Auditor] = []
    init = Pipeline.__init__

    def audited_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        auditors.append(Auditor(self))

    monkeypatch.setattr(Pipeline, "__init__", audited_init)
    return auditors
