"""Commit-time redundancy analysis — the measurements behind Fig. 1.

For each committed instruction the paper asks two questions (§III/§IV):

* is the result zero (and the instruction not a decode-visible zero idiom)?
* is the result *already in the physical register file* at commit time?

This is a purely functional analysis over the trace's ``dests``,
``results``, ``kinds`` and ``flags`` columns; it builds no ``DynInst``.
PRF occupancy is modelled as the architectural values plus the results
of the most recent ``inflight_window`` committed producers — the
registers a 192-entry-ROB machine with 235+235 physical registers would
still hold live.  Traces come the way a simulated cell's do: from the
trace store, else from the interpreter, which writes the store
(:func:`~repro.pipeline.simulator.load_or_interpret`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from repro.isa.instruction import NO_REG
from repro.isa.registers import NUM_ARCH_REGS, XZR
from repro.pipeline.simulator import load_or_interpret
from repro.workloads.columnar import KIND_LOAD, ZERO_IDIOM, ColumnarTrace
from repro.workloads.store import TraceStore, workload_code_version


@dataclass
class RedundancyProfile:
    """Fig. 1's four bar segments for one benchmark, plus denominators."""

    benchmark: str
    committed: int = 0
    producers: int = 0
    zero_load: int = 0
    zero_other: int = 0
    in_prf_load: int = 0
    in_prf_other: int = 0
    zero_idioms: int = 0
    extra: dict = field(default_factory=dict)

    def fraction(self, count: int) -> float:
        return count / self.committed if self.committed else 0.0

    @property
    def zero_fraction(self) -> float:
        return self.fraction(self.zero_load + self.zero_other)

    @property
    def in_prf_fraction(self) -> float:
        return self.fraction(self.in_prf_load + self.in_prf_other)

    @property
    def total_redundant_fraction(self) -> float:
        return self.fraction(
            self.zero_load + self.zero_other
            + self.in_prf_load + self.in_prf_other
        )


class LivePrfModel:
    """Multiset of values the PRF would hold at commit time."""

    def __init__(self, inflight_window: int = 140) -> None:
        self._arch_values = [0] * NUM_ARCH_REGS
        self._window: deque[int] = deque()
        self._window_limit = inflight_window
        self._counts: dict[int, int] = {0: NUM_ARCH_REGS}

    def _add(self, value: int) -> None:
        self._counts[value] = self._counts.get(value, 0) + 1

    def _remove(self, value: int) -> None:
        remaining = self._counts[value] - 1
        if remaining:
            self._counts[value] = remaining
        else:
            del self._counts[value]

    def contains(self, value: int) -> bool:
        return value in self._counts

    def commit(self, dest: int, value: int) -> None:
        """Record one committed result."""
        self._window.append(value)
        self._add(value)
        if len(self._window) > self._window_limit:
            self._remove(self._window.popleft())
        self._remove(self._arch_values[dest])
        self._arch_values[dest] = value
        self._add(value)


def analyze_trace(
    trace: ColumnarTrace,
    inflight_window: int = 140,
    instructions: int | None = None,
) -> RedundancyProfile:
    """Compute the Fig. 1 profile over the first *instructions* of
    *trace* (all of it by default)."""
    if instructions is None or instructions > len(trace):
        instructions = len(trace)
    profile = RedundancyProfile(trace.name, committed=instructions)
    prf = LivePrfModel(inflight_window)
    columns = zip(trace.dests, trace.results, trace.kinds, trace.flags)
    for dest, value, kind, flag in islice(columns, instructions):
        if dest == NO_REG or dest == XZR:
            continue
        profile.producers += 1
        if flag & ZERO_IDIOM:
            profile.zero_idioms += 1
        elif value == 0:
            if kind & KIND_LOAD:
                profile.zero_load += 1
            else:
                profile.zero_other += 1
        elif prf.contains(value):
            if kind & KIND_LOAD:
                profile.in_prf_load += 1
            else:
                profile.in_prf_other += 1
        prf.commit(dest, value)
    return profile


def analyze_benchmark(
    name: str,
    instructions: int = 30000,
    seed: int = 1,
    inflight_window: int = 140,
    store: TraceStore | None = None,
) -> RedundancyProfile:
    """Analyse the first *instructions* of *name*'s trace.

    The trace comes from *store* when one covers the request, else from
    the interpreter (which then writes *store*); nothing keeps it after
    the analysis.
    """
    trace, _ = load_or_interpret(
        store, name, seed, instructions, workload_code_version()
    )
    return analyze_trace(trace, inflight_window, instructions)
