"""Functional units and issue ports (Table I).

8-wide issue over: 4 ALUs (one doubling as a 3-cycle multiplier, one as a
25-cycle *non-pipelined* divider), 3 FP units (one FP multiplier, one
11-cycle non-pipelined FP divider), 2 load/store ports and 1 store-only
port.  Branches resolve on ALU ports.

RSEP validation µ-ops also issue through this structure (§IV.F): in
``lock_fu`` mode a validation µ-op must use the same port class as the
instruction it validates; otherwise it may use any port, with non-load
ports given priority so that load throughput is not strangled — the
distinction Fig. 6 measures.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.opcodes import FuClass


@dataclass(frozen=True)
class PortConfig:
    """Issue-port provisioning; defaults are Table I."""

    issue_width: int = 8
    alu_count: int = 4
    fp_count: int = 3
    ldst_ports: int = 2
    store_only_ports: int = 1
    mul_per_cycle: int = 1
    fpmul_per_cycle: int = 1
    div_latency: int = 25
    fpdiv_latency: int = 11


class IssuePorts:
    """Per-cycle issue bandwidth accounting."""

    def __init__(self, config: PortConfig | None = None) -> None:
        self.config = config or PortConfig()
        # Hot-path copies of the per-cycle port limits (avoids chasing
        # self.config.* inside try_issue).
        c = self.config
        self._issue_width = c.issue_width
        self._alu_count = c.alu_count
        self._fp_count = c.fp_count
        self._ldst_ports = c.ldst_ports
        self._store_only_ports = c.store_only_ports
        self._mul_per_cycle = c.mul_per_cycle
        self._fpmul_per_cycle = c.fpmul_per_cycle
        self._cycle = -1
        self._total = 0
        self._alu = 0
        self._fp = 0
        self._ldst = 0
        self._store_only = 0
        self._mul = 0
        self._fpmul = 0
        self._div_busy_until = 0
        self._fpdiv_busy_until = 0
        self.validation_on_load_port = 0
        self.validation_issued = 0

    # ------------------------------------------------------------------

    def new_cycle(self, cycle: int) -> None:
        """Reset per-cycle counters."""
        self._cycle = cycle
        self._total = 0
        self._alu = 0
        self._fp = 0
        self._ldst = 0
        self._store_only = 0
        self._mul = 0
        self._fpmul = 0

    def _has_slot(self) -> bool:
        return self._total < self.config.issue_width

    # ------------------------------------------------------------------

    def try_issue(self, fu: FuClass, cycle: int) -> bool:
        """Claim an issue slot + port for one instruction.  True on success."""
        if self._total >= self._issue_width:
            return False
        if fu == FuClass.INT_ALU or fu == FuClass.BRANCH or fu == FuClass.NONE:
            if self._alu >= self._alu_count:
                return False
            self._alu += 1
        elif fu == FuClass.MEM_LOAD:
            if self._ldst >= self._ldst_ports:
                return False
            self._ldst += 1
        elif fu == FuClass.MEM_STORE:
            if self._store_only < self._store_only_ports:
                self._store_only += 1
            elif self._ldst < self._ldst_ports:
                self._ldst += 1
            else:
                return False
        elif fu == FuClass.FP_ALU:
            if self._fp >= self._fp_count:
                return False
            self._fp += 1
        elif fu == FuClass.FP_MUL:
            if self._fp >= self._fp_count or self._fpmul >= self._fpmul_per_cycle:
                return False
            self._fp += 1
            self._fpmul += 1
        elif fu == FuClass.FP_DIV:
            if self._fp >= self._fp_count or cycle < self._fpdiv_busy_until:
                return False
            self._fp += 1
            self._fpdiv_busy_until = cycle + self.config.fpdiv_latency
        elif fu == FuClass.INT_MUL:
            if self._alu >= self._alu_count or self._mul >= self._mul_per_cycle:
                return False
            self._alu += 1
            self._mul += 1
        elif fu == FuClass.INT_DIV:
            if self._alu >= self._alu_count or cycle < self._div_busy_until:
                return False
            self._alu += 1
            self._div_busy_until = cycle + self.config.div_latency
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown FU class {fu!r}")
        self._total += 1
        return True

    # ------------------------------------------------------------------

    def try_issue_validation(self, fu: FuClass, cycle: int,
                             lock_fu: bool) -> bool:
        """Claim a slot + port for a validation µ-op (a 64-bit compare).

        ``lock_fu`` forces the port class of the validated instruction —
        the scheme §IV.F.1b shows starves load bandwidth.  Otherwise any
        port may perform the compare, non-load ports first.
        """
        if not self._has_slot():
            return False
        c = self.config
        if lock_fu:
            if fu == FuClass.MEM_LOAD:
                if self._ldst >= c.ldst_ports:
                    return False
                self._ldst += 1
                self.validation_on_load_port += 1
            elif fu in (FuClass.FP_ALU, FuClass.FP_MUL, FuClass.FP_DIV):
                if self._fp >= c.fp_count:
                    return False
                self._fp += 1
            else:
                if self._alu >= c.alu_count:
                    return False
                self._alu += 1
            self._total += 1
            self.validation_issued += 1
            return True
        # Any-port mode: ALU, then FP, then store-only, then load ports.
        if self._alu < c.alu_count:
            self._alu += 1
        elif self._fp < c.fp_count:
            self._fp += 1
        elif self._store_only < c.store_only_ports:
            self._store_only += 1
        elif self._ldst < c.ldst_ports:
            self._ldst += 1
            self.validation_on_load_port += 1
        else:
            return False
        self._total += 1
        self.validation_issued += 1
        return True
