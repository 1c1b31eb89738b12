"""Simulation statistics: IPC, coverage, squash and speculation accounting.

Coverage categories follow Fig. 5's legend exactly: zero-idiom elimination,
move elimination, zero prediction (load / other), distance prediction
(load / other) and value prediction (load / other), all as fractions of
committed instructions.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Stats:
    """Counters for one measurement window."""

    cycles: int = 0
    committed: int = 0
    committed_producers: int = 0
    committed_eligible: int = 0

    # Fig. 5 coverage categories.
    zero_idiom_elim: int = 0
    move_elim: int = 0
    zero_pred: int = 0
    zero_pred_load: int = 0
    dist_pred: int = 0
    dist_pred_load: int = 0
    value_pred: int = 0
    value_pred_load: int = 0

    # Speculation outcomes.
    rsep_mispredicts: int = 0
    vp_mispredicts: int = 0
    zero_mispredicts: int = 0

    # Squashes.
    squashes_rsep: int = 0
    squashes_vp: int = 0
    squashes_zero: int = 0
    squashes_memory_order: int = 0
    squashed_ops: int = 0

    # Branches.
    branches: int = 0
    branch_mispredicts: int = 0

    # Memory.
    loads: int = 0
    stores: int = 0
    load_forwards: int = 0

    # Stall accounting (rename-blocked cycles by cause).
    stall_rob: int = 0
    stall_iq: int = 0
    stall_regs: int = 0
    stall_lsq: int = 0

    # Interval-sampling aggregation (DESIGN.md §8).  The raw counters
    # above cover the *detailed* intervals only; these fields describe
    # how those intervals sample the full window.  All four stay zero
    # unless functional warming actually skipped instructions, so a
    # 100%-duty-cycle (degenerate) sampled run and a plain full-detail
    # run produce bit-identical ``Stats``.
    intervals: int = 0        # detailed intervals aggregated
    warmed: int = 0           # instructions covered by functional warming
    sampled_window: int = 0   # window covered (committed + warmed)
    ipc_ci: float = 0.0       # confidence-interval half-width on ipc

    extra: dict[str, float] = field(default_factory=dict)

    # ------------------------------------------------------------------

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def sampled(self) -> bool:
        """True iff this window was measured by interval sampling."""
        return self.warmed > 0

    @property
    def branch_mpki(self) -> float:
        if not self.committed:
            return 0.0
        return 1000.0 * self.branch_mispredicts / self.committed

    def coverage_fraction(self, count: int) -> float:
        return count / self.committed if self.committed else 0.0

    @property
    def rsep_accuracy(self) -> float:
        total = self.dist_pred + self.rsep_mispredicts
        return self.dist_pred / total if total else 1.0

    def reset_window(self) -> None:
        """Zero the counters at the end of warm-up (state is retained)."""
        extra = self.extra
        self.__init__()
        self.extra = extra
