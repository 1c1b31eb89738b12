"""DRAM model: dual-channel DDR4-2400, 2 ranks/channel, 8 banks/rank.

Models what drives the Table I numbers ("Min. Read Lat.: 36 ns, Average:
75 ns"): open-row hits are fast, row conflicts pay precharge+activate, and
bank busy time queues closely spaced accesses to the same bank.  Latencies
are configured in nanoseconds and converted with the core clock.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.cache import LINE_SHIFT


@dataclass(frozen=True)
class DramConfig:
    """Timing and geometry of the memory system."""

    channels: int = 2
    ranks_per_channel: int = 2
    banks_per_rank: int = 8
    row_bytes: int = 8192           # 8K row buffer (Table I)
    clock_ghz: float = 3.2          # core clock used for ns -> cycles
    row_hit_ns: float = 36.0        # minimum read latency (Table I)
    row_empty_ns: float = 50.0      # closed bank: activate + CAS
    row_conflict_ns: float = 64.0   # precharge + activate + CAS (17-17-17)
    bank_busy_ns: float = 30.0      # service time occupying the bank

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank

    def to_cycles(self, ns: float) -> int:
        return max(1, int(round(ns * self.clock_ghz)))


class DramModel:
    """Per-bank open-row state machine with busy-time queueing."""

    def __init__(self, config: DramConfig | None = None) -> None:
        self.config = config or DramConfig()
        banks = self.config.total_banks
        self._open_row = [-1] * banks
        self._bank_free_at = [0] * banks
        self.row_hits = 0
        self.row_conflicts = 0
        self.row_empties = 0
        self.total_latency = 0
        self.accesses = 0

    def _map(self, addr: int) -> tuple[int, int]:
        """Map a byte address to (bank, row).

        Line interleaving across channels/banks spreads streams, as real
        controllers do.
        """
        line = addr >> LINE_SHIFT
        bank = line % self.config.total_banks
        row = addr // (self.config.row_bytes * self.config.total_banks)
        return bank, row

    def access(self, addr: int, cycle: int) -> int:
        """Service a read/write at *cycle*; returns latency in core cycles."""
        config = self.config
        bank, row = self._map(addr)
        start = max(cycle, self._bank_free_at[bank])
        queue_delay = start - cycle

        open_row = self._open_row[bank]
        if open_row == row:
            service_ns = config.row_hit_ns
            self.row_hits += 1
        elif open_row < 0:
            service_ns = config.row_empty_ns
            self.row_empties += 1
        else:
            service_ns = config.row_conflict_ns
            self.row_conflicts += 1
        self._open_row[bank] = row

        service = config.to_cycles(service_ns)
        self._bank_free_at[bank] = start + config.to_cycles(
            config.bank_busy_ns
        )
        latency = queue_delay + service
        self.total_latency += latency
        self.accesses += 1
        return latency

    @property
    def average_latency_cycles(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0
