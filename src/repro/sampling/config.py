"""Sampled-simulation configuration (DESIGN.md §8).

Interval sampling in the SMARTS tradition: the measurement window is cut
into fixed-size intervals, a *detail span* at the head of each interval
runs on the cycle-level pipeline, and the remainder is covered by the
functional warmer (:mod:`repro.sampling.warming`), which keeps every
stateful structure trained while skipping the scheduler entirely.

Follows the existing window conventions (DESIGN.md §2): the front
doors (``ExperimentSpec.from_env`` and the ``repro`` CLI) read the
sampled mode and its parameters from these variables, once; below
them a ``SamplingConfig`` travels as a value.

| variable             | default | meaning                             |
|----------------------|---------|-------------------------------------|
| ``REPRO_SAMPLING``   | unset   | enable interval sampling            |
| ``REPRO_INTERVAL``   | 18500   | instructions per sampling interval  |
| ``REPRO_DETAIL_RATIO`` | .0811 | fraction of each interval *measured*|
|                      |         | in cycle-level detail               |
| ``REPRO_DETAIL_WARMUP`` | 768  | detailed ramp before each measured  |
|                      |         | span (excluded from statistics)     |

A detail ratio of 1.0 is the *degenerate* configuration: the whole
window runs in detail, the warmer never fires, and the run is required
to be bit-identical to a plain full-detail run (``active`` is False, and
the golden-stats suite gates the controller's chunked loop directly).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SamplingConfig:
    """Everything that parameterises a sampled run."""

    enabled: bool = False
    #: Instructions per interval (ramp + detail span + warmed remainder).
    interval: int = 18500
    #: Fraction of each interval *measured* in cycle-level detail.
    detail_ratio: float = 0.0811
    #: Detailed ramp run before each measured span so the backend (ROB
    #: occupancy, outstanding misses) reaches steady state; excluded
    #: from all statistics.  SMARTS calls this detailed warming — it is
    #: short precisely because functional warming keeps every predictor
    #: and cache trained across the gap.
    detail_warmup: int = 768
    #: Confidence level of the reported IPC interval (0.90/0.95/0.99).
    confidence: float = 0.95
    #: Capture/restore µarch checkpoints through the trace store so
    #: repeated sweeps skip the warm-up warming entirely.
    checkpoints: bool = True

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if not 0.0 < self.detail_ratio <= 1.0:
            raise ValueError("detail_ratio must be in (0, 1]")
        if self.detail_warmup < 0:
            raise ValueError("detail_warmup must be non-negative")
        if self.confidence not in (0.90, 0.95, 0.99):
            raise ValueError(
                "confidence must be one of 0.90, 0.95, 0.99 (the "
                "supported normal critical values)"
            )

    # ------------------------------------------------------------------

    @property
    def detail_span(self) -> int:
        """Detailed instructions at the head of each interval."""
        span = round(self.interval * self.detail_ratio)
        return max(1, min(self.interval, span))

    @property
    def skip_span(self) -> int:
        """Functionally warmed instructions per interval."""
        return self.interval - self.detail_span

    @property
    def ramp_span(self) -> int:
        """Detailed-but-unmeasured ramp per interval (0 when degenerate).

        The ramp never exceeds the warmed gap it recovers from: with
        nothing skipped there is nothing to ramp back from.
        """
        return min(self.detail_warmup, self.skip_span)

    @property
    def active(self) -> bool:
        """True iff sampling would actually skip anything.

        The degenerate 100%-duty configuration is *inactive*: it runs
        the plain full-detail path (trivially bit-identical), and its
        cell fingerprint collapses onto the non-sampled one so sweep
        memos share the cell.
        """
        return self.enabled and self.skip_span > 0

    def fingerprint(self) -> str:
        """Cell-key component (joins the sweep-engine fingerprint)."""
        if not self.active:
            return "off"
        return (
            f"interval={self.interval},detail={self.detail_span},"
            f"ramp={self.ramp_span},confidence={self.confidence}"
        )

    # ------------------------------------------------------------------

    @classmethod
    def disabled(cls) -> "SamplingConfig":
        return cls()
