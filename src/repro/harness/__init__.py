"""Experiment harness: the sweep engine (:mod:`repro.harness.sweep`),
throughput measurement (:mod:`repro.harness.perf`), redundancy analysis
and reporting.  Experiments enter through :class:`repro.api.Session`."""

from repro.harness.redundancy import (
    LivePrfModel,
    RedundancyProfile,
    analyze_benchmark,
    analyze_trace,
)
from repro.harness.reporting import (
    Table,
    format_percent,
    geometric_mean,
    harmonic_mean,
)

__all__ = [
    "LivePrfModel",
    "RedundancyProfile",
    "Table",
    "analyze_benchmark",
    "analyze_trace",
    "format_percent",
    "geometric_mean",
    "harmonic_mean",
]
