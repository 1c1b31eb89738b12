"""Experiment harness: the sweep engine (:mod:`repro.harness.sweep`),
redundancy analysis and reporting.  Experiments enter through
:class:`repro.api.Session`; simulator throughput is timed per stage by
``repro profile`` (:mod:`repro.obs.profile`)."""

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
