"""Experiment harness: runners, redundancy analysis, reporting."""

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
from repro.harness.runner import BenchmarkOutcome, ExperimentRunner

__all__ = [
    "BenchmarkOutcome",
    "ExperimentRunner",
    "LivePrfModel",
    "RedundancyProfile",
    "Table",
    "analyze_benchmark",
    "analyze_trace",
    "format_percent",
    "geometric_mean",
    "harmonic_mean",
]
