"""Synthetic workloads: program builder, kernels, SPEC'06 stand-ins, traces."""

from repro.workloads.builder import DataSegment, ProgramBuilder, RegAllocator
from repro.workloads.kernels import Kernel
from repro.workloads.spec2006 import (
    SPEC2006,
    BenchmarkSpec,
    BuiltBenchmark,
    benchmark_names,
    build_benchmark,
    generate_trace,
)
from repro.workloads.trace import (
    Machine,
    bits_to_float,
    execute,
    float_to_bits,
)

__all__ = [
    "SPEC2006",
    "BenchmarkSpec",
    "BuiltBenchmark",
    "DataSegment",
    "Kernel",
    "Machine",
    "ProgramBuilder",
    "RegAllocator",
    "benchmark_names",
    "bits_to_float",
    "build_benchmark",
    "execute",
    "float_to_bits",
    "generate_trace",
]
