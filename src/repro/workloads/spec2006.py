"""SPEC CPU2006 stand-in benchmarks.

SPEC'06 is proprietary and its binaries/inputs are unavailable here, so each
benchmark name is bound to a synthetic kernel mix calibrated to reproduce the
*stream properties* the paper reports for that benchmark: value-redundancy
profile (Fig. 1), which mechanism captures it (Fig. 4/5), zero density,
branch behaviour and memory footprint.  See DESIGN.md §2 for the
substitution rationale; EXPERIMENTS.md records paper-vs-measured shapes.

Different random seeds play the role of the paper's per-benchmark
checkpoints: the code is identical but data contents/layout differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.common.rng import XorShift64
from repro.isa.program import Program
from repro.workloads import kernels as K
from repro.workloads.builder import MemoryImage, ProgramBuilder
from repro.workloads.columnar import ColumnarTrace
from repro.workloads.trace import Machine, execute

KernelRecipe = Callable[[ProgramBuilder, XorShift64], list[K.Kernel]]


@dataclass(frozen=True)
class BenchmarkSpec:
    """One named benchmark: its suite, behavioural intent and kernel mix."""

    name: str
    suite: str  # "int" or "fp"
    description: str
    recipe: KernelRecipe


@dataclass
class BuiltBenchmark:
    """A benchmark assembled for one seed: program plus initial memory."""

    spec: BenchmarkSpec
    seed: int
    program: Program
    memory_image: MemoryImage

    def machine(self) -> Machine:
        return Machine(self.memory_image)


def _assemble(spec: BenchmarkSpec, seed: int) -> BuiltBenchmark:
    """Assemble *spec* into a program for one seed."""
    builder = ProgramBuilder(spec.name)
    rng = XorShift64(0xC0FFEE ^ (seed * 0x9E3779B97F4A7C15))
    kernel_list = spec.recipe(builder, rng)

    entry = builder.fresh_label("main")
    builder.b(entry)
    for kernel in kernel_list:
        if kernel.functions is not None:
            kernel.functions()
    builder.label(entry)
    for kernel in kernel_list:
        kernel.setup()
    outer = builder.label(builder.fresh_label("outer"))
    for kernel in kernel_list:
        kernel.body()
    builder.b(outer)
    builder.halt()

    program = builder.build()
    return BuiltBenchmark(spec, seed, program, builder.data.image)


def build_benchmark(name: str, seed: int = 1) -> BuiltBenchmark:
    """Assemble the named benchmark with the given checkpoint seed."""
    if name not in SPEC2006:
        raise KeyError(f"unknown benchmark {name!r}; see benchmark_names()")
    return _assemble(SPEC2006[name], seed)


def generate_trace(
    name: str, num_instructions: int, seed: int = 1,
) -> ColumnarTrace:
    """Assemble and functionally execute a benchmark into a trace."""
    built = build_benchmark(name, seed)
    return execute(built.program, num_instructions, built.machine())


def benchmark_names(suite: str | None = None) -> list[str]:
    """All benchmark names, optionally filtered by suite ("int"/"fp")."""
    return [
        spec.name
        for spec in SPEC2006.values()
        if suite is None or spec.suite == suite
    ]


#: The representative subset the figure benches and CLI default to:
#: every behaviour class the paper discusses — RSEP wins (mcf, hmmer,
#: dealII, omnetpp), VP wins (perlbench, wrf, zeusmp), overlap
#: (libquantum, xalancbmk), zero/ILP (gamess), neutral (gobmk, lbm),
#: FP streaming (bwaves).
REPRESENTATIVE: tuple[str, ...] = (
    "perlbench", "mcf", "gobmk", "hmmer", "libquantum", "omnetpp",
    "xalancbmk", "bwaves", "gamess", "zeusmp", "dealII", "lbm", "wrf",
)


def representative_names() -> list[str]:
    """The 13-benchmark representative mix (see :data:`REPRESENTATIVE`)."""
    return list(REPRESENTATIVE)


# ---------------------------------------------------------------------------
# Benchmark recipes
# ---------------------------------------------------------------------------
# Shorthand used below: RSEP-only behaviour = equal results at stable
# distance with irregular values (ring_chase, xor_ring, stack_spill);
# VP-only = strided/constant value chains (stride_chain, strided_counters);
# both = loop-invariant loads (const_reload); neither = xorshift noise.
# Serial-chain kernels set the baseline IPC into the SPEC-like 0.6-2.5
# band so speculation has the same headroom it has in the paper.


def _perlbench(b, rng):
    # VP-dominant; RSEP coverage exists but is subsumed by VP (§VI.A.1:
    # "in a single case, perlbench, RSEP is redundant with VP").
    return [
        K.stride_chain(b, rng, chain=30, reps=1),
        K.lcg_noise(b, rng, reps=4),
        K.stack_spill(b, rng, reps=2, spacing=4, vp_friendly=True),
        K.byte_scan(b, rng, reps=2),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=1),
        K.call_ret(b, rng, reps=1, functions=2),
    ]


def _bzip2(b, rng):
    # Byte-entropy coding: hard branches; equal-value pairs whose producer
    # is slow (the critical-path lengthening / sampling-threshold hazard
    # of Fig. 6).
    return [
        K.late_producer_pair(b, rng, reps=2, spacing=3),
        K.byte_scan(b, rng, reps=3, alphabet=32),
        K.branchy(b, rng, reps=2, random_branches=2, pattern_branches=1),
        K.stride_chain(b, rng, chain=6, reps=1),
        K.lcg_noise(b, rng, reps=1),
    ]


def _gcc(b, rng):
    return [
        K.stack_spill(b, rng, reps=1, spacing=6),
        K.const_reload(b, rng, fields=2, reps=1),
        K.stream_sum(b, rng, reps=2),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=1),
        K.mov_shuffle(b, rng, reps=1, chain=2),
        K.stride_chain(b, rng, chain=8, reps=1),
        K.lcg_noise(b, rng, reps=2),
    ]


def _mcf(b, rng):
    # A hot ring chase (serial, L1-resident, RSEP-collapsible) racing a
    # cold large-footprint chase (serial, miss-bound): RSEP removes the
    # longer hot chain and exposes the cold one.  Values are irregular so
    # VP captures little — "in mcf, almost only loads are predicted".
    return [
        K.pointer_chase(b, rng, nodes=4096, reps=1, spacing=2,
                        redundant=True),
        K.ring_chase(b, rng, ring_nodes=8, reps=20, payload=False),
        K.lcg_noise(b, rng, reps=2),
    ]


def _gobmk(b, rng):
    return [
        K.branchy(b, rng, reps=2, random_branches=2, pattern_branches=1),
        K.call_ret(b, rng, reps=1, functions=2),
        K.lcg_noise(b, rng, reps=2),
        K.byte_scan(b, rng, reps=1),
    ]


def _hmmer(b, rng):
    # A long serial XOR recurrence (period two iterations) against an
    # almost-as-long unpredictable xorshift chain: RSEP collapses the
    # former and the latter becomes the bound.  The pair distance spans
    # the whole body twice, beyond a 32-entry FIFO history but inside a
    # 128-entry one (§VI.A.2).
    return [
        K.xor_ring(b, rng, chain=23, reps=1),
        K.lcg_noise(b, rng, reps=5),
        K.stack_spill(b, rng, reps=1, spacing=8),
    ]


def _sjeng(b, rng):
    return [
        K.branchy(b, rng, reps=2, random_branches=2, pattern_branches=2),
        K.call_ret(b, rng, reps=1, functions=3),
        K.lcg_noise(b, rng, reps=2),
        K.mov_shuffle(b, rng, reps=1, chain=2),
    ]


def _libquantum(b, rng):
    # A serial chain through loop-invariant struct fields: both RSEP and
    # VP collapse it (RSEP a little further thanks to the hot ring), plus
    # sparse zeros in long runs for zero-prediction potential (§VI.A.1).
    return [
        K.const_chain(b, rng, links=3),
        K.const_chain(b, rng, links=3, zero_fields=True),
        K.stride_chain(b, rng, chain=17, reps=1),
        K.zero_loads(b, rng, reps=1, zero_density=0.25, zero_run=24),
        K.lcg_noise(b, rng, reps=4),
    ]


def _h264ref(b, rng):
    return [
        K.byte_scan(b, rng, reps=3, alphabet=24),
        K.stream_sum(b, rng, reps=2),
        K.stride_chain(b, rng, chain=8, reps=1),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=1),
    ]


def _omnetpp(b, rng):
    return [
        K.ring_chase(b, rng, ring_nodes=6, reps=11, payload_branch=True),
        K.const_reload(b, rng, fields=1, reps=1),
        K.pointer_chase(b, rng, nodes=16384, reps=1, spacing=2),
        K.stack_spill(b, rng, reps=1, spacing=6),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=0),
    ]


def _astar(b, rng):
    return [
        K.pointer_chase(b, rng, nodes=8192, reps=2, spacing=3,
                        redundant=False),
        K.branchy(b, rng, reps=1, random_branches=2, pattern_branches=0),
        K.lcg_noise(b, rng, reps=2),
    ]


def _xalancbmk(b, rng):
    # Strided chains (VP), an interleaved stride/spill chain plus a hot
    # ring feeding a hard branch (RSEP), and plenty of moves: both
    # mechanisms win and combine (Fig. 4), and the spill distances need a
    # deep FIFO history (§VI.A.2).
    return [
        K.stride_chain(b, rng, chain=34, reps=1),
        K.mixed_chain(b, rng, stride_links=8, spills=2, segment=4),
        K.ring_chase(b, rng, ring_nodes=6, reps=6, payload_branch=True),
        K.mov_shuffle(b, rng, reps=2, chain=3),
        K.lcg_noise(b, rng, reps=5),
    ]


def _bwaves(b, rng):
    return [
        K.fp_stencil(b, rng, elements=32768, reps=3, zero_density=0.02,
                     serial_acc=True, acc_steps=3),
        K.stream_sum(b, rng, reps=1),
        K.lcg_noise(b, rng, reps=2),
    ]


def _gamess(b, rng):
    # Wide, independent work (one of the two benchmarks that often retire
    # 8 eligible instructions per cycle, §IV.D.2) plus genuine zeros in
    # long runs — the zero-prediction beneficiary.
    return [
        K.fp_stencil(b, rng, elements=2048, reps=3, zero_density=0.15,
                     zero_run=16),
        K.zero_loads(b, rng, reps=2, zero_density=0.3, zero_run=96),
        K.const_chain(b, rng, links=2, zero_fields=True),
        K.lcg_noise(b, rng, reps=3),
        K.strided_counters(b, rng, counters=2, reps=1),
    ]


def _milc(b, rng):
    return [
        K.fp_stencil(b, rng, elements=8192, reps=3, zero_density=0.12,
                     zero_run=32, serial_acc=True, acc_steps=3),
        K.zero_loads(b, rng, reps=1, zero_density=0.2, zero_run=32),
        K.lcg_noise(b, rng, reps=3),
    ]


def _zeusmp(b, rng):
    # ~20% zero results (Fig. 1) in long runs, plus strided chains: VP
    # ahead of RSEP (Fig. 4).
    return [
        K.fp_stencil(b, rng, elements=4096, reps=3, zero_density=0.42,
                     zero_run=96, serial_acc=True, acc_steps=3),
        K.zero_loads(b, rng, reps=2, zero_density=0.35, zero_run=96,
                     high_bits_density=0.1),
        K.stride_chain(b, rng, chain=38, reps=1),
        K.lcg_noise(b, rng, reps=3),
    ]


def _gromacs(b, rng):
    return [
        K.stride_chain(b, rng, chain=32, reps=1),
        K.lcg_noise(b, rng, reps=5),
        K.fp_stencil(b, rng, elements=2048, reps=2, zero_density=0.05,
                     serial_acc=True),
        K.stream_sum(b, rng, reps=1),
    ]


def _cactusadm(b, rng):
    return [
        K.fp_stencil(b, rng, elements=8192, reps=4, zero_density=0.45,
                     zero_run=64, serial_acc=True, acc_steps=3),
        K.zero_loads(b, rng, reps=1, zero_density=0.3, zero_run=48),
        K.lcg_noise(b, rng, reps=2),
    ]


def _leslie3d(b, rng):
    return [
        K.fp_stencil(b, rng, elements=8192, reps=3, zero_density=0.15,
                     zero_run=32, serial_acc=True, acc_steps=3),
        K.stream_sum(b, rng, reps=1),
        K.strided_counters(b, rng, counters=2, reps=1),
        K.lcg_noise(b, rng, reps=2),
    ]


def _namd(b, rng):
    return [
        K.fp_stencil(b, rng, elements=4096, reps=3, zero_density=0.02),
        K.lcg_noise(b, rng, reps=3),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=0),
    ]


def _dealii(b, rng):
    # The flagship non-load-redundancy benchmark: a long serial XOR
    # recurrence whose values alternate with period two — RSEP collapses
    # it, VP cannot — plus enough moves for a visible move-elimination
    # speedup (§VI.A.1).
    return [
        K.xor_ring(b, rng, chain=22, reps=1, with_move=True),
        K.lcg_noise(b, rng, reps=5),
        K.mov_shuffle(b, rng, reps=1, chain=2),
        K.const_reload(b, rng, fields=2, reps=1),
        K.byte_scan(b, rng, reps=1),
    ]


def _soplex(b, rng):
    return [
        K.stream_sum(b, rng, reps=2),
        K.pointer_chase(b, rng, nodes=2048, reps=1, spacing=2),
        K.fp_stencil(b, rng, elements=4096, reps=1, zero_density=0.1),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=0),
    ]


def _povray(b, rng):
    return [
        K.fp_stencil(b, rng, elements=4096, reps=2, zero_density=0.02,
                     fdiv_every=2),
        K.call_ret(b, rng, reps=1, functions=2),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=0),
        K.lcg_noise(b, rng, reps=1),
    ]


def _calculix(b, rng):
    return [
        K.fp_stencil(b, rng, elements=2048, reps=2, zero_density=0.1,
                     fdiv_every=3, serial_acc=True, acc_steps=2),
        K.stride_chain(b, rng, chain=6, reps=1),
        K.stream_sum(b, rng, reps=1),
        K.lcg_noise(b, rng, reps=2),
    ]


def _gemsfdtd(b, rng):
    return [
        K.fp_stencil(b, rng, elements=16384, reps=3, zero_density=0.1,
                     zero_run=32, serial_acc=True, acc_steps=3),
        K.stream_sum(b, rng, reps=2),
        K.zero_loads(b, rng, reps=1, zero_density=0.15, zero_run=32),
        K.lcg_noise(b, rng, reps=2),
    ]


def _tonto(b, rng):
    return [
        K.fp_stencil(b, rng, elements=4096, reps=2, zero_density=0.05),
        K.call_ret(b, rng, reps=1, functions=2),
        K.redundant_compute(b, rng, reps=1, spacing=5),
        K.stride_chain(b, rng, chain=6, reps=1),
        K.lcg_noise(b, rng, reps=2),
    ]


def _lbm(b, rng):
    # Wide independent FP work: the other dense-commit-group benchmark
    # (kept deliberately ILP-rich, §IV.D.2); long zero runs avoid
    # transient distance noise.
    return [
        K.fp_stencil(b, rng, elements=32768, reps=4, zero_density=0.02),
        K.strided_counters(b, rng, counters=2, reps=1),
    ]


def _wrf(b, rng):
    # VP clearly ahead of RSEP (Fig. 4): long strided chains plus
    # zero runs.
    return [
        K.stride_chain(b, rng, chain=34, reps=1),
        K.lcg_noise(b, rng, reps=5),
        K.fp_stencil(b, rng, elements=4096, reps=2, zero_density=0.12,
                     zero_run=16, serial_acc=True),
        K.const_reload(b, rng, fields=2, reps=1),
    ]


def _sphinx3(b, rng):
    return [
        K.fp_stencil(b, rng, elements=2048, reps=2, zero_density=0.05,
                     serial_acc=True),
        K.byte_scan(b, rng, reps=2),
        K.stream_sum(b, rng, reps=1),
        K.branchy(b, rng, reps=1, random_branches=1, pattern_branches=1),
    ]


def _spec(name: str, suite: str, description: str,
          recipe: KernelRecipe) -> BenchmarkSpec:
    return BenchmarkSpec(name, suite, description, recipe)


SPEC2006: dict[str, BenchmarkSpec] = {
    spec.name: spec
    for spec in [
        _spec("perlbench", "int", "VP-dominant; RSEP fully overlapped",
              _perlbench),
        _spec("bzip2", "int", "hard branches; critical-path RSEP pairs",
              _bzip2),
        _spec("gcc", "int", "mixed integer behaviour", _gcc),
        _spec("mcf", "int", "memory-bound; RSEP-only redundant loads",
              _mcf),
        _spec("gobmk", "int", "branchy search; little redundancy", _gobmk),
        _spec("hmmer", "int", "ALU redundancy at long stable distances",
              _hmmer),
        _spec("sjeng", "int", "branchy search with calls", _sjeng),
        _spec("libquantum", "int", "invariant reloads; zeros; both win",
              _libquantum),
        _spec("h264ref", "int", "byte scanning and strides", _h264ref),
        _spec("omnetpp", "int", "heap traversal plus spills", _omnetpp),
        _spec("astar", "int", "pointer chase without redundancy", _astar),
        _spec("xalancbmk", "int", "deep-distance spills, moves, strides",
              _xalancbmk),
        _spec("bwaves", "fp", "streaming FP, little redundancy", _bwaves),
        _spec("gamess", "fp", "wide ILP; real zeros", _gamess),
        _spec("milc", "fp", "FP stencil with sparse zeros", _milc),
        _spec("zeusmp", "fp", "~20% zero results; VP ahead", _zeusmp),
        _spec("gromacs", "fp", "strided FP work", _gromacs),
        _spec("cactusADM", "fp", "~20% zero results", _cactusadm),
        _spec("leslie3d", "fp", "FP stencil, moderate zeros", _leslie3d),
        _spec("namd", "fp", "dense FP, low redundancy", _namd),
        _spec("dealII", "fp", "non-load RSEP redundancy; move elim",
              _dealii),
        _spec("soplex", "fp", "sparse algebra mix", _soplex),
        _spec("povray", "fp", "FP with divides and calls", _povray),
        _spec("calculix", "fp", "FP with divides, strides", _calculix),
        _spec("GemsFDTD", "fp", "large-footprint FP streaming", _gemsfdtd),
        _spec("tonto", "fp", "FP with calls and recompute", _tonto),
        _spec("lbm", "fp", "wide independent FP; dense commit groups",
              _lbm),
        _spec("wrf", "fp", "stride-dominated; VP ahead", _wrf),
        _spec("sphinx3", "fp", "FP plus byte scanning", _sphinx3),
    ]
}
