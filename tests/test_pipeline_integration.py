"""Integration tests: the full pipeline on real traces, plus the frontend
branch unit, workloads and harness."""

import pytest

from repro.api.session import Session
from repro.api.spec import ExperimentSpec, WindowSpec
from repro.frontend.branch_unit import BranchUnit
from repro.common.history import GlobalHistory, PathHistory
from repro.common.rng import XorShift64
from repro.harness.redundancy import analyze_benchmark, analyze_trace
from repro.harness.reporting import Table, geometric_mean, harmonic_mean
from repro.harness.sweep import SweepEngine
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import Simulator
from repro.workloads.builder import ProgramBuilder
from repro.workloads.spec2006 import (
    SPEC2006,
    benchmark_names,
    build_benchmark,
    generate_trace,
)
from repro.workloads.trace import Machine, execute
from repro.isa.registers import x


def chain_trace(length=6000):
    """A simple strided loop trace for pipeline tests."""
    b = ProgramBuilder("chain")
    b.movz(x(1), 0)
    b.movz(x(2), 7)
    head = b.label(b.fresh_label("head"))
    for _ in range(4):
        b.addi(x(1), x(1), 3)
        b.add(x(3), x(1), x(2))
    b.b(head)
    b.halt()
    return execute(b.build(), length, Machine(dict(b.data.image)))


class TestBranchUnit:
    def make(self):
        history, path = GlobalHistory(), PathHistory()
        return BranchUnit(history, path, XorShift64(1))

    def test_conditional_flow(self):
        unit = self.make()
        trace = generate_trace("gobmk", 4000, seed=1)
        mispredicts = 0
        for d in trace:
            if d.is_branch:
                outcome = unit.fetch_branch(d)
                mispredicts += outcome.mispredicted
                unit.commit_branch(outcome)
        assert unit.conditional_branches > 100
        # gobmk's random branches guarantee some mispredicts, its loop
        # branches guarantee the rate is far below 50%.
        assert 0 < mispredicts < unit.conditional_branches * 0.45

    def test_squash_restores_state(self):
        unit = self.make()
        trace = generate_trace("perlbench", 2000, seed=1)
        branches = [d for d in trace if d.is_branch]
        outcome = unit.fetch_branch(branches[0])
        snapshot_after = unit.history.snapshot()
        for d in branches[1:10]:
            unit.fetch_branch(d)
        unit.squash_to(unit.fetch_branch(branches[10]))
        # Restoring must rebuild the *entire* fold state from the raw-bit
        # checkpoint: the full (raw, folds) snapshot right before a fetch
        # must come back exactly after squashing that fetch.
        full_before = unit.history.snapshot()
        check = unit.fetch_branch(branches[10])
        unit.squash_to(check)
        assert unit.history.snapshot_raw() == check.history_snapshot
        assert unit.history.snapshot() == full_before


class TestWorkloads:
    def test_all_benchmarks_assemble_and_run(self):
        for name in benchmark_names():
            trace = generate_trace(name, 1500, seed=2)
            assert len(trace) == 1500, name

    def test_suite_split(self):
        assert len(benchmark_names()) == 29
        assert len(benchmark_names("int")) == 12
        assert len(benchmark_names("fp")) == 17

    def test_seeds_change_data_not_shape(self):
        trace_a = generate_trace("mcf", 2000, seed=1)
        trace_b = generate_trace("mcf", 2000, seed=2)
        pcs_a = [d.pc for d in trace_a]
        pcs_b = [d.pc for d in trace_b]
        values_a = [d.result for d in trace_a if d.produces_result()]
        values_b = [d.result for d in trace_b if d.produces_result()]
        assert pcs_a == pcs_b          # same code path
        assert values_a != values_b    # different checkpoint data

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(KeyError):
            build_benchmark("spec2017")

    def test_descriptions_present(self):
        for spec in SPEC2006.values():
            assert spec.description
            assert spec.suite in ("int", "fp")


class TestRedundancyAnalysis:
    def test_zero_heavy_benchmarks(self):
        zeusmp = analyze_benchmark("zeusmp", 12000)
        gobmk = analyze_benchmark("gobmk", 12000)
        assert zeusmp.zero_fraction > 0.05          # Fig. 1 shape (see EXPERIMENTS.md)
        assert zeusmp.zero_fraction > gobmk.zero_fraction

    def test_reuse_rich_benchmarks(self):
        libquantum = analyze_benchmark("libquantum", 12000)
        assert libquantum.in_prf_fraction > 0.10

    def test_cactusadm_is_zero_heavy(self):
        cactus = analyze_benchmark("cactusADM", 12000)
        assert cactus.zero_fraction > 0.05           # Fig. 1 shape

    def test_most_benchmarks_are_redundant(self):
        # "In most cases, the ratio is around or greater than 5%" (Fig. 1).
        rich = sum(
            analyze_benchmark(name, 12000).total_redundant_fraction > 0.05
            for name in benchmark_names()
        )
        assert rich >= 15

    def test_zero_idioms_excluded(self):
        profile = analyze_benchmark("dealII", 8000)
        assert profile.committed == 8000
        # Idioms are tracked separately, never double counted as zeros.
        assert profile.zero_idioms >= 0
        total = (
            profile.zero_load + profile.zero_other
            + profile.in_prf_load + profile.in_prf_other
            + profile.zero_idioms
        )
        assert total <= profile.producers

    def test_analyze_trace_direct(self):
        profile = analyze_trace(chain_trace(3000))
        assert profile.committed == 3000


class TestReporting:
    def test_means(self):
        assert harmonic_mean([1.0, 1.0]) == 1.0
        assert harmonic_mean([]) == 0.0
        assert geometric_mean([2.0, 8.0]) == 4.0

    def test_table_rendering(self):
        table = Table(["bench", "ipc"])
        table.add_row("mcf", 0.75)
        text = table.render()
        assert "mcf" in text and "0.750" in text


class TestPipelineBaseline:
    def test_commits_every_instruction_once(self):
        trace = chain_trace(5000)
        pipeline = Pipeline(trace, mechanisms=MechanismConfig.baseline())
        stats = pipeline.run(4000, warmup=500)
        assert stats.committed == 4000

    def test_ipc_bounded_by_width(self):
        trace = chain_trace(5000)
        pipeline = Pipeline(trace, mechanisms=MechanismConfig.baseline())
        stats = pipeline.run(4000, warmup=500)
        assert 0.1 < stats.ipc <= 8.0

    def test_trace_exhaustion_terminates(self):
        trace = chain_trace(800)
        pipeline = Pipeline(trace, mechanisms=MechanismConfig.baseline())
        stats = pipeline.run(10_000, warmup=0)
        assert stats.committed == 800

    def test_serial_chain_bounds_ipc(self):
        # A pure dependent chain cannot exceed 1 ALU op per cycle by much.
        b = ProgramBuilder("serial")
        b.movz(x(1), 1)
        head = b.label(b.fresh_label("head"))
        for _ in range(8):
            b.addi(x(1), x(1), 1)
        b.b(head)
        b.halt()
        trace = execute(b.build(), 4000, Machine())
        stats = Pipeline(trace).run(3000, warmup=500)
        assert stats.ipc < 1.5

    def test_independent_work_reaches_high_ipc(self):
        b = ProgramBuilder("wide")
        regs = [x(i) for i in range(1, 9)]
        for reg in regs:
            b.movz(reg, 0)
        head = b.label(b.fresh_label("head"))
        for reg in regs:
            b.addi(reg, reg, 1)
        b.b(head)
        b.halt()
        trace = execute(b.build(), 6000, Machine())
        stats = Pipeline(trace).run(4000, warmup=1000)
        assert stats.ipc > 3.0


class TestPipelineMechanisms:
    def test_rsep_collapses_xor_ring(self):
        trace = generate_trace("dealII", 30000, seed=1)
        base = Pipeline(trace, mechanisms=MechanismConfig.baseline())
        rsep = Pipeline(trace, mechanisms=MechanismConfig.rsep_ideal())
        base_stats = base.run(16000, warmup=8000)
        rsep_stats = rsep.run(16000, warmup=8000)
        assert rsep_stats.ipc > base_stats.ipc * 1.04
        assert rsep_stats.dist_pred > 0

    def test_vp_collapses_stride_chain(self):
        # A serial strided chain is the canonical D-VTAGE win: breaking
        # the loop-carried dependence lifts IPC well above the baseline.
        from repro.common.rng import XorShift64
        from repro.workloads import kernels as K

        b = ProgramBuilder("stride-dominated")
        rng = XorShift64(17)
        chain = K.stride_chain(b, rng, chain=12)
        noise = K.lcg_noise(b, rng, reps=1)
        entry = b.fresh_label("main")
        b.b(entry)
        b.label(entry)
        chain.setup(), noise.setup()
        loop = b.label(b.fresh_label("outer"))
        chain.body(), noise.body()
        b.b(loop)
        b.halt()
        trace = execute(b.build(), 30000, Machine(dict(b.data.image)))

        base = Pipeline(trace, mechanisms=MechanismConfig.baseline())
        vp = Pipeline(trace, mechanisms=MechanismConfig.value_prediction())
        base_stats = base.run(16000, warmup=8000)
        vp_stats = vp.run(16000, warmup=8000)
        assert vp_stats.ipc > base_stats.ipc * 1.10
        assert vp_stats.value_pred > 0

    def test_rsep_accuracy_above_paper_floor(self):
        # §VI.B: accuracy always greater than 99.5%.
        trace = generate_trace("mcf", 30000, seed=1)
        pipeline = Pipeline(trace, mechanisms=MechanismConfig.rsep_ideal())
        stats = pipeline.run(16000, warmup=8000)
        assert stats.dist_pred > 200
        assert stats.rsep_accuracy > 0.99

    def test_zero_idiom_elimination_in_baseline(self):
        b = ProgramBuilder("idioms")
        head = b.label(b.fresh_label("head"))
        b.eor(x(1), x(2), x(2))
        b.addi(x(2), x(2), 1)
        b.b(head)
        b.halt()
        trace = execute(b.build(), 3000, Machine())
        stats = Pipeline(trace).run(2000, warmup=500)
        assert stats.zero_idiom_elim > 500

    def test_move_elimination_counts(self):
        trace = generate_trace("dealII", 20000, seed=1)
        pipeline = Pipeline(
            trace, mechanisms=MechanismConfig.move_elimination()
        )
        stats = pipeline.run(10000, warmup=6000)
        assert stats.move_elim > 0

    def test_combined_mechanisms_coverage_disjoint(self):
        trace = generate_trace("libquantum", 30000, seed=1)
        pipeline = Pipeline(trace, mechanisms=MechanismConfig.rsep_plus_vp())
        stats = pipeline.run(16000, warmup=8000)
        covered = (
            stats.zero_idiom_elim + stats.move_elim + stats.zero_pred
            + stats.dist_pred + stats.value_pred
        )
        assert covered <= stats.committed

    def test_validation_mode_costs_ordered(self):
        # Fig. 6: ideal >= any-FU >= lock-FU on load-heavy code.
        from repro.core.validation import ValidationMode

        trace = generate_trace("mcf", 30000, seed=1)
        ipcs = {}
        for mode in (
            ValidationMode.IDEAL,
            ValidationMode.REISSUE_ANY_FU,
            ValidationMode.REISSUE_LOCK_FU,
        ):
            mech = MechanismConfig.rsep_validation(mode)
            stats = Pipeline(trace, mechanisms=mech).run(14000, warmup=8000)
            ipcs[mode] = stats.ipc
        assert ipcs[ValidationMode.IDEAL] >= ipcs[
            ValidationMode.REISSUE_ANY_FU
        ] * 0.995
        assert ipcs[ValidationMode.REISSUE_ANY_FU] >= ipcs[
            ValidationMode.REISSUE_LOCK_FU
        ] * 0.99


class TestPipelineInvariants:
    def test_no_preg_leak_under_squashes(self):
        # Run a squash-heavy configuration and verify every physical
        # register is either free or architecturally reachable at the end.
        trace = generate_trace("soplex", 24000, seed=1)
        pipeline = Pipeline(trace, mechanisms=MechanismConfig.rsep_plus_vp())
        pipeline.run(12000, warmup=6000)
        free = pipeline.free_list.free_int + pipeline.free_list.free_fp
        inflight_dests = sum(
            1 for op in pipeline.rob
            if op.allocated
        )
        mapped = len(
            set(pipeline.rename_map.mapped_pregs()) - {pipeline.zero_preg}
        )
        total = pipeline.config.int_pregs + pipeline.config.fp_pregs
        # mapped + free + (allocated to in-flight but not yet mapped-over)
        # must cover the whole file; sharing makes mapped an overestimate
        # only when two arch regs point at one preg.
        assert free + mapped + inflight_dests >= total - 2
        assert free >= 0

    def test_determinism(self):
        trace = generate_trace("omnetpp", 16000, seed=3)
        first = Pipeline(
            trace, mechanisms=MechanismConfig.rsep_ideal(), seed=5
        ).run(8000, warmup=4000)
        second = Pipeline(
            trace, mechanisms=MechanismConfig.rsep_ideal(), seed=5
        ).run(8000, warmup=4000)
        assert first.cycles == second.cycles
        assert first.dist_pred == second.dist_pred

    def test_memory_order_violations_recovered(self):
        trace = generate_trace("xalancbmk", 20000, seed=1)
        pipeline = Pipeline(trace, mechanisms=MechanismConfig.baseline())
        stats = pipeline.run(10000, warmup=5000)
        assert stats.committed >= 10000  # violations squash but recover


class TestSimulatorAndRunner:
    def test_simulator_caches_traces(self):
        simulator = Simulator()
        simulator.run_benchmark("gcc", MechanismConfig.baseline(),
                                warmup=500, measure=1000)
        simulator.run_benchmark("gcc", MechanismConfig.rsep_ideal(),
                                warmup=500, measure=1000)
        assert len(simulator._trace_cache) == 1

    def test_runner_speedup_query(self):
        result = Session().run(ExperimentSpec(
            benchmarks=["hmmer"],
            mechanisms=[
                MechanismConfig.baseline(), MechanismConfig.rsep_ideal()
            ],
            window=WindowSpec(warmup=8000, measure=20000),
        ))
        speedup = result.speedup("hmmer", "rsep")
        assert speedup > 0.02

    def test_runner_memoizes(self):
        session = Session(engine=SweepEngine(
            simulator=Simulator(trace_store=None)
        ))
        spec = ExperimentSpec(
            benchmarks=["gcc"], mechanisms=[MechanismConfig.baseline()],
            window=WindowSpec(warmup=500, measure=1000),
        )
        first = session.run(spec)
        second = session.run(spec)
        assert session.engine.cell_misses == 1
        assert session.engine.cell_hits == 1
        assert second.digest() == first.digest()

    def test_simulator_holds_one_benchmarks_traces(self, monkeypatch):
        # Benchmark-major sweeps: each of the 4 traces is interpreted
        # once, every seed of the current benchmark stays cached, and no
        # trace of another benchmark is held when one is interpreted.
        import repro.pipeline.simulator as simulator_module

        simulator = Simulator(trace_store=None)
        held_while_interpreting = []

        def counting_execute(program, instructions, machine=None):
            held_while_interpreting.append(
                {key[0] for key in simulator._trace_cache}
            )
            return execute(program, instructions, machine)

        monkeypatch.setattr(simulator_module, "execute", counting_execute)
        Session(engine=SweepEngine(simulator=simulator)).run(ExperimentSpec(
            benchmarks=["mcf", "hmmer"],
            mechanisms=[
                MechanismConfig.baseline(), MechanismConfig.rsep_realistic()
            ],
            seeds=(1, 2), window=WindowSpec(warmup=200, measure=800),
        ))
        assert held_while_interpreting == [set(), {"mcf"}, set(), {"hmmer"}]
        assert sorted(
            (benchmark, seed)
            for benchmark, seed, _ in simulator._trace_cache
        ) == [("hmmer", 1), ("hmmer", 2)]

    def test_core_config_redirect_derivation(self):
        config = CoreConfig()
        assert (
            config.redirect_delay + config.frontend_depth + 1
            == config.mispredict_penalty
        )


class TestGeneratedStages:
    def test_code_cache_shared_per_fingerprint(self):
        from repro.pipeline import genrename

        config = CoreConfig()
        first = genrename.compiled_stages(
            config, MechanismConfig.rsep_realistic()
        )
        second = genrename.compiled_stages(
            config, MechanismConfig.rsep_realistic()
        )
        assert first[0] is second[0] and first[1] is second[1]
        other = genrename.compiled_stages(config, MechanismConfig.baseline())
        assert other[0] is not first[0]
