"""repro — reproduction of "Register Sharing for Equality Prediction".

Perais, Endo, Seznec — MICRO 2016.

The package implements the paper's contribution (RSEP: distance-predicted
register-equality speculation through rename-stage physical register
sharing) together with every substrate it is evaluated on: an 8-wide
out-of-order timing model per Table I, a TAGE front end, a three-level
cache hierarchy with prefetchers and DRAM, register renaming with ISRB
reference counting, D-VTAGE value prediction, and synthetic SPEC CPU2006
stand-in workloads.

Quick start::

    from repro import Simulator, MechanismConfig

    sim = Simulator()
    window = dict(warmup=8000, measure=20000)
    base = sim.run_benchmark("mcf", MechanismConfig.baseline(), **window)
    rsep = sim.run_benchmark("mcf", MechanismConfig.rsep_ideal(), **window)
    print(f"speedup: {rsep.ipc / base.ipc - 1.0:+.1%}")

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every figure.
"""

from repro.core.rsep import RsepConfig, RsepUnit
from repro.core.validation import ValidationMode
from repro.core.vp_engine import VpConfig, VpEngine
from repro.harness.sweep import SweepEngine, shared_engine
from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import SimulationResult, Simulator
from repro.pipeline.stats import Stats
from repro.predictors.distance import (
    DistancePredictor,
    DistancePredictorConfig,
)
from repro.predictors.dvtage import DVtageConfig, DVtagePredictor
from repro.sampling import SampledRun, SamplingConfig
from repro.workloads.spec2006 import benchmark_names, generate_trace

# The typed front door (DESIGN.md §10).  Imported last: repro.api builds
# on the harness/pipeline modules above.
from repro.api import (  # noqa: E402
    ExperimentSpec,
    RunResult,
    Session,
    StoreSpec,
    WindowSpec,
)

__version__ = "1.1.0"

__all__ = [
    "CoreConfig",
    "DVtageConfig",
    "DVtagePredictor",
    "DistancePredictor",
    "DistancePredictorConfig",
    "ExperimentSpec",
    "MechanismConfig",
    "Pipeline",
    "RsepConfig",
    "RsepUnit",
    "RunResult",
    "SampledRun",
    "SamplingConfig",
    "Session",
    "SimulationResult",
    "Simulator",
    "Stats",
    "StoreSpec",
    "SweepEngine",
    "ValidationMode",
    "VpConfig",
    "VpEngine",
    "WindowSpec",
    "__version__",
    "benchmark_names",
    "generate_trace",
    "shared_engine",
]
