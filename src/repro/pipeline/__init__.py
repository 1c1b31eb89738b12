"""The cycle-level pipeline: configuration, core, simulator, statistics."""

from repro.pipeline.config import CoreConfig, MechanismConfig
from repro.pipeline.core import InflightOp, Pipeline, PipelineError
from repro.pipeline.simulator import SimulationResult, Simulator
from repro.pipeline.stats import Stats

__all__ = [
    "CoreConfig",
    "InflightOp",
    "MechanismConfig",
    "Pipeline",
    "PipelineError",
    "SimulationResult",
    "Simulator",
    "Stats",
]
