"""The exact perf gate: calls into this package per fixed cell.

A wall-clock floor follows the host, not the program: on a 2-core
host, three back-to-back KIPS readings of one unchanged build spread by
38-44%.  The number of Python calls a fixed cell makes into this
package repeats exactly, and it tracks what caps the windows the figures
can afford (DESIGN.md §4): a stage that does more work per instruction
makes more calls.  So this gate runs a fixed set of cells in a fresh
interpreter and requires each cell's count to equal its pin.

What counts: calls to functions whose code lives in ``src/repro`` or was
compiled from a string by it (the generated rename and issue loops, the
generated predictor lookups, dataclass methods).  Builtins and the
standard library do not count.  Only simulation is profiled: the trace
is built and the pipeline constructed first, since construction
compiles each configuration's generated stages once per process.  A
trace materialises its ``DynInst`` rows lazily, as fetch first reaches
them, whether it was just interpreted or loaded from the store; so the
first cell on a trace counts those ``ColumnarTrace.row`` calls, and a
later cell on the same trace reuses the cached rows.

One cell runs observed (``ObsSpec(enabled=True, metrics_every=500)``),
so the cost of the telemetry plane is pinned as exactly as the
pipeline's: one more call per metrics sample moves it.  That obs on
leaves the stats bit-identical is ``tests/test_obs.py::TestBitIdentity``.

The child's environment is built from scratch, so no ``REPRO_*``
variable and no coverage hook reaches it.  Counts are exact within one
Python version only: the gate runs on CPython 3.11, CI's version, and
skips elsewhere.  A change that moves a count on purpose re-pins it
here and records the old and new counts in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

#: (benchmark, mechanism preset, warmup, measure, sampled, observed) ->
#: calls into this package, pinned on CPython 3.11.
PINS = {
    ("mcf", "baseline", 1000, 4000, False, False): 83_109,
    ("mcf", "rsep-realistic", 1000, 4000, False, False): 98_857,
    ("mcf", "rsep-realistic", 2000, 40000, True, False): 245_114,
    ("mcf", "rsep-realistic", 1000, 4000, False, True): 101_633,
}

CHILD = r"""
import cProfile
import json
import os
import sys
import tempfile
import types

import repro
from repro.obs.config import ObsSpec
from repro.obs.runtime import activated
from repro.pipeline.config import MechanismConfig
from repro.pipeline.core import Pipeline
from repro.pipeline.simulator import _TRACE_SLACK, Simulator
from repro.sampling import SampledRun, SamplingConfig

PACKAGE = os.path.dirname(repro.__file__) + os.sep


def ours(code) -> bool:
    if not isinstance(code, types.CodeType):
        return False  # a builtin
    name = code.co_filename
    return name.startswith(PACKAGE) or (
        name.startswith("<") and not name.startswith("<frozen")
    )


simulator = Simulator(trace_store=None)
counts = []
cells = json.load(sys.stdin)
obs_dir = tempfile.TemporaryDirectory()
for benchmark, mechanism, warmup, measure, sampled, observed in cells:
    trace = simulator.trace_for(benchmark, 1, warmup + measure + _TRACE_SLACK)
    obs = ObsSpec(enabled=observed, dir=obs_dir.name, metrics_every=500)
    with activated(obs):
        pipeline = Pipeline(trace, simulator.core_config,
                            MechanismConfig.preset(mechanism), 1)
        profiler = cProfile.Profile()
        profiler.enable()
        if sampled:
            run = SampledRun(pipeline, SamplingConfig(enabled=True))
            run.warm_up(warmup)
            run.measure(measure)
        else:
            pipeline.run(measure, warmup)
        profiler.disable()
    pipeline.close()
    counts.append(sum(entry.callcount for entry in profiler.getstats()
                      if ours(entry.code)))
obs_dir.cleanup()
print(json.dumps(counts))
"""


def count_calls(cells, src=SRC) -> dict:
    """Run *cells* in one fresh interpreter on the package under *src*;
    returns each cell's count of calls into the package."""
    env = {
        "PATH": os.environ.get("PATH", os.defpath),
        "PYTHONPATH": str(src),
        "REPRO_TRACE_STORE": "off",
    }
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(list(cells)),
        env=env, cwd=src, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return dict(zip(cells, json.loads(done.stdout)))


@pytest.fixture(scope="module")
def counted() -> dict:
    return count_calls(list(PINS))


@pytest.mark.skipif(
    platform.python_implementation() != "CPython"
    or sys.version_info[:2] != (3, 11),
    reason="call counts are pinned on CPython 3.11",
)
@pytest.mark.parametrize("cell", list(PINS), ids=[
    f"{bench}-{mechanism}-{'sampled' if sampled else 'full-detail'}"
    + ("-observed" if observed else "")
    for bench, mechanism, _, _, sampled, observed in PINS
])
def test_calls_match_the_pin(counted, cell):
    assert counted[cell] == PINS[cell], (
        f"{cell}: {counted[cell]} calls into repro, pinned {PINS[cell]}"
    )
