"""The telemetry plane (DESIGN.md §13): tracing, metrics, profiling.

Everything here defaults **off**: with no runtime installed the
simulator runs the identical step sequence, produces bit-identical stats
and digest-identical artifacts, and pays no measurable overhead.  With
an enabled :class:`ObsSpec` on the experiment spec (or ``REPRO_OBS=1``
on a ``repro`` command line, which installs one for the whole command):

* a :class:`~repro.obs.tracer.Tracer` appends span/event records
  (JSONL, monotonic clock, pid-tagged) around trace interpretation,
  warming, sampling intervals, sweep cells and the shard lifecycle;
* each :class:`~repro.pipeline.core.Pipeline` carries a
  :class:`~repro.obs.metrics.MetricsHub` sampling occupancy/rate/stall
  counters every N committed instructions into preallocated arrays;
* the collected series flush into a schema-versioned ``telemetry``
  section of the :class:`~repro.api.result.RunResult` artifact
  (excluded from the content digest, so obs on/off runs stay
  digest-identical).

:mod:`repro.obs.profile` is the phase profiler behind ``repro profile``
and the CI overhead gate; it is imported lazily (never from here) so the
observability plane itself stays dependency-free.
"""

from repro.obs.config import ObsSpec
from repro.obs.events import (
    RECORD_FORMAT,
    decode_record,
    encode_record,
    format_record,
    read_events,
)
from repro.obs.metrics import TELEMETRY_FORMAT, MetricsHub
from repro.obs.runtime import ObsRuntime, activated, current, obs_tracer
from repro.obs.tracer import NULL_TRACER, Tracer

__all__ = [
    "NULL_TRACER",
    "RECORD_FORMAT",
    "TELEMETRY_FORMAT",
    "MetricsHub",
    "ObsRuntime",
    "ObsSpec",
    "Tracer",
    "activated",
    "current",
    "decode_record",
    "encode_record",
    "format_record",
    "obs_tracer",
    "read_events",
]
