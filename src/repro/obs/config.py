"""The observability member of the spec family.

An :class:`ObsSpec` configures *whether and how* a run is observed —
never *what it computes*: tracing and metrics are measurement-plane
state exactly like the trace store (:class:`~repro.api.spec.StoreSpec`),
so the spec's content fingerprint excludes it by construction and two
runs that differ only in observability produce digest-identical
artifacts (pinned by the obs golden tests).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import env


#: Default sampling cadence: one metrics sample per N committed
#: instructions.  At the default 20k window that is ~20 samples per cell
#: — enough to see occupancy/stall phases, cheap enough to be invisible.
DEFAULT_METRICS_EVERY = 1000

#: Default event/metrics directory when enabled without an explicit one.
DEFAULT_OBS_DIR = ".repro-obs"


@dataclass(frozen=True)
class ObsSpec:
    """Observability configuration for one run (default: fully off).

    ``enabled`` turns the plane on for the session executing the spec;
    ``dir`` is where event streams land (``None`` = ``.repro-obs``;
    :meth:`from_env` reads ``REPRO_OBS_DIR``); ``metrics_every`` is the
    pipeline-metrics sampling cadence in committed instructions (``0``
    disables the metrics hub while keeping tracing).
    """

    enabled: bool = False
    dir: str | None = None
    metrics_every: int = DEFAULT_METRICS_EVERY

    def __post_init__(self) -> None:
        if self.metrics_every < 0:
            raise ValueError("metrics_every must be >= 0 (0 = no metrics)")

    @classmethod
    def from_env(cls) -> "ObsSpec":
        """``REPRO_OBS`` / ``REPRO_OBS_DIR`` / ``REPRO_METRICS_EVERY``."""
        return cls(
            enabled=env.obs_enabled(),
            dir=env.obs_dir_from_env(),
            metrics_every=env.metrics_every_from_env(),
        )
