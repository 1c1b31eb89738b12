"""Typed experiment specifications — the front door of the system.

An :class:`ExperimentSpec` is a frozen value describing one sweep
completely: the benchmark × mechanism × seed grid, the measurement
window, the sampling mode and the store configuration.  Every scenario
that used to be an incantation of ``REPRO_*`` environment state is now a
value you can construct in code, fingerprint, serialise to JSON, diff
and replay (DESIGN.md §10).

Resolution happens **once, at construction**: :meth:`ExperimentSpec.from_env`
is the only place the environment is consulted (explicit argument beats
environment beats default), after which the spec is self-contained — a
mid-process environment change can never make two halves of one run
disagree about the window again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.api import codec, env
from repro.obs.config import ObsSpec
from repro.pipeline.config import MechanismConfig
from repro.sampling.config import SamplingConfig

#: The sampled-simulation parameters double as the sampling member of the
#: spec family: ``SamplingConfig`` is already a frozen, validated value
#: (DESIGN.md §8) — the API gives it its spec-family name.
SamplingSpec = SamplingConfig


@dataclass(frozen=True)
class WindowSpec:
    """The measurement window, fully resolved (no scale factor pending)."""

    warmup: int = 8000
    measure: int = 20000

    def __post_init__(self) -> None:
        if self.warmup < 0:
            raise ValueError("warmup must be non-negative")
        if self.measure <= 0:
            raise ValueError("measure must be positive")

    @classmethod
    def from_env(cls) -> "WindowSpec":
        """``REPRO_WARMUP`` / ``REPRO_MEASURE`` with ``REPRO_SCALE``
        already folded in (the scale is not carried: resolution is
        once, at construction)."""
        warmup, measure = env.window_from_env()
        return cls(warmup=warmup, measure=measure)


@dataclass(frozen=True)
class StoreSpec:
    """Trace-store configuration.

    ``path=None`` means the default cache location; ``enabled=False``
    disables persistence entirely.  ``result_lake`` (default off)
    additionally serves per-cell ``Stats`` artifacts from the store
    before simulating and populates them after (DESIGN.md §14).  None
    of these affect simulation *results* (lake-served cells are
    digest-identical to fresh runs, ``tests/test_result_lake.py``), so
    the store never joins the spec fingerprint.
    """

    path: str | None = None
    enabled: bool = True
    result_lake: bool = False

    @classmethod
    def from_env(cls) -> "StoreSpec":
        """``REPRO_TRACE_STORE`` / ``REPRO_RESULT_LAKE``.

        An unset store variable yields ``path=None`` (the default cache
        location), NOT a materialised absolute path: a pristine
        environment must produce a spec equal to the default
        ``StoreSpec()`` so :meth:`Session.for_spec` recognises it and
        keeps the shared engine (and serialized artifacts stay free of
        host home-directory paths).
        """
        path, enabled = env.store_setting_from_env()
        return cls(
            path=path,
            enabled=enabled,
            result_lake=env.result_lake_from_env(),
        )

    def resolve_root(self) -> Path | None:
        """The directory to persist under (``None`` = no persistence).

        With ``path=None`` the default spec defers to the environment's
        store resolution, so a process that disabled persistence (the
        tier-1 suite sets ``REPRO_TRACE_STORE=off``) can never be made
        to write the user's cache by a default-constructed spec.
        """
        if not self.enabled:
            return None
        if self.path is not None:
            return Path(self.path)
        return env.store_root_from_env()


def default_mechanisms() -> tuple[MechanismConfig, ...]:
    """The standard comparison pair: baseline and realistic RSEP."""
    return (MechanismConfig.baseline(), MechanismConfig.rsep_realistic())


def reject_unknown_benchmarks(benchmarks) -> None:
    """Every name must be a known workload; ``ValueError`` otherwise.

    The check a spec applies, shared with the one front door that runs
    benchmarks without one (``repro figures`` for fig1).
    """
    from repro.workloads.spec2006 import benchmark_names

    unknown = [b for b in benchmarks if b not in benchmark_names()]
    if unknown:
        raise ValueError(
            f"unknown benchmark(s): {', '.join(unknown)} "
            f"(choose from {', '.join(benchmark_names())})"
        )


def _reject_duplicates(what: str, values) -> None:
    """A grid axis names each value once: a repeat would be one cell
    twice, which the sweep memo folds and the shard planner refuses."""
    if len(set(values)) != len(values):
        raise ValueError(f"duplicate {what}: {list(values)}")


@dataclass(frozen=True)
class ExperimentSpec:
    """One sweep, completely described.

    The grid is ``benchmarks × mechanisms × seeds``; ``window``,
    ``sampling`` and ``store`` parameterise how each cell runs;
    ``shards`` how cells fan out.  ``Session.run(spec)``
    routes the grid into the shared sweep engine, so each cell is
    bit-identical to a direct ``Simulator.run_benchmark``; ``shards >
    1`` selects the fault-tolerant sharded service
    (:meth:`Session.run_sharded`, DESIGN.md §11) whose merged artifact
    is digest-identical to the in-process run.
    """

    benchmarks: tuple[str, ...] = ()
    mechanisms: tuple[MechanismConfig, ...] = field(
        default_factory=default_mechanisms
    )
    seeds: tuple[int, ...] = (1,)
    window: WindowSpec = field(default_factory=WindowSpec)
    sampling: SamplingSpec = field(default_factory=SamplingSpec)
    store: StoreSpec = field(default_factory=StoreSpec)
    #: Sharded-service fan-out; 0 (or 1) = the in-process engine path.
    #: Sharding executes without changing any result, so it never joins
    #: the fingerprint.
    shards: int = 0
    #: Observability (DESIGN.md §13): tracing + metrics for the session
    #: executing this spec.  Measurement-plane state like ``store`` —
    #: it can never change a stat, so it never joins the fingerprint
    #: (pinned by the obs golden tests).
    obs: ObsSpec = field(default_factory=ObsSpec)

    def __post_init__(self) -> None:
        # Normalise list inputs so callers can pass plain lists.  A bare
        # string would silently explode into per-character "benchmarks"
        # and fail deep inside the sweep — reject it here.
        for name in ("benchmarks", "mechanisms", "seeds"):
            value = getattr(self, name)
            if isinstance(value, str):
                raise TypeError(
                    f"{name} must be a sequence, not a bare string "
                    f"({value!r}); did you mean [{value!r}]?"
                )
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))
        if not self.benchmarks:
            raise ValueError("an ExperimentSpec needs at least one benchmark")
        _reject_duplicates("benchmarks", self.benchmarks)
        reject_unknown_benchmarks(self.benchmarks)
        if not self.mechanisms:
            raise ValueError("an ExperimentSpec needs at least one mechanism")
        _reject_duplicates(
            "mechanism names", [mechanism.name for mechanism in self.mechanisms]
        )
        if not self.seeds:
            raise ValueError("an ExperimentSpec needs at least one seed")
        _reject_duplicates("seeds", self.seeds)
        if self.shards < 0:
            raise ValueError("shards must be >= 0 (0 = in-process)")

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_env(
        cls,
        benchmarks=None,
        mechanisms=None,
        seeds=None,
        window: WindowSpec | None = None,
        warmup: int | None = None,
        measure: int | None = None,
        sampling: SamplingSpec | None = None,
        store: StoreSpec | None = None,
        shards: int | None = None,
        obs: ObsSpec | None = None,
        strict: bool = False,
    ) -> "ExperimentSpec":
        """The single environment overlay: explicit beats env beats default.

        Every ``REPRO_*`` variable is consumed here, once; the returned
        spec is self-contained.  Unrecognised ``REPRO_*`` names warn
        (:class:`~repro.api.env.UnknownReproVariable`) or, with
        ``strict=True``, raise.
        """
        env.warn_unknown_vars(strict=strict)
        if benchmarks is None:
            from repro.workloads.spec2006 import (
                benchmark_names,
                representative_names,
            )

            benchmarks = (
                benchmark_names()
                if env.full_benchmarks_from_env()
                else representative_names()
            )
        if window is None:
            window = WindowSpec.from_env()
        if warmup is not None or measure is not None:
            window = replace(
                window,
                warmup=window.warmup if warmup is None else warmup,
                measure=window.measure if measure is None else measure,
            )
        return cls(
            benchmarks=tuple(benchmarks),
            mechanisms=(
                default_mechanisms() if mechanisms is None
                else tuple(mechanisms)
            ),
            seeds=(
                tuple(env.seeds_from_env()) if seeds is None
                else tuple(seeds)
            ),
            window=window,
            sampling=env.sampling_from_env() if sampling is None
            else sampling,
            store=StoreSpec.from_env() if store is None else store,
            shards=env.shards_from_env() if shards is None else shards,
            obs=ObsSpec.from_env() if obs is None else obs,
        )

    # ------------------------------------------------------------------
    # Identity and serialisation
    # ------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Content fingerprint of everything that determines the stats.

        Mechanism display names, the store configuration and the shard
        count label or execute the experiment without changing any
        result (all pinned by the equivalence/determinism
        suites — the sharded service's merge gate included), so
        none of them participate — two specs with the same fingerprint
        produce bit-identical per-cell statistics.
        """
        payload = repr((
            self.benchmarks,
            self.seeds,
            (self.window.warmup, self.window.measure),
            self.sampling.fingerprint(),
            tuple(m.fingerprint() for m in self.mechanisms),
        ))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def to_dict(self) -> dict:
        return codec.encode(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentSpec":
        spec = codec.decode(payload)
        if not isinstance(spec, cls):
            raise ValueError(
                f"payload decodes to {type(spec).__name__}, not "
                f"{cls.__name__}"
            )
        return spec

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(json.loads(text))

    # ------------------------------------------------------------------
    # Convenience
    # ------------------------------------------------------------------

    @property
    def cells(self) -> int:
        """Grid size: how many (benchmark, mechanism, seed) cells."""
        return len(self.benchmarks) * len(self.mechanisms) * len(self.seeds)

    def mechanism_names(self) -> list[str]:
        return [mechanism.name for mechanism in self.mechanisms]


def from_env(**overrides) -> ExperimentSpec:
    """Module-level alias for :meth:`ExperimentSpec.from_env`."""
    return ExperimentSpec.from_env(**overrides)
