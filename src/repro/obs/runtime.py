"""Process-level activation of the observability plane.

One question, answered in one place: *is this process being observed,
and by what?*  :func:`current` returns the installed :class:`ObsRuntime`
or ``None``; every hook in the pipeline, sampler, sweep engine and
service asks it (or the :func:`obs_tracer` shorthand) and does nothing
when the answer is ``None`` — which is the default, always.

A runtime is installed only by :func:`activated`, for a ``with`` scope,
and nothing here reads the environment:

* :meth:`Session.run` and the shard supervisor activate the spec's
  :class:`ObsSpec`, so a spec-driven run observes exactly what its spec
  says;
* the ``repro`` CLI runs every subcommand under
  ``activated(ObsSpec.from_env())``, which is how ``REPRO_OBS=1 repro
  …`` observes sweeps, figures, perf, profile and ``repro serve``
  hosts.  Forked shard workers inherit the installed runtime — each
  writes its own pid-suffixed stream (the tracer re-expands ``{pid}``
  after a fork).
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path

from repro.obs.config import DEFAULT_OBS_DIR, ObsSpec
from repro.obs.metrics import TELEMETRY_FORMAT, MetricsHub
from repro.obs.tracer import NULL_TRACER, Tracer


class ObsRuntime:
    """Everything one observed process shares: tracer, cadence, cells."""

    def __init__(self, spec: ObsSpec) -> None:
        self.spec = spec
        self.metrics_every = spec.metrics_every
        self.dir = Path(spec.dir or DEFAULT_OBS_DIR)
        self.tracer = Tracer(str(self.dir / "events-{pid}.jsonl"))
        #: Per-cell metrics series collected since the last drain.
        self._cells: list[dict] = []

    # ------------------------------------------------------------------

    def metrics_hub(self) -> MetricsHub | None:
        """A fresh hub for one pipeline (``None`` when metrics are off)."""
        if self.metrics_every <= 0:
            return None
        return MetricsHub(self.metrics_every)

    def collect_cell(self, benchmark: str, mechanism: str, seed: int,
                     pipeline) -> None:
        """Bank *pipeline*'s metric series under its cell identity."""
        hub = getattr(pipeline, "_metrics", None)
        if hub is None or len(hub) == 0:
            return
        self._cells.append({
            "benchmark": benchmark,
            "mechanism": mechanism,
            "seed": seed,
            **hub.to_payload(),
        })

    def drain_cells(self) -> list[dict]:
        """Hand over (and forget) the banked cell series — one run's
        worth, so consecutive runs under one runtime never bleed."""
        cells, self._cells = self._cells, []
        return cells

    def telemetry_payload(self, extra: dict | None = None) -> dict:
        """The artifact's ``telemetry`` section for the run just ended.

        Only cells actually *simulated* in this process appear — memoised
        recalls and shard-worker cells ran no local pipeline (the workers
        wrote their own event streams instead).
        """
        payload = {
            "format": TELEMETRY_FORMAT,
            "metrics_every": self.metrics_every,
            "events_dir": str(self.dir),
            "cells": self.drain_cells(),
        }
        if extra:
            payload.update(extra)
        return payload

    def close(self) -> None:
        self.tracer.close()


# ---------------------------------------------------------------------------
# Activation: installed for a scope, or (default) off
# ---------------------------------------------------------------------------

_installed: ObsRuntime | None = None


def current() -> ObsRuntime | None:
    """The installed runtime, or ``None`` (the overhead-free default)."""
    return _installed


def obs_tracer():
    """The active tracer — :data:`NULL_TRACER` when nothing observes."""
    runtime = current()
    return NULL_TRACER if runtime is None else runtime.tracer


def metrics_hub_for_pipeline() -> MetricsHub | None:
    """Pipeline-constructor hook: a fresh hub, or ``None`` when off."""
    runtime = current()
    if runtime is None:
        return None
    return runtime.metrics_hub()


@contextmanager
def activated(spec: ObsSpec | None):
    """Install *spec*'s runtime for a scope (no-op unless enabled).

    A disabled spec installs nothing and leaves an enclosing runtime —
    the one ``repro`` installs for ``REPRO_OBS=1`` — in place.
    """
    global _installed
    if spec is None or not spec.enabled:
        yield _installed
        return
    runtime = ObsRuntime(spec)
    previous = _installed
    _installed = runtime
    try:
        yield runtime
    finally:
        _installed = previous
        runtime.close()
