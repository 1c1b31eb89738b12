"""repro.api — the typed front door (DESIGN.md §10).

One import surface for the whole experiment lifecycle::

    from repro.api import ExperimentSpec, Session

    spec = ExperimentSpec.from_env(benchmarks=["mcf"])   # env overlay, once
    result = Session.for_spec(spec).run(spec)            # shared engine
    result.save("mcf.json")                              # versioned artifact

``REPRO_*`` is read only at the front doors — ``ExperimentSpec.from_env``,
the ``repro`` CLI and the construction of the process-wide engine
(DESIGN.md §10); below them every setting travels as a value.

Submodules: :mod:`repro.api.env` (the single ``REPRO_*`` reader),
:mod:`repro.api.spec` (the frozen spec family), :mod:`repro.api.session`
(the facade over store/engine/worker pool), :mod:`repro.api.result`
(versioned artifacts), :mod:`repro.api.figures` (declarative figure
specs + formatters), :mod:`repro.api.cli` (the ``repro`` console entry
point) and :mod:`repro.api.codec` (the config-tree JSON codec).

Re-exports resolve lazily so low-level modules (``pipeline.simulator``
and friends) can import :mod:`repro.api.env` without dragging the whole
facade — and its harness dependencies — into their import graph.
"""

from __future__ import annotations

_EXPORTS = {
    "ExperimentSpec": "repro.api.spec",
    "SamplingSpec": "repro.api.spec",
    "StoreSpec": "repro.api.spec",
    "WindowSpec": "repro.api.spec",
    "default_mechanisms": "repro.api.spec",
    "from_env": "repro.api.spec",
    "Session": "repro.api.session",
    "run": "repro.api.session",
    "CellResult": "repro.api.result",
    "RunResult": "repro.api.result",
    "run_figure": "repro.api.figures",
    "run_figures": "repro.api.figures",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(target), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
