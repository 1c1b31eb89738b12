"""Shard planning and digest-verified shard artifacts.

A :class:`ShardSpec` is the unit of work the supervisor hands a worker:
the full base :class:`~repro.api.spec.ExperimentSpec` (so the worker can
reconstruct windows, sampling and store settings exactly) plus the
explicit subset of grid cells this shard owns.  Cells are referenced as
``(benchmark, mechanism index, seed)`` — the mechanism *index* into the
base spec's tuple, so mechanism configurations are serialised once, in
the embedded spec, not once per shard.

A :class:`ShardResult` is what comes back: the computed
:class:`~repro.api.result.CellResult` values plus the same content
digest a :class:`~repro.api.result.RunResult` carries
(:func:`~repro.api.result.cells_digest`).  Loading validates the digest
and the spec fingerprint, so a truncated, corrupted or foreign artifact
is rejected at the merge boundary and the shard re-executes instead of
silently poisoning the sweep.

:func:`merge_shards` reassembles shard results into one ``RunResult``
in canonical grid order — bit-identical to an in-process sweep when all
cells arrived, with missing cells returned as explicit holes otherwise.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.api import codec
from repro.api.result import CellResult, RunResult, cells_digest
from repro.api.spec import ExperimentSpec

#: A grid cell by position: (benchmark, mechanism index, seed).
CellRef = tuple[str, int, int]

#: A grid cell by name: (benchmark, mechanism name, seed) — the hole
#: representation in partial results.
CellId = tuple[str, str, int]


def canonical_cells(spec: ExperimentSpec) -> list[CellRef]:
    """The grid in in-process sweep order (benchmark-major)."""
    return [
        (benchmark, mech_index, seed)
        for benchmark in spec.benchmarks
        for mech_index in range(len(spec.mechanisms))
        for seed in spec.seeds
    ]


def cell_id(spec: ExperimentSpec, ref: CellRef) -> CellId:
    benchmark, mech_index, seed = ref
    return (benchmark, spec.mechanisms[mech_index].name, seed)


@dataclass(frozen=True)
class ShardSpec:
    """One shard's work order: the base spec plus its cell subset."""

    spec: ExperimentSpec
    index: int
    total: int
    cells: tuple[CellRef, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.index < self.total):
            raise ValueError(
                f"shard index {self.index} outside 0..{self.total - 1}"
            )
        if not self.cells:
            raise ValueError("a shard needs at least one cell")
        mechanisms = len(self.spec.mechanisms)
        seen: set[CellRef] = set()
        for ref in self.cells:
            benchmark, mech_index, seed = ref
            if benchmark not in self.spec.benchmarks:
                raise ValueError(f"cell benchmark {benchmark!r} not in spec")
            if not (0 <= mech_index < mechanisms):
                raise ValueError(f"cell mechanism index {mech_index} "
                                 f"outside 0..{mechanisms - 1}")
            if seed not in self.spec.seeds:
                raise ValueError(f"cell seed {seed} not in spec")
            if ref in seen:
                raise ValueError(f"duplicate cell {ref}")
            seen.add(ref)

    @property
    def fingerprint(self) -> str:
        """The base spec's content fingerprint (shared by all shards)."""
        return self.spec.fingerprint()

    def cell_ids(self) -> list[CellId]:
        return [cell_id(self.spec, ref) for ref in self.cells]

    def to_dict(self) -> dict:
        return codec.encode(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardSpec":
        shard = codec.decode(payload)
        if not isinstance(shard, cls):
            raise ValueError(
                f"payload decodes to {type(shard).__name__}, not "
                f"{cls.__name__}"
            )
        return shard

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardSpec":
        return cls.from_dict(json.loads(text))


def plan_shards(
    spec: ExperimentSpec, shards: int, cells=None
) -> list[ShardSpec]:
    """Split *cells* (canonically ordered; default *spec*'s whole grid)
    into at most *shards* shard specs.

    Cells are grouped into blocks before distribution so each shard
    keeps trace locality (a worker interprets/loads each benchmark's
    trace once): per-benchmark blocks when there are enough shards to
    go around, per-(benchmark, mechanism) blocks when shards outnumber
    the benchmarks, individual cells when they outnumber both.  Blocks
    are dealt round-robin, so the plan is deterministic — the same
    spec, cells and shard count always produce the same shards — and
    fewer shards than requested come back when the cells are too few
    to fill them.
    """
    if shards < 2:
        raise ValueError("plan_shards needs shards >= 2; use the "
                         "in-process engine path for 0/1")
    if cells is None:
        cells = canonical_cells(spec)
    if shards <= len({ref[0] for ref in cells}):
        def block_key(ref: CellRef):
            return ref[0]
    elif shards <= len({ref[:2] for ref in cells}):
        def block_key(ref: CellRef):
            return ref[:2]
    else:
        def block_key(ref: CellRef):
            return ref
    blocks: dict[object, list[CellRef]] = {}
    for ref in cells:
        blocks.setdefault(block_key(ref), []).append(ref)
    assigned: list[list[CellRef]] = [[] for _ in range(shards)]
    for position, block in enumerate(blocks.values()):
        assigned[position % shards].extend(block)
    populated = [refs for refs in assigned if refs]
    return [
        ShardSpec(spec=spec, index=index, total=len(populated),
                  cells=tuple(refs))
        for index, refs in enumerate(populated)
    ]


@dataclass
class ShardResult:
    """One shard's artifact: its cells, digest-sealed like a RunResult."""

    index: int
    fingerprint: str
    cells: list[CellResult]

    def digest(self) -> str:
        return cells_digest(self.cells)

    def to_dict(self) -> dict:
        return {
            "shard": self.index,
            "fingerprint": self.fingerprint,
            "digest": self.digest(),
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardResult":
        result = cls(
            index=payload["shard"],
            fingerprint=payload["fingerprint"],
            cells=[CellResult.from_dict(c) for c in payload["cells"]],
        )
        recorded = payload.get("digest")
        if recorded is None:
            raise ValueError(
                "shard artifact has no digest field; refusing to trust it"
            )
        if recorded != result.digest():
            raise ValueError(
                f"shard artifact digest does not match its cells "
                f"({recorded} vs {result.digest()}); the payload was "
                "corrupted or altered"
            )
        return result

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ShardResult":
        return cls.from_dict(json.loads(text))


def validate_shard_result(
    shard: ShardSpec, result: ShardResult
) -> tuple[str, str] | None:
    """Why *result* cannot be accepted as *shard*'s artifact, or ``None``.

    The acceptance checks every transport shares — the supervisor's
    spool-file load and the cluster dispatcher's inline payload both run
    exactly these after the digest check ``ShardResult.from_dict``
    already performed: the artifact must be for this shard, computed
    under this spec's fingerprint, and cover exactly the ordered cell
    set of the work order.  Returns the supervisor's ``(kind, reason)``
    failure tuple so a rejection feeds straight into the retry ladder.
    """
    if result.index != shard.index:
        return (
            "foreign",
            f"artifact is for shard {result.index}, expected "
            f"{shard.index}",
        )
    if result.fingerprint != shard.fingerprint:
        return (
            "foreign",
            f"artifact fingerprint {result.fingerprint} does not match "
            f"the spec ({shard.fingerprint})",
        )
    produced = {
        (cell.benchmark, cell.mechanism, cell.seed)
        for cell in result.cells
    }
    if produced != set(shard.cell_ids()):
        return (
            "corrupt",
            "artifact cell set does not match the shard's work order",
        )
    return None


def merge_shards(
    spec: ExperimentSpec, shard_results, served=()
) -> tuple[RunResult, tuple[CellId, ...]]:
    """Reassemble shard artifacts into one verified ``RunResult``.

    Cells are emitted in canonical grid order regardless of shard
    completion order, so a complete merge is bit-identical (digest and
    all) to an in-process ``Session.run``.  Every shard's fingerprint
    must match *spec* — a shard computed for a different experiment is
    an error, not a silent wrong answer — and a cell two shards both
    claim must agree exactly (determinism says it will; disagreement
    means corruption the digest missed, so it raises).  *served* cells,
    the ones the coordinator held, join them; cells nobody delivered
    come back as the explicit hole list.
    """
    expected = spec.fingerprint()
    collected: dict[CellId, CellResult] = {
        (cell.benchmark, cell.mechanism, cell.seed): cell for cell in served
    }
    for shard in shard_results:
        if shard.fingerprint != expected:
            raise ValueError(
                f"shard {shard.index} fingerprint {shard.fingerprint} does "
                f"not match the spec being merged ({expected}); refusing to "
                "merge a foreign artifact"
            )
        for cell in shard.cells:
            key = (cell.benchmark, cell.mechanism, cell.seed)
            duplicate = collected.get(key)
            if duplicate is not None and (
                duplicate.to_dict() != cell.to_dict()
            ):
                raise ValueError(
                    f"shards disagree about cell {key}; determinism is "
                    "violated or an artifact is corrupt"
                )
            collected[key] = cell
    cells: list[CellResult] = []
    holes: list[CellId] = []
    for ref in canonical_cells(spec):
        key = cell_id(spec, ref)
        cell = collected.get(key)
        if cell is None:
            holes.append(key)
        else:
            cells.append(cell)
    return RunResult(spec=spec, cells=cells), tuple(holes)
