"""Persistent, content-addressed store of functional traces.

Interpreting a benchmark is deterministic, so its committed-path trace is
a pure function of ``(benchmark, seed, instruction budget, workload
code)``.  This module caches that artifact on disk — in the spirit of
build-once/run-many experiment infrastructures — so a trace is
interpreted **at most once per machine**: every later sweep, bench,
example or CI run loads it back instead of re-running the interpreter.

Three pieces:

* :func:`workload_code_version` — a hash over the source of every module
  that determines trace content (workloads, ISA, interpreter, RNG).  It
  is part of every cache key, on disk and in memory, so editing
  ``workloads/kernels.py`` (or the interpreter itself) can never serve a
  stale trace.  The hash is recomputed whenever a source file's
  stat signature changes, which keeps long-lived processes honest too.
* the stored form: the payload of packed ``array`` columns that
  :meth:`~repro.workloads.columnar.ColumnarTrace.to_payload` builds and
  :meth:`~repro.workloads.columnar.ColumnarTrace.from_payload` wraps
  again without constructing a single ``DynInst`` (DESIGN.md §9).  Fresh
  and loaded traces are the same type; rows materialise lazily in both.
* :class:`TraceStore` — the on-disk cache.  One file per
  ``(benchmark, seed, version)``, atomically replaced on writes
  (temp file + ``os.replace``), with the instruction *budget* recorded in
  the payload: a stored trace serves any request it covers and is
  re-interpreted (and overwritten) for longer ones, mirroring the
  in-memory prefix-reuse rule.  Corrupt or truncated files are treated
  as misses — the caller falls back to interpretation and the file is
  rewritten.

Since the result lake (DESIGN.md §14) the store also holds per-cell
simulation *results*: small JSON artifacts (``*.cell``) carrying one
cell's :class:`~repro.pipeline.stats.Stats`, content-addressed on the
complete cell fingerprint the sweep engine computes (benchmark, seed,
resolved window, sampling/mechanism/core fingerprints, workload-code
version, format).  Like traces and checkpoints, anything unreadable —
truncated, foreign format, digest-mismatched — is a miss the caller
re-simulates and overwrites.

The store location defaults to ``~/.cache/repro/traces`` (honouring
``XDG_CACHE_HOME``) and is overridden with ``REPRO_TRACE_STORE``; setting
that variable to ``0``, ``off`` or ``none`` disables persistence.
"""

from __future__ import annotations

import hashlib
import json
import pickle
from pathlib import Path

from repro.common.atomicio import atomic_write_bytes, atomic_write_text

from repro.workloads.columnar import FORMAT, ColumnarTrace

#: Modules whose source determines trace content.  Anything that touches
#: program construction, initial data images or interpretation belongs
#: here; timing-model modules do not (they never affect the trace).
_VERSIONED_MODULES = (
    "repro.workloads.kernels",
    "repro.workloads.spec2006",
    "repro.workloads.builder",
    "repro.workloads.trace",
    "repro.isa.instruction",
    "repro.isa.opcodes",
    "repro.isa.program",
    "repro.isa.registers",
    "repro.common.bitops",
    "repro.common.rng",
)

# (stat signature) -> digest memo so repeated calls cost ~10 os.stat.
_version_cache: tuple[tuple, str] | None = None


def _module_sources() -> list[Path]:
    import importlib

    paths = []
    for name in _VERSIONED_MODULES:
        module = importlib.import_module(name)
        module_file = getattr(module, "__file__", None)
        if module_file:
            paths.append(Path(module_file))
    return paths


def _snapshot_source(path: Path) -> tuple[tuple[str, int, int], bytes]:
    """One file's ``(stat signature, bytes)``, captured consistently.

    The stat and the read happen back to back, and the stat is re-taken
    after the read: if an edit landed in between, the pair is retried so
    the returned signature always describes exactly the bytes returned.
    Without this, an edit racing the two passes could memoise a digest
    that does not correspond to its signature — and a signature-matched
    memo hit would then serve the wrong version forever.
    """
    before = path.stat()
    for _ in range(4):
        data = path.read_bytes()
        after = path.stat()
        if (before.st_mtime_ns, before.st_size) == (
            after.st_mtime_ns, after.st_size
        ):
            break
        before = after
    return (str(path), before.st_mtime_ns, before.st_size), data


def workload_code_version() -> str:
    """Hash of the workload/ISA/interpreter source (first 16 hex chars).

    Cached on the files' ``(path, mtime_ns, size)`` signature: editing any
    versioned module invalidates the memo, so even a process that outlives
    an edit computes a fresh version and stops serving stale traces.  On
    a memo miss, each file's ``(stat, bytes)`` is snapshotted in a single
    consistent pass and **both** the memo signature and the digest derive
    from that snapshot — the memoised pair can never mix one version's
    stats with another version's bytes.
    """
    global _version_cache
    sources = _module_sources()
    probe = tuple(
        (str(path), stat.st_mtime_ns, stat.st_size)
        for path, stat in ((p, p.stat()) for p in sources)
    )
    if _version_cache is not None and _version_cache[0] == probe:
        return _version_cache[1]
    snapshot = [(path.name, *_snapshot_source(path)) for path in sources]
    signature = tuple(entry[1] for entry in snapshot)
    digest = hashlib.sha256()
    for name, _, data in snapshot:
        digest.update(name.encode())
        digest.update(data)
    version = digest.hexdigest()[:16]
    _version_cache = (signature, version)
    return version


# ---------------------------------------------------------------------------
# On-disk store
# ---------------------------------------------------------------------------

#: Result-lake cell artifact layout version.  Part of every cell key, so
#: bumping it on an incompatible change makes every old entry a miss
#: (never a misread).
CELL_FORMAT = 1


def cell_stats_digest(stats: dict) -> str:
    """Self-digest of one lake cell's stats section.

    Canonical JSON (sorted keys), so the digest is independent of dict
    insertion order; editing any counter under a stale digest makes the
    entry a miss (tamper detection, mirroring ``RunResult.digest``).
    """
    return hashlib.sha256(
        json.dumps(stats, sort_keys=True).encode()
    ).hexdigest()[:16]


class TraceStore:
    """Content-addressed on-disk cache of packed functional traces."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.recovered = 0  # corrupt/truncated files treated as misses
        # µarch checkpoints (repro.sampling) stored alongside traces.
        self.checkpoint_hits = 0
        self.checkpoint_misses = 0
        self.checkpoint_writes = 0
        # Result-lake cells (DESIGN.md §14) stored alongside both.
        self.cell_hits = 0
        self.cell_misses = 0
        self.cell_writes = 0
        self.cell_recovered = 0  # unreadable/tampered cells, now misses

    @classmethod
    def from_environment(cls) -> "TraceStore | None":
        """The default store, or ``None`` when persistence is disabled."""
        from repro.api.env import store_root_from_env

        root = store_root_from_env()
        return cls(root) if root is not None else None

    # ------------------------------------------------------------------

    def path_for(self, benchmark: str, seed: int, version: str) -> Path:
        """File path of one ``(benchmark, seed, version)`` artifact.

        The key is content-addressed: a digest over the benchmark name,
        the seed and the workload-code version.  The human-readable stem
        keeps the store browsable.
        """
        digest = hashlib.sha256(
            f"{benchmark}\x00{seed}\x00{version}\x00{FORMAT}".encode()
        ).hexdigest()[:20]
        safe = "".join(c if c.isalnum() else "_" for c in benchmark)
        return self.root / f"{safe}-s{seed}-{digest}.trace"

    def load(
        self, benchmark: str, seed: int, instructions: int, version: str,
    ) -> "tuple[ColumnarTrace, int] | None":
        """Return ``(trace, budget)`` if a stored trace covers the request.

        A trace covers a request for N instructions when it was built with
        a budget >= N, or when it halted before exhausting its budget (the
        complete execution covers everything).  Anything unreadable —
        missing, truncated, corrupt, wrong format — is a miss; the caller
        re-interprets and :meth:`save` overwrites the bad file.

        The result is a :class:`ColumnarTrace` view over the packed
        payload — zero per-instruction decode work at load; rows
        materialise lazily as the pipeline fetches them.  The constructor
        validates the payload, so corruption is a miss.
        """
        path = self.path_for(benchmark, seed, version)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            trace = ColumnarTrace.from_payload(payload)
            budget = payload["budget"]
            if not isinstance(budget, int):
                raise ValueError("trace payload budget is not an int")
        except FileNotFoundError:
            self.misses += 1
            return None
        except Exception:  # corrupt pickle / bad payload: recoverable
            self.recovered += 1
            self.misses += 1
            return None
        if instructions <= budget or len(trace) < budget:
            self.hits += 1
            return trace, budget
        self.misses += 1
        return None

    def save(
        self, trace: ColumnarTrace, benchmark: str, seed: int,
        budget: int, version: str,
    ) -> Path | None:
        """Persist *trace* atomically; best-effort (failures are ignored)."""
        return self.save_payload(
            trace.to_payload(budget), benchmark, seed, version
        )

    def save_payload(
        self, payload: dict, benchmark: str, seed: int, version: str,
    ) -> Path | None:
        """Persist an already-packed payload (see :meth:`save`).

        The temp-file + ``os.replace`` (+ ``fsync``) dance — shared with
        every other artifact writer via
        :func:`repro.common.atomicio.atomic_write_bytes` — guarantees
        readers never see a partial write, and concurrent writers
        (shard workers interpreting the same benchmark) race
        benignly: both produce identical bytes.
        """
        path = self.path_for(benchmark, seed, version)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                path,
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError:
            return None  # read-only store, full disk, ... — not fatal
        self.writes += 1
        return path

    # ------------------------------------------------------------------
    # Microarchitectural checkpoints (repro.sampling, DESIGN.md §8)
    # ------------------------------------------------------------------

    def checkpoint_path(self, benchmark: str, seed: int, token: str) -> Path:
        """File path of one warmed-state checkpoint artifact.

        *token* encodes everything beyond (benchmark, seed) that the
        warmed state depends on — warm-up length, mechanism and core
        configuration, workload-code version, checkpoint format — so the
        name is content-addressed exactly like trace files.
        """
        digest = hashlib.sha256(
            f"{benchmark}\x00{seed}\x00{token}".encode()
        ).hexdigest()[:20]
        safe = "".join(c if c.isalnum() else "_" for c in benchmark)
        return self.root / f"{safe}-s{seed}-{digest}.ckpt"

    def load_checkpoint(
        self, benchmark: str, seed: int, token: str
    ) -> dict | None:
        """Return a stored checkpoint payload, or None on any miss.

        Unreadable files (truncated, corrupt, foreign format) are
        misses; the caller re-warms and :meth:`save_checkpoint`
        overwrites the bad artifact.  A loaded payload is not yet a
        hit: the caller counts one when it restores the payload.
        """
        path = self.checkpoint_path(benchmark, seed, token)
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
            if not isinstance(payload, dict):
                raise ValueError("not a checkpoint payload")
        except Exception:
            self.checkpoint_misses += 1
            return None
        return payload

    def save_checkpoint(
        self, payload: dict, benchmark: str, seed: int, token: str
    ) -> Path | None:
        """Persist a checkpoint atomically; best-effort like :meth:`save`."""
        path = self.checkpoint_path(benchmark, seed, token)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_bytes(
                path,
                pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL),
            )
        except OSError:
            return None
        self.checkpoint_writes += 1
        return path

    # ------------------------------------------------------------------
    # Result lake: per-cell Stats artifacts (DESIGN.md §14)
    # ------------------------------------------------------------------

    def cell_path(self, benchmark: str, seed: int, token: str) -> Path:
        """File path of one result-lake cell artifact.

        *token* is the sweep engine's complete cell fingerprint beyond
        (benchmark, seed): resolved window, sampling fingerprint,
        mechanism fingerprint, core-config fingerprint, workload-code
        version and the lake format — so the name is content-addressed
        exactly like trace and checkpoint files, and a cell produced
        under any other configuration can never be served.
        """
        digest = hashlib.sha256(
            f"{benchmark}\x00{seed}\x00{token}".encode()
        ).hexdigest()[:20]
        safe = "".join(c if c.isalnum() else "_" for c in benchmark)
        return self.root / f"{safe}-s{seed}-{digest}.cell"

    def load_cell(
        self, benchmark: str, seed: int, token: str,
        fields: frozenset[str] | set[str] | None = None,
    ) -> dict | None:
        """Return a stored cell payload, or ``None`` on any miss.

        The payload is JSON with a self-digest over its ``stats``
        section; anything unreadable — missing, truncated, foreign
        format, or tampered (stats edited under a stale digest) — is a
        miss the caller re-simulates, after which :meth:`save_cell`
        overwrites the bad artifact.  *fields*, when given, is the exact
        set of stats keys the caller's schema expects (the sweep engine
        passes its ``Stats`` field names); any other key set is a miss
        too, so a cell from a build with a drifted schema is never
        half-read.
        """
        path = self.cell_path(benchmark, seed, token)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("cell payload is not an object")
            if payload.get("format") != CELL_FORMAT:
                raise ValueError("foreign cell format")
            stats = payload.get("stats")
            if not isinstance(stats, dict):
                raise ValueError("cell payload has no stats object")
            if payload.get("digest") != cell_stats_digest(stats):
                raise ValueError("cell digest mismatch")
            if fields is not None and set(stats) != set(fields):
                raise ValueError("cell stats schema mismatch")
        except FileNotFoundError:
            self.cell_misses += 1
            return None
        except Exception:  # corrupt/foreign/tampered: recoverable
            self.cell_recovered += 1
            self.cell_misses += 1
            return None
        self.cell_hits += 1
        return payload

    def save_cell(
        self,
        stats: dict,
        benchmark: str,
        seed: int,
        token: str,
        meta: dict | None = None,
    ) -> Path | None:
        """Persist one cell's stats dict atomically; best-effort.

        *meta* (mechanism display name, window, fingerprints, ...) is
        informational — it makes the lake queryable by ``repro inspect
        --lake`` but never participates in the self-digest, exactly as
        display names stay out of cell keys.
        """
        payload = {
            "format": CELL_FORMAT,
            "benchmark": benchmark,
            "seed": seed,
            "digest": cell_stats_digest(stats),
            "stats": stats,
        }
        if meta:
            payload["meta"] = meta
        path = self.cell_path(benchmark, seed, token)
        try:
            self.root.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                path, json.dumps(payload, sort_keys=True) + "\n"
            )
        except OSError:
            return None  # read-only store, full disk, ... — not fatal
        self.cell_writes += 1
        return path

    def iter_cells(self):
        """Yield ``(path, payload-or-None)`` for every lake entry.

        Unreadable or tampered entries yield ``None`` payloads so
        queries (``repro inspect --lake``) can count them without
        trusting them; sorted by path for deterministic rendering.
        """
        for path in sorted(self.root.glob("*.cell")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                if not (
                    isinstance(payload, dict)
                    and payload.get("format") == CELL_FORMAT
                    and isinstance(payload.get("stats"), dict)
                    and payload.get("digest")
                    == cell_stats_digest(payload["stats"])
                ):
                    payload = None
            except Exception:
                payload = None
            yield path, payload
