"""The trace-event record schema and its JSONL codec.

One record per line, append-only, so a crashed process leaves at worst
one torn final line — which :func:`read_events` tolerates by design
(every complete record is recovered, the torn tail is counted, never
raised).  Records are self-describing::

    {"v": 1, "t": <monotonic seconds>, "pid": <int>,
     "kind": "begin" | "end" | "event",
     "name": "<dotted.span.name>", "id": <span id>, "parent": <id|null>,
     "tags": {...}}

``begin``/``end`` pairs share an ``id`` (span duration = Δt between
them); ``event`` records are instantaneous points.  The clock is
``time.monotonic`` — timestamps order events *within* one process and
difference into durations; they are not wall-clock times and are not
comparable across hosts.  ``v`` is the record format version: readers
skip (and count) records from the future instead of misreading them.
"""

from __future__ import annotations

import json
from pathlib import Path

#: Record layout version.  Bump on incompatible changes; readers skip
#: newer records rather than guessing at their meaning.
RECORD_FORMAT = 1

_KINDS = ("begin", "end", "event")

#: Tag values must stay JSON scalars so every record is one flat line
#: (greppable, followable by `repro inspect --events --follow`) and the
#: codec never recurses.
_SCALAR_TYPES = (str, int, float, bool, type(None))


def encode_record(record: dict) -> str:
    """One record as its canonical single-line JSON form (no newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def decode_record(line: str) -> dict:
    """Parse and validate one record line; raises ``ValueError`` on any
    malformed, foreign or future-format line."""
    try:
        record = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"torn or non-JSON record line: {error}") from None
    if not isinstance(record, dict):
        raise ValueError(f"record is not an object: {record!r}")
    version = record.get("v")
    if not isinstance(version, int) or version > RECORD_FORMAT:
        raise ValueError(
            f"record format {version!r} is newer than this build "
            f"understands (max {RECORD_FORMAT})"
        )
    if record.get("kind") not in _KINDS:
        raise ValueError(f"unknown record kind: {record.get('kind')!r}")
    if not isinstance(record.get("name"), str) or not record["name"]:
        raise ValueError("record has no name")
    if not isinstance(record.get("t"), (int, float)):
        raise ValueError("record has no timestamp")
    if not isinstance(record.get("pid"), int):
        raise ValueError("record has no pid")
    tags = record.get("tags", {})
    if not isinstance(tags, dict) or not all(
        isinstance(key, str) and isinstance(value, _SCALAR_TYPES)
        for key, value in tags.items()
    ):
        raise ValueError("record tags must be a flat str -> scalar object")
    return record


def read_events(path) -> tuple[list[dict], int]:
    """Every recoverable record of one event file, plus the dropped count.

    Crash truncation leaves a torn final line; a concurrent writer's
    in-flight line looks the same.  Both are counted as dropped rather
    than raised, so a live (or dead) service's stream is always
    readable.  Records from a *newer* format version are skipped and
    counted too — forward compatibility mirrors the artifact loader's.
    """
    records: list[dict] = []
    dropped = 0
    text = Path(path).read_text(encoding="utf-8")
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            records.append(decode_record(line))
        except ValueError:
            dropped += 1
    return records, dropped


def format_record(record: dict) -> str:
    """One record as the human-readable line ``repro inspect --events``
    prints."""
    tags = record.get("tags") or {}
    rendered_tags = " ".join(
        f"{key}={value}" for key, value in sorted(tags.items())
    )
    marker = {"begin": ">", "end": "<", "event": "."}.get(
        record.get("kind", "event"), "?"
    )
    return (
        f"{record.get('t', 0.0):>14.6f} pid {record.get('pid', 0):<7} "
        f"{marker} {record.get('name', '?'):<24} {rendered_tags}"
    ).rstrip()
