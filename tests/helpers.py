"""Shared helpers for the test suites (no fixtures, plain imports)."""

from __future__ import annotations

import dataclasses


def stats_dict(stats) -> dict:
    """Stats as a plain dict (without the free-form extras).

    The canonical bit-for-bit comparison form used by the golden,
    oracle, store, sampling and sweep suites alike.
    """
    data = dataclasses.asdict(stats)
    data.pop("extra")
    return data


def event_records(directory) -> list[dict]:
    """Every record of every obs event stream in *directory*."""
    from pathlib import Path

    from repro.obs import read_events

    return [
        record for path in sorted(Path(directory).glob("events-*.jsonl"))
        for record in read_events(path)[0]
    ]
