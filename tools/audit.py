#!/usr/bin/env python
"""Run a ``repro`` command with every pipeline it builds audited.

Attaches the invariant auditor of ``tests/auditor.py`` to every
``Pipeline`` the command builds, as ``audit_every_pipeline`` does in the
test suite, then runs ``repro.api.cli.main`` on this script's own
arguments and prints how many pipelines it audited.  It exits non-zero
when an invariant breaks (``AuditError``) or when it audited no pipeline
at all, and with the command's own status otherwise.

Forked shard workers inherit the hook, but their pipelines are not
counted here and an ``AuditError`` in one surfaces only as a failed
shard: set ``REPRO_SHARDS=1`` to keep ``repro figures`` in one process.

Usage::

    REPRO_SHARDS=1 PYTHONPATH=src python tools/audit.py \\
        figures fig4 fig5 fig6 fig7 table1 --warmup 1000 --measure 4000
    PYTHONPATH=src python tools/audit.py sweep --sampled \\
        --benchmark mcf --benchmark dealII --warmup 8000 --measure 200000
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from auditor import AuditError, Auditor  # noqa: E402
from repro.api.cli import main  # noqa: E402
from repro.pipeline.core import Pipeline  # noqa: E402


def audited(argv: list[str]) -> int:
    auditors: list[Auditor] = []
    init = Pipeline.__init__

    def audited_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        auditors.append(Auditor(self))

    Pipeline.__init__ = audited_init
    try:
        status = main(argv)
    except AuditError as error:
        print(f"audit: FAILED in pipeline {len(auditors)}: {error}",
              file=sys.stderr)
        return 1
    finally:
        Pipeline.__init__ = init
    commits = sum(auditor.commits for auditor in auditors)
    print(f"audit: {len(auditors)} pipeline(s) audited, {commits} "
          "commit(s) checked, every invariant held")
    if not auditors:
        print("audit: the command built no pipeline, so nothing was "
              "audited", file=sys.stderr)
        return 1
    return status


if __name__ == "__main__":
    raise SystemExit(audited(sys.argv[1:]))
