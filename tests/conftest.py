"""Tier-1 test isolation.

The persistent trace store (`repro.workloads.store`) is disabled for the
test suite: tests must not read traces written by earlier sessions (or
benches) nor litter the user's cache.  Store behaviour itself is covered
explicitly in ``tests/test_trace_store.py`` with private store roots.

Each test also starts on a fresh process-wide sweep engine: the shared
engine reads its store from the environment once, when it is built, so
a test gets one built under its own environment, and no test is served
cells another test left in its memo.
"""

import os

import pytest

os.environ["REPRO_TRACE_STORE"] = "off"


@pytest.fixture(autouse=True)
def fresh_shared_engine(monkeypatch):
    from repro.harness import sweep

    monkeypatch.setattr(sweep, "_shared", None)
