"""CI fault gate for both dispatchers.

``repro sweep --smoke --shards N`` runs it on forked workers
(:class:`~repro.service.worker.ForkDispatcher`); ``repro sweep --smoke
--hosts loopback`` on two real ``repro serve --tcp`` children on
127.0.0.1 (:class:`~repro.cluster.dispatch.RemoteDispatcher`).  Either
way a small fixed sweep runs once in-process as the reference and once
through the :class:`~repro.service.supervisor.ShardSupervisor` under
fault injection, and the gate fails unless the faulted run kept its
backend's mode, completed, retried every faulted shard and merged to a
digest *identical* to the reference.  The fault plan comes from
``REPRO_FAULTS`` (CI injects one crash and one corrupt artifact) with
the same crash+corrupt default when unset, so the gate never runs
fault-free by accident.

The loopback backend adds the checks only a cluster can fail: the crash
fault must really kill a host (``os._exit`` in the server — the
connection genuinely dies), the hosts' lake write-back must file one
``.cell`` per grid cell, and a *fresh coordinator process* on that lake
must simulate zero cells and reproduce the identical stats.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import env as api_env
from repro.api.spec import (
    ExperimentSpec,
    StoreSpec,
    WindowSpec,
    default_mechanisms,
)
from repro.service.faults import FaultPlan
from repro.service.supervisor import ShardSupervisor

#: Injected when ``REPRO_FAULTS`` is unset: the first attempt of shard 0
#: dies (a worker or host crash), shard 1's first artifact comes back
#: corrupt (digest rejection); the retries succeed.
DEFAULT_FAULTS = "crash:0,corrupt:1"

_ANNOUNCE = re.compile(r"tcp=([0-9.]+):(\d+)")


def _smoke_spec(store: StoreSpec) -> ExperimentSpec:
    """The gate's grid — also the grid ``python -m repro.harness.sweep
    --lake-child`` runs, which the loopback fresh-coordinator check
    relies on."""
    return ExperimentSpec(
        benchmarks=("mcf", "dealII"),
        mechanisms=default_mechanisms(),
        window=WindowSpec(warmup=512, measure=2000),
        store=store,
    )


def fault_smoke(hosts: str | None = None, shards: int = 2) -> int:
    """Gate: a faulted run must merge digest-identical to in-process.

    *hosts* ``None`` runs forked workers; ``"loopback"`` runs two local
    ``repro serve --tcp`` hosts.
    """
    from repro.api.session import Session

    if hosts not in (None, "loopback"):
        raise ValueError(f"hosts must be None or 'loopback', not {hosts!r}")
    plan = FaultPlan.parse(api_env.faults_from_env() or DEFAULT_FAULTS)
    supervisor = ShardSupervisor(faults=plan, backoff_base=0.01)
    # Store-less, so the reference cannot pre-warm the lake the
    # loopback run is about to prove out.
    spec = _smoke_spec(StoreSpec(enabled=False))
    reference = Session.for_spec(spec).run(spec)
    if hosts is None:
        outcome = supervisor.run(spec, shards=shards)
        problem = _problem(outcome, "sharded", plan, reference)
        if problem is not None:
            print(f"sharded smoke: {problem}")
            return 1
        print(
            "sharded smoke: survived "
            f"{plan.render()!r} over {len(outcome.attempts)} shards "
            f"({sum(outcome.attempts.values())} attempts, "
            f"{len(outcome.failures)} failures) — merged digest "
            f"{outcome.digest()} == in-process"
        )
        return 0
    return _loopback_smoke(plan, supervisor, reference, shards)


def _problem(outcome, mode: str, plan: FaultPlan, reference) -> str | None:
    """Why a faulted run fails the checks both backends share, or
    ``None``."""
    if outcome.mode != mode:
        return f"expected a {mode} run, got {outcome.mode}"
    if not outcome.complete:
        return (f"holes after retries: {list(outcome.holes)} "
                f"(failures: {list(outcome.failures)})")
    faulted = {
        fault.shard for fault in plan.faults
        if fault.shard in outcome.attempts
    }
    undertried = [
        shard for shard in sorted(faulted) if outcome.attempts[shard] < 2
    ]
    if not faulted or undertried:
        return ("injected faults did not force retries "
                f"(plan {plan.render()!r}, attempts {outcome.attempts})")
    if outcome.digest() != reference.digest():
        return (f"faulted {mode} digest {outcome.digest()} != in-process "
                f"{reference.digest()}")
    return None


# ---------------------------------------------------------------------------
# Loopback cluster
# ---------------------------------------------------------------------------


def _grid_digest(result) -> str:
    """The digest ``repro.harness.sweep --lake-child`` prints, computed
    from a :class:`~repro.api.result.RunResult` — one digest definition
    for "same stats" across the clustered run and the fresh-coordinator
    child."""
    grouped: dict[str, list] = {}
    for cell in sorted(
        result.cells, key=lambda c: (c.benchmark, c.mechanism, c.seed)
    ):
        grouped.setdefault(f"{cell.benchmark}|{cell.mechanism}", []).append(
            dataclasses.asdict(cell.stats)
        )
    payload = dict(sorted(grouped.items()))
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True).encode()
    ).hexdigest()[:16]


def _child_env() -> dict:
    env = dict(os.environ)
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # Hosts are hermetic: no persistent store, no ambient cluster or
    # fault state (the coordinator's faults travel inside requests).
    env["REPRO_TRACE_STORE"] = "off"
    env.pop("REPRO_HOSTS", None)
    env.pop("REPRO_FAULTS", None)
    return env


def _spawn_host(env: dict) -> tuple[subprocess.Popen, str] | None:
    """One ``repro serve --tcp 127.0.0.1:0`` child; returns (process,
    "host:port") once the ephemeral port is announced."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve",
         "--tcp", "127.0.0.1:0", "--no-socket"],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env,
    )
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        if process.poll() is not None:
            print("cluster smoke: serve child exited before announcing "
                  f"(code {process.returncode})")
            return None
        line = process.stdout.readline()
        match = _ANNOUNCE.search(line or "")
        if match:
            return process, f"{match.group(1)}:{match.group(2)}"
    process.kill()
    print("cluster smoke: serve child never announced its port")
    return None


def _loopback_smoke(plan, supervisor, reference, shards: int) -> int:
    """The shared checks on two real hosts, then the cluster-only ones:
    a dead host, the lake write-back count and a fresh coordinator that
    simulates nothing."""
    from repro.cluster.dispatch import run_clustered

    env = _child_env()
    hosts: list[tuple[subprocess.Popen, str]] = []
    try:
        for _ in range(2):
            spawned = _spawn_host(env)
            if spawned is None:
                return 1
            hosts.append(spawned)
        host_list = ",".join(address for _, address in hosts)
        with tempfile.TemporaryDirectory(
            prefix="repro-smoke-cluster-"
        ) as lake_root:
            spec = _smoke_spec(StoreSpec(path=lake_root, result_lake=True))
            outcome = run_clustered(
                spec, hosts=host_list, shards=shards, supervisor=supervisor,
            )
            problem = _problem(outcome, "clustered", plan, reference)
            if problem is not None:
                print(f"cluster smoke: {problem}")
                return 1
            dead = [
                label for label, report in outcome.host_reports.items()
                if report["status"] == "dead"
            ]
            if not dead:
                print("cluster smoke: the crash fault killed no host "
                      f"(host reports: {outcome.host_reports})")
                return 1
            lake_cells = list(Path(lake_root).glob("*.cell"))
            if len(lake_cells) != spec.cells:
                print("cluster smoke: lake write-back left "
                      f"{len(lake_cells)} cell(s), expected {spec.cells}")
                return 1
            # A fresh coordinator process on the written-back lake must
            # simulate nothing and reproduce the same stats.
            child = subprocess.run(
                [sys.executable, "-m", "repro.harness.sweep",
                 "--lake-child", lake_root, "on"],
                capture_output=True, text=True, env=env,
            )
            if child.returncode != 0 or not child.stdout.strip():
                print("cluster smoke: fresh-coordinator child failed:\n"
                      f"{child.stdout}{child.stderr}")
                return 1
            line = child.stdout.strip().splitlines()[-1]
            fields = dict(part.split("=", 1) for part in line.split())
            if int(fields["simulated"]) != 0:
                print("cluster smoke: fresh coordinator re-simulated "
                      f"{fields['simulated']} cell(s) on the written-back "
                      "lake")
                return 1
            if fields["digest"] != _grid_digest(reference):
                print("cluster smoke: fresh-coordinator digest "
                      f"{fields['digest']} != reference "
                      f"{_grid_digest(reference)}")
                return 1
            print(
                "cluster smoke: survived "
                f"{plan.render()!r} across 2 real hosts "
                f"({sum(outcome.attempts.values())} attempts, "
                f"host(s) {', '.join(dead)} died) — merged digest "
                f"{outcome.digest()} == in-process; written-back lake "
                f"warmed a fresh coordinator to 0 simulations"
            )
            return 0
    finally:
        for process, _ in hosts:
            if process.poll() is None:
                process.terminate()
                try:
                    process.wait(timeout=10.0)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    process.kill()
                    process.wait(timeout=10.0)
            if process.stdout is not None:
                process.stdout.close()
