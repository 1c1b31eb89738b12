"""The CI gates behind ``repro sweep --smoke``.

Every gate runs one small fixed grid (:func:`_smoke_spec`: mcf and
dealII × baseline and realistic RSEP, 512 + 2000 instructions) along
paths that must agree, and fails unless their
:meth:`~repro.api.result.RunResult.digest` values are equal.
:func:`smoke` runs the requested gates in one fixed order and stops at
the first failure:

1. **sweep** (always): a cold session on a private store, its memoised
   re-run and a fresh session on the warmed store.
2. **sampled** (``--sampled``): a degenerate 100%-duty sampling config
   equals the plain run; an active sampled run is cold == memoised ==
   restored from its own µarch checkpoints (every cell restores one and
   none re-warms), with its sampling fields set and its IPC within a
   loose band of full detail.
3. **lake** (``--lake``): four fresh ``python -m repro sweep`` processes
   on one store — a cold one fills the result lake, a warm one must
   simulate nothing, a lake-off one must never touch the lake, and a
   warm one with ``--shards 2`` must fork no worker.
4. **fault** (``--shards N`` or ``--hosts loopback``): a faulted run on
   forked workers (:class:`~repro.service.worker.ForkDispatcher`) or on
   two real ``repro serve --tcp`` children on 127.0.0.1
   (:class:`~repro.cluster.dispatch.RemoteDispatcher`) under the
   :class:`~repro.service.supervisor.ShardSupervisor` must keep its
   backend's mode, complete, retry every faulted shard and merge to the
   in-process digest.  The fault plan comes from ``REPRO_FAULTS`` (CI
   injects one crash and one corrupt artifact) with the same
   crash+corrupt default when unset, so the gate never runs fault-free
   by accident.

The loopback backend adds the checks only a cluster can fail: the crash
fault must really kill a host (``os._exit`` in the server — the
connection genuinely dies), the coordinator must file one ``.cell`` per
grid cell, and a fresh ``python -m repro sweep --lake`` process on that
lake must simulate zero cells and reproduce the digest.

Child processes are observed the way a user would observe them: under
``REPRO_OBS=1``, their simulated, lake-hit, lake-write and worker counts
are their ``sweep.cell``, ``sweep.cell.lake``, ``sweep.cell.lake_write``
and ``worker.shard`` records, and their digest is their ``--json``
artifact's.
"""

from __future__ import annotations

import dataclasses
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.api import env as api_env
from repro.api.result import RunResult
from repro.api.session import Session
from repro.api.spec import (
    ExperimentSpec,
    StoreSpec,
    WindowSpec,
    default_mechanisms,
)
from repro.obs import read_events
from repro.sampling import SamplingConfig
from repro.service.faults import FaultPlan
from repro.service.supervisor import ShardSupervisor

#: Injected when ``REPRO_FAULTS`` is unset: the first attempt of shard 0
#: dies (a worker or host crash), shard 1's first artifact comes back
#: corrupt (digest rejection); the retries succeed.
DEFAULT_FAULTS = "crash:0,corrupt:1"

#: The sampled gate's configurations: 100% duty folds onto the plain
#: cell; the active one samples a quarter of each 1000-instruction
#: interval.
DEGENERATE_SAMPLING = SamplingConfig(enabled=True, detail_ratio=1.0)
ACTIVE_SAMPLING = SamplingConfig(
    enabled=True, interval=1000, detail_ratio=0.25, detail_warmup=128
)

_ANNOUNCE = re.compile(r"tcp=([0-9.]+):(\d+)")


def _smoke_spec(store: StoreSpec) -> ExperimentSpec:
    """The grid every gate runs, in process or as a CLI child."""
    return ExperimentSpec(
        benchmarks=("mcf", "dealII"),
        mechanisms=default_mechanisms(),
        window=WindowSpec(warmup=512, measure=2000),
        store=store,
    )


def smoke(
    *, sampled: bool = False, lake: bool = False,
    shards: int | None = None, hosts: str | None = None,
) -> int:
    """Run every requested gate in the fixed order; stop at the first
    failure and return its status (2 for an unusable *hosts*)."""
    if hosts not in (None, "loopback"):
        print("repro sweep --smoke --hosts runs the loopback cluster gate; "
              "the only accepted value is 'loopback'", file=sys.stderr)
        return 2
    gates = [sweep_smoke]
    if sampled:
        gates.append(sampled_smoke)
    if lake:
        gates.append(lake_smoke)
    if shards is not None or hosts is not None:
        gates.append(lambda: fault_smoke(
            loopback=hosts is not None, shards=2 if shards is None else shards
        ))
    for gate in gates:
        status = gate()
        if status:
            return status
    return 0


# ---------------------------------------------------------------------------
# In-process gates
# ---------------------------------------------------------------------------


def sweep_smoke() -> int:
    """Cold == memoised == warm-store, on a private temporary store."""
    with tempfile.TemporaryDirectory(prefix="repro-smoke-store-") as root:
        spec = _smoke_spec(StoreSpec(path=root))
        session = Session.for_spec(spec)
        cold = session.run(spec)
        memo = session.run(spec)
        if session.engine.cell_misses != spec.cells:
            print("sweep smoke: unexpected cell miss count "
                  f"({session.engine.cell_misses}, expected {spec.cells})")
            return 1
        stored = list(Path(root).glob("*.trace"))
        if len(stored) != len(spec.benchmarks):
            print(f"sweep smoke: store did not persist ({len(stored)} "
                  f"artifacts for {len(spec.benchmarks)} benchmarks)")
            return 1
        warm_session = Session.for_spec(spec)
        warm = warm_session.run(spec)
        hits = warm_session.simulator.trace_store.hits
        if hits != len(spec.benchmarks):
            print(f"sweep smoke: warm store missed (hits={hits}, "
                  f"expected {len(spec.benchmarks)})")
            return 1
    if not cold.digest() == memo.digest() == warm.digest():
        print(f"sweep smoke: digests diverged (cold {cold.digest()}, "
              f"memoised {memo.digest()}, warm-store {warm.digest()})")
        return 1
    print("sweep smoke: cold == memoised == warm-store "
          f"({spec.cells} cells over {list(spec.benchmarks)}, digest "
          f"{cold.digest()})")
    return 0


def sampled_smoke() -> int:
    """The sampled-simulation gate, on a private temporary store."""
    with tempfile.TemporaryDirectory(prefix="repro-smoke-sampled-") as root:
        spec = _smoke_spec(StoreSpec(path=root))
        session = Session.for_spec(spec)
        full = session.run(spec)
        degenerate = session.run(
            dataclasses.replace(spec, sampling=DEGENERATE_SAMPLING)
        )
        if degenerate.digest() != full.digest():
            print(f"sampled smoke: degenerate digest {degenerate.digest()} "
                  f"!= full-detail {full.digest()}")
            return 1
        active = dataclasses.replace(spec, sampling=ACTIVE_SAMPLING)
        cold = session.run(active)
        memo = session.run(active)
        # A fresh session on the same store restores the µarch
        # checkpoints the cold run captured, one per cell, and re-warms
        # none (a refused checkpoint is re-captured); results must not
        # change.
        warm_session = Session.for_spec(active)
        warm = warm_session.run(active)
        warm_store = warm_session.simulator.trace_store
        if (warm_store.checkpoint_hits, warm_store.checkpoint_writes) != (
            active.cells, 0
        ):
            print("sampled smoke: the warm store loaded "
                  f"{warm_store.checkpoint_hits} checkpoints and re-warmed "
                  f"{warm_store.checkpoint_writes} cells (expected "
                  f"{active.cells} and 0)")
            return 1
    if not cold.digest() == memo.digest() == warm.digest():
        print(f"sampled smoke: digests diverged (cold {cold.digest()}, "
              f"memoised {memo.digest()}, restored {warm.digest()})")
        return 1
    reference = {
        (cell.benchmark, cell.mechanism, cell.seed): cell.ipc
        for cell in full.cells
    }
    for cell in cold.cells:
        key = (cell.benchmark, cell.mechanism, cell.seed)
        stats = cell.stats
        if not (stats.warmed > 0 and stats.intervals > 0
                and stats.sampled_window > 0):
            print(f"sampled smoke: sampling fields unset for {key}")
            return 1
        ipc = reference[key]
        if ipc > 0 and abs(stats.ipc - ipc) / ipc > 0.35:
            print(f"sampled smoke: IPC off by more than 35% for {key} "
                  f"(sampled {stats.ipc:.3f} vs full {ipc:.3f})")
            return 1
    print("sampled smoke: degenerate == full detail, sampled cold == "
          f"memoised == checkpoint-restored ({len(cold.cells)} cells, "
          f"digest {cold.digest()})")
    return 0


# ---------------------------------------------------------------------------
# Child processes through the public CLI
# ---------------------------------------------------------------------------


def _child_env(**overrides: str) -> dict:
    """A hermetic environment for a child ``repro`` process: this
    checkout's sources first on the path, no ambient ``REPRO_*`` state,
    then *overrides*."""
    import repro

    env = {
        name: value for name, value in os.environ.items()
        if not name.startswith("REPRO_")
    }
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, env.get("PYTHONPATH")))
    )
    env.update(overrides)
    return env


def _cli_sweep(root: str, lake: bool, gate: str, shards=0) -> dict | None:
    """One fresh ``python -m repro sweep [--shards N]`` of the smoke
    grid on the store at *root*, with the result lake on or off.

    Returns the child's artifact digest and its event counts (see the
    module docstring), or ``None`` (after printing why) when the child
    failed.
    """
    # The child resolves this same spec: the grid and window from its
    # flags, the store from REPRO_TRACE_STORE and --lake.
    spec = _smoke_spec(StoreSpec(path=root, result_lake=lake))
    names = {
        "sweep.cell": "simulated",
        "sweep.cell.lake": "lake_hits",
        "sweep.cell.lake_write": "lake_writes",
        "worker.shard": "workers",
    }
    with tempfile.TemporaryDirectory(prefix="repro-smoke-child-") as work:
        artifact = Path(work) / "result.json"
        events = Path(work) / "events"
        argv = [
            sys.executable, "-m", "repro", "sweep",
            "--seeds", str(len(spec.seeds)),
            "--warmup", str(spec.window.warmup),
            "--measure", str(spec.window.measure),
            "--json", str(artifact),
        ]
        for benchmark in spec.benchmarks:
            argv += ["--benchmark", benchmark]
        for mechanism in spec.mechanisms:
            argv += ["--mechanism", mechanism.name]
        if lake:
            argv.append("--lake")
        if shards:
            argv += ["--shards", str(shards)]
        child = subprocess.run(
            argv, capture_output=True, text=True,
            env=_child_env(
                REPRO_TRACE_STORE=root, REPRO_OBS="1",
                REPRO_OBS_DIR=str(events), REPRO_METRICS_EVERY="0",
            ),
        )
        if child.returncode != 0:
            print(f"{gate}: child `repro sweep` failed:\n"
                  f"{child.stdout}{child.stderr}")
            return None
        observed = dict.fromkeys(names.values(), 0)
        for path in events.glob("events-*.jsonl"):
            for record in read_events(path)[0]:
                # A span writes a begin and an end record; count it once.
                if record["name"] in names and record["kind"] != "end":
                    observed[names[record["name"]]] += 1
        observed["digest"] = RunResult.load(artifact).digest()
    return observed


def lake_smoke() -> int:
    """Incremental-sweep gate (DESIGN.md §14).

    A cold child populates the lake; a *fresh* child on the warm lake
    must simulate zero cells and produce a digest-identical artifact; a
    lake-off child on the same store must never touch the lake yet stay
    digest-identical — the ``REPRO_RESULT_LAKE`` off = today's behaviour
    guarantee; and a fresh ``--shards 2`` child on the warm lake must
    serve every cell in the coordinator, forking no worker.
    """
    with tempfile.TemporaryDirectory(prefix="repro-smoke-lake-") as root:
        cold = _cli_sweep(root, lake=True, gate="lake smoke")
        if cold is None:
            return 1
        if cold["simulated"] == 0:
            print("lake smoke: cold run simulated nothing")
            return 1
        if cold["lake_writes"] != cold["simulated"]:
            print("lake smoke: cold run did not lake every simulation "
                  f"(simulated={cold['simulated']}, "
                  f"writes={cold['lake_writes']})")
            return 1
        warm = _cli_sweep(root, lake=True, gate="lake smoke")
        if warm is None:
            return 1
        if warm["simulated"] != 0:
            print("lake smoke: warm fresh-process run re-simulated "
                  f"{warm['simulated']} cells")
            return 1
        if warm["digest"] != cold["digest"]:
            print("lake smoke: warm digest diverged "
                  f"({warm['digest']} != {cold['digest']})")
            return 1
        off = _cli_sweep(root, lake=False, gate="lake smoke")
        if off is None:
            return 1
        if off["lake_hits"] or off["lake_writes"]:
            print("lake smoke: lake-off run touched the lake "
                  f"(hits={off['lake_hits']}, writes={off['lake_writes']})")
            return 1
        if off["digest"] != cold["digest"]:
            print("lake smoke: lake-off digest diverged "
                  f"({off['digest']} != {cold['digest']})")
            return 1
        sharded = _cli_sweep(root, lake=True, gate="lake smoke", shards=2)
        if sharded is None:
            return 1
        if (sharded["workers"] or sharded["simulated"]
                or sharded["digest"] != cold["digest"]):
            print(f"lake smoke: warm --shards 2 run forked "
                  f"{sharded['workers']} worker(s), simulated "
                  f"{sharded['simulated']} cell(s), digest "
                  f"{sharded['digest']} (cold {cold['digest']})")
            return 1
    print("lake smoke: warm fresh-process re-run simulated 0 cells "
          f"(lake_hits={warm['lake_hits']}), warm --shards 2 forked 0 "
          "workers, digest-identical cold == warm == lake-off == warm "
          f"sharded ({cold['digest']})")
    return 0


# ---------------------------------------------------------------------------
# Fault gate: forked workers or a loopback cluster
# ---------------------------------------------------------------------------


def fault_smoke(loopback: bool = False, shards: int = 2) -> int:
    """Gate: a faulted run must merge digest-identical to in-process.

    Forked workers by default; with *loopback*, two local ``repro serve
    --tcp`` hosts.
    """
    plan = FaultPlan.parse(api_env.faults_from_env() or DEFAULT_FAULTS)
    supervisor = ShardSupervisor(faults=plan, backoff_base=0.01)
    # Store-less, so the reference cannot pre-warm the lake the
    # loopback run is about to prove out; and on private engines, so
    # neither run is served from a memo another run in this process
    # (the shared engine's, when persistence is off) has filled.
    spec = _smoke_spec(StoreSpec(enabled=False))
    reference = Session(store=spec.store).run(spec)
    if loopback:
        return _loopback_smoke(plan, supervisor, reference, shards)
    outcome = supervisor.run(
        spec, shards=shards, session=Session(store=spec.store)
    )
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


def _spawn_host(env: dict) -> tuple[subprocess.Popen, str] | None:
    """One ``repro serve --tcp 127.0.0.1:0`` child; returns (process,
    "host:port") once the ephemeral port is announced."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--tcp", "127.0.0.1:0"],
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
    a dead host, one coordinator-filed lake cell per grid cell and a
    fresh coordinator that simulates nothing."""
    from repro.cluster.dispatch import run_clustered

    # Hosts are hermetic: no persistent store, no ambient cluster or
    # fault state (the coordinator's faults travel inside requests).
    env = _child_env(REPRO_TRACE_STORE="off")
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
                print("cluster smoke: the coordinator filed "
                      f"{len(lake_cells)} lake cell(s), expected {spec.cells}")
                return 1
            # A fresh coordinator process on the filed lake must
            # simulate nothing and reproduce the same stats.
            fresh = _cli_sweep(lake_root, lake=True, gate="cluster smoke")
            if fresh is None:
                return 1
            if fresh["simulated"] != 0:
                print("cluster smoke: fresh coordinator re-simulated "
                      f"{fresh['simulated']} cell(s) on the filed lake")
                return 1
            if fresh["digest"] != reference.digest():
                print("cluster smoke: fresh-coordinator digest "
                      f"{fresh['digest']} != reference "
                      f"{reference.digest()}")
                return 1
            print(
                "cluster smoke: survived "
                f"{plan.render()!r} across 2 real hosts "
                f"({sum(outcome.attempts.values())} attempts, "
                f"host(s) {', '.join(dead)} died) — merged digest "
                f"{outcome.digest()} == in-process; the coordinator's "
                "filed lake warmed a fresh coordinator to 0 simulations"
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
