"""Fault matrix for the cross-host sweep cluster (DESIGN.md §15).

The wire protocol's failure surface (oversized, truncated, malformed);
client dial retry; the capability handshake rejecting incompatible
hosts; dead-host detection with shard reassignment; duplicate results
from slow hosts; graceful inline degradation with no healthy hosts; and
the coordinator owning the cell caches — it serves its memo and lake
before dispatching anything, hosts only simulate, and the lake the
coordinator files warms a fresh coordinator process to zero
simulations.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from helpers import ServerThread, event_records, spawn_host, stop_host
from repro.api import env as api_env
from repro.api.result import RunResult
from repro.api.session import Session
from repro.api.spec import (
    ExperimentSpec,
    StoreSpec,
    WindowSpec,
    default_mechanisms,
)
from repro.cluster import client, framing
from repro.cluster.dispatch import RemoteDispatcher, run_clustered
from repro.cluster.framing import FrameError
from repro.cluster.hosts import (
    HostSpec,
    capability_mismatch,
    local_capabilities,
    parse_hosts,
)
from repro.cluster.pool import HostPool
from repro.obs import ObsSpec
from repro.service.shards import (
    merge_shards,
    plan_shards,
    validate_shard_result,
)
from repro.service.supervisor import ShardSupervisor
from repro.service.worker import execute_shard


def tiny_spec(**overrides) -> ExperimentSpec:
    settings = dict(
        benchmarks=("mcf", "dealII"),
        mechanisms=default_mechanisms(),
        seeds=(1,),
        window=WindowSpec(warmup=128, measure=512),
        store=StoreSpec(enabled=False),
    )
    settings.update(overrides)
    return ExperimentSpec(**settings)


def fast_supervisor(**overrides) -> ShardSupervisor:
    settings = dict(backoff_base=0.01, backoff_cap=0.05, faults="")
    settings.update(overrides)
    return ShardSupervisor(**settings)


@pytest.fixture(scope="module")
def reference() -> RunResult:
    """The unfaulted in-process artifact every clustered run must match."""
    spec = tiny_spec()
    return Session.for_spec(spec).run(spec)


class ScriptedHost:
    """A fake host speaking just enough protocol to misbehave on cue.

    *capabilities* is what it answers to ``hello`` (default: this
    build's own, i.e. it passes the handshake); *on_shard* scripts the
    shard op: ``"close"`` drops the connection without a byte (host
    death), ``"truncate"`` sends half a response then drops.
    """

    def __init__(self, capabilities=None, on_shard="close"):
        self.capabilities = (
            local_capabilities() if capabilities is None else capabilities
        )
        self.on_shard = on_shard
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.1)
        self.address = self.listener.getsockname()[:2]
        self.shard_requests = 0
        self._stop = threading.Event()
        self.thread = threading.Thread(target=self._serve, daemon=True)

    @property
    def host_list(self) -> str:
        return f"{self.address[0]}:{self.address[1]}"

    def _serve(self):
        while not self._stop.is_set():
            try:
                conn, _ = self.listener.accept()
            except TimeoutError:
                continue
            with conn:
                conn.settimeout(5.0)
                data = b""
                try:
                    while not data.endswith(b"\n"):
                        chunk = conn.recv(1 << 16)
                        if not chunk:
                            break
                        data += chunk
                    message = json.loads(data.decode("utf-8"))
                    if message.get("op") == "hello":
                        conn.sendall(framing.encode_frame(
                            {"ok": True, "hello": self.capabilities}
                        ))
                    elif message.get("op") == "shard":
                        self.shard_requests += 1
                        if self.on_shard == "truncate":
                            conn.sendall(b'{"ok": true, "resu')
                        # "close": fall through — EOF mid-shard.
                except (OSError, ValueError):
                    pass

    def __enter__(self):
        self.thread.start()
        return self

    def __exit__(self, *exc_info):
        self._stop.set()
        self.thread.join(timeout=5.0)
        self.listener.close()


# ---------------------------------------------------------------------------
# Host addressing and environment
# ---------------------------------------------------------------------------


class TestHosts:
    def test_parse_round_trip(self):
        spec = HostSpec.parse("node-a:9091")
        assert spec == HostSpec("node-a", 9091)
        assert spec.address == ("node-a", 9091)
        assert HostSpec.parse(spec.label) == spec

    def test_parse_ipv6_brackets(self):
        spec = HostSpec.parse("[::1]:9091")
        assert spec == HostSpec("::1", 9091)
        assert spec.label == "[::1]:9091"
        assert HostSpec.parse(spec.label) == spec

    @pytest.mark.parametrize("text", [
        "nope", ":9091", "host:", "host:abc", "host:-1", "host:70000",
    ])
    def test_parse_rejects(self, text):
        with pytest.raises(ValueError):
            HostSpec.parse(text)

    def test_parse_hosts_list(self):
        specs = parse_hosts("a:1, b:2,,c:3")
        assert [s.label for s in specs] == ["a:1", "b:2", "c:3"]
        assert parse_hosts(None) == ()
        assert parse_hosts("  ") == ()

    def test_parse_hosts_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_hosts("a:1,a:1")

    def test_env_readers(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        monkeypatch.delenv("REPRO_CONNECT_TIMEOUT", raising=False)
        assert api_env.hosts_from_env() is None
        assert api_env.connect_timeout_from_env() == 5.0
        monkeypatch.setenv("REPRO_HOSTS", "a:1,b:2")
        monkeypatch.setenv("REPRO_CONNECT_TIMEOUT", "0.01")
        assert api_env.hosts_from_env() == "a:1,b:2"
        assert api_env.connect_timeout_from_env() == 0.1  # floored

    def test_known_vars_cover_cluster(self):
        assert "REPRO_HOSTS" in api_env.KNOWN_VARS
        assert "REPRO_CONNECT_TIMEOUT" in api_env.KNOWN_VARS


class TestCapabilities:
    def test_self_compatible(self):
        assert capability_mismatch(local_capabilities()) is None

    def test_extra_keys_ignored(self):
        caps = dict(local_capabilities(), future_field="whatever")
        assert capability_mismatch(caps) is None

    @pytest.mark.parametrize("key", ["protocol", "workload_version"])
    def test_each_capability_enforced(self, key):
        caps = dict(local_capabilities())
        caps[key] = "bogus"
        assert key in capability_mismatch(caps)

    def test_non_dict_rejected(self):
        assert capability_mismatch(None) is not None


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


class TestFraming:
    def test_encode_decode_round_trip(self):
        message = {"op": "hello", "n": 1}
        assert framing.decode_frame(
            framing.encode_frame(message).decode()
        ) == message

    @pytest.mark.parametrize("text", ["not json\n", "[1, 2]\n", '"str"\n'])
    def test_decode_malformed(self, text):
        with pytest.raises(FrameError) as err:
            framing.decode_frame(text)
        assert err.value.kind == "malformed"

    def test_recv_frame_closed_and_truncated(self):
        for payload, kind in ((b"", "closed"), (b'{"ok": tr', "truncated")):
            a, b = socket.socketpair()
            with a, b:
                a.sendall(payload)
                a.close()
                with pytest.raises(FrameError) as err:
                    framing.recv_frame(b)
                assert err.value.kind == kind

    def test_recv_frame_oversized(self):
        a, b = socket.socketpair()
        with a, b:
            a.sendall(b"x" * 256)
            with pytest.raises(FrameError) as err:
                framing.recv_frame(b, limit=64)
            assert err.value.kind == "oversized"


# ---------------------------------------------------------------------------
# Server hardening: one failure surface
# ---------------------------------------------------------------------------


def _raw_exchange(address, payload: bytes, shutdown=False) -> dict:
    """Send raw bytes, return the server's (framed) response."""
    sock = framing.connect(address, connect_timeout=5.0, timeout=10.0)
    try:
        sock.sendall(payload)
        if shutdown:
            sock.shutdown(socket.SHUT_WR)
        return framing.recv_frame(sock)
    finally:
        sock.close()


class TestServerHardening:
    @pytest.fixture()
    def served(self):
        with ServerThread(stream_limit=4096) as served:
            yield served

    def test_malformed_rejected_structured(self, served):
        reply = _raw_exchange(served.address, b"this is not json\n")
        assert reply["ok"] is False
        assert reply["kind"] == "malformed"

    def test_truncated_rejected_structured(self, served):
        reply = _raw_exchange(served.address, b'{"op": "hel', shutdown=True)
        assert reply["ok"] is False
        assert reply["kind"] == "truncated"

    def test_oversized_rejected_structured(self, served):
        filler = b'{"op": "' + b"x" * 8192 + b'"}\n'
        reply = _raw_exchange(served.address, filler)
        assert reply["ok"] is False
        assert reply["kind"] == "oversized"

    def test_unknown_op_rejected(self, served):
        reply = client.call(served.address, {"op": "launch-missiles"})
        assert reply["ok"] is False
        assert "unknown op" in reply["error"]

    def test_server_keeps_serving_after_abuse(self, served):
        _raw_exchange(served.address, b"garbage\n")
        _raw_exchange(served.address, b'{"torn', shutdown=True)
        reply = client.call(served.address, {"op": "hello"})
        assert reply["ok"] is True
        assert capability_mismatch(reply["hello"]) is None
        assert served.server.requests_served == 3


# ---------------------------------------------------------------------------
# Client dial/retry
# ---------------------------------------------------------------------------


class TestClientRetry:
    def test_connection_refused_raises_without_retries(self):
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]
        listener.close()  # nobody home
        with pytest.raises(OSError):
            client.call(address, {"op": "hello"}, connect_timeout=1.0)

    def test_refused_retries_are_bounded_and_backed_off(self):
        listener = socket.create_server(("127.0.0.1", 0))
        address = listener.getsockname()[:2]
        listener.close()
        started = time.monotonic()
        with pytest.raises(OSError):
            client.call(
                address, {"op": "hello"}, connect_timeout=1.0,
                retries=3, backoff=0.02,
            )
        # 0.02 + 0.04 + 0.08 of backoff: proves it redialed, bounded.
        assert time.monotonic() - started >= 0.1

    def test_eof_before_response_is_retried(self):
        # First connection is dropped without a byte (a racing restart);
        # the retry gets a real answer.
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)
        address = listener.getsockname()[:2]
        dropped = threading.Event()

        def serve():
            conn, _ = listener.accept()
            conn.close()  # EOF before any response byte
            dropped.set()
            conn2, _ = listener.accept()
            with conn2:
                conn2.recv(1 << 16)
                conn2.sendall(framing.encode_frame({"ok": True, "n": 2}))

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        reply = client.call(
            address, {"op": "ping"}, retries=2, backoff=0.01
        )
        assert reply == {"ok": True, "n": 2}
        assert dropped.is_set()
        thread.join(timeout=5.0)
        listener.close()

    def test_eof_not_retried_without_budget(self):
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(10.0)
        address = listener.getsockname()[:2]

        def serve_once():
            conn, _ = listener.accept()
            conn.recv(1 << 16)  # drain the request, then clean FIN
            conn.close()

        thread = threading.Thread(target=serve_once, daemon=True)
        thread.start()
        with pytest.raises(FrameError) as err:
            client.call(address, {"op": "ping"}, retries=0)
        assert err.value.kind == "closed"
        thread.join(timeout=5.0)
        listener.close()


# ---------------------------------------------------------------------------
# The golden property and the fault matrix
# ---------------------------------------------------------------------------


class TestClusteredRuns:
    def test_clustered_matches_in_process(self, reference):
        with ServerThread() as served:
            outcome = run_clustered(
                tiny_spec(), hosts=served.host_list, shards=2,
                supervisor=fast_supervisor(),
            )
        assert outcome.mode == "clustered"
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        report = outcome.host_reports[served.host_list]
        assert report["status"] == "alive"
        assert report["dispatched"] == 2

    def test_corrupt_artifact_retries_to_identical_digest(self, reference):
        with ServerThread() as served:
            outcome = run_clustered(
                tiny_spec(), hosts=served.host_list, shards=2,
                supervisor=fast_supervisor(faults="corrupt:0,tamper:1"),
            )
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        assert outcome.attempts[0] == 2 and outcome.attempts[1] == 2
        assert outcome.shard_reports[0].failure_kinds == ("corrupt",)
        assert outcome.shard_reports[1].failure_kinds == ("corrupt",)

    def test_dead_host_mid_shard_reassigns(self, reference):
        # The scripted host passes the handshake, then drops the
        # connection on its first shard — the pool marks it dead and
        # the shard reruns on the healthy host.
        with ServerThread() as served, ScriptedHost() as fake:
            outcome = run_clustered(
                tiny_spec(), hosts=f"{fake.host_list},{served.host_list}",
                shards=2, supervisor=fast_supervisor(),
            )
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        assert fake.shard_requests >= 1
        assert outcome.host_reports[fake.host_list]["status"] == "dead"
        assert outcome.host_reports[served.host_list]["status"] == "alive"
        assert any(
            "host-death" in report.failure_kinds
            for report in outcome.shard_reports.values()
        )

    def test_truncated_response_is_host_death(self, reference):
        with ServerThread() as served, \
                ScriptedHost(on_shard="truncate") as fake:
            outcome = run_clustered(
                tiny_spec(), hosts=f"{fake.host_list},{served.host_list}",
                shards=2, supervisor=fast_supervisor(),
            )
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        assert outcome.host_reports[fake.host_list]["status"] == "dead"

    def test_handshake_mismatch_rejects_and_reroutes(self, reference):
        wrong = dict(local_capabilities(), workload_version="0000deadbeef")
        with ServerThread() as served, \
                ScriptedHost(capabilities=wrong) as fake:
            outcome = run_clustered(
                tiny_spec(), hosts=f"{fake.host_list},{served.host_list}",
                shards=2, supervisor=fast_supervisor(),
            )
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        rejected = outcome.host_reports[fake.host_list]
        assert rejected["status"] == "rejected"
        assert "workload_version" in rejected["reason"]
        # The incompatible host never received a shard.
        assert fake.shard_requests == 0
        assert outcome.host_reports[served.host_list]["dispatched"] == 2

    def test_hang_times_out_without_marking_dead(self, reference):
        spec = tiny_spec()
        session = Session.for_spec(spec)
        with ServerThread() as served:
            pool = HostPool([HostSpec.parse(served.host_list)])
            dispatcher = RemoteDispatcher(pool, deadline=2.0)
            supervisor = fast_supervisor(
                faults="hang:0", dispatcher=dispatcher
            )
            outcome = supervisor.run(spec, shards=2, session=session)
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        assert outcome.shard_reports[0].failure_kinds == ("hang",)
        # A timeout is not proof of death: the host stays in the pool.
        assert pool.report()[served.host_list]["status"] == "alive"

    def test_no_healthy_hosts_degrades_inline(self, reference, tmp_path):
        listener = socket.create_server(("127.0.0.1", 0))
        dead_address = "{}:{}".format(*listener.getsockname()[:2])
        listener.close()
        spec = tiny_spec(obs=ObsSpec(
            enabled=True, dir=str(tmp_path), metrics_every=0
        ))
        session = Session.for_spec(spec)
        pool = HostPool(
            parse_hosts(dead_address), connect_timeout=0.5
        )
        supervisor = fast_supervisor(dispatcher=RemoteDispatcher(pool))
        outcome = supervisor.run(spec, shards=2, session=session)
        assert outcome.mode == "clustered"
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        # Both shards ran on the coordinator's own engine.
        assert session.engine.cell_misses == spec.cells
        inline = [
            record["tags"]["shard"] for record in event_records(tmp_path)
            if record["name"] == "shard.inline"
        ]
        assert sorted(inline) == [0, 1]
        assert pool.report()[dead_address]["status"] == "dead"

    def test_duplicate_shard_result_from_slow_host_merges(self, reference):
        # Reassignment can leave two hosts computing one shard; the
        # merge is duplicate-tolerant because cells are deterministic.
        spec = tiny_spec()
        shards = plan_shards(spec, 2)
        first = execute_shard(shards[0])
        again = execute_shard(shards[0])  # the "slow host" answer
        second = execute_shard(shards[1])
        merged, holes = merge_shards(spec, [first, again, second])
        assert not holes
        assert merged.digest() == reference.digest()

    def test_run_clustered_needs_hosts(self, monkeypatch):
        monkeypatch.delenv("REPRO_HOSTS", raising=False)
        with pytest.raises(ValueError, match="REPRO_HOSTS"):
            run_clustered(tiny_spec())


# ---------------------------------------------------------------------------
# The coordinator owns the cell caches; hosts only simulate
# ---------------------------------------------------------------------------


class TestLakeWriteBack:
    def lake_spec(self, root) -> ExperimentSpec:
        return tiny_spec(store=StoreSpec(path=str(root), result_lake=True))

    def test_warm_lake_dispatches_nothing(self, tmp_path, reference):
        spec = self.lake_spec(tmp_path / "lake")
        Session.for_spec(spec).run(spec)  # fills the lake in process
        session = Session.for_spec(spec)
        with ServerThread() as served:
            outcome = session.run_clustered(
                spec, hosts=served.host_list, shards=2
            )
            assert served.server.requests_served == 0
        assert outcome.mode == "in-process"
        assert outcome.attempts == {}
        assert outcome.host_reports[served.host_list]["dispatched"] == 0
        assert outcome.digest() == reference.digest()
        assert session.engine.lake_hits == spec.cells
        assert session.engine.cell_misses == 0

    def test_coordinator_files_every_cell_hosts_file_none(
        self, tmp_path, monkeypatch, reference
    ):
        # The hosts' own environment turns the lake on: they must
        # still only simulate.
        host_store = tmp_path / "host-store"
        monkeypatch.setenv("REPRO_TRACE_STORE", str(host_store))
        monkeypatch.setenv("REPRO_RESULT_LAKE", "1")
        events = tmp_path / "events"
        spec = dataclasses.replace(
            self.lake_spec(tmp_path / "lake"),
            obs=ObsSpec(enabled=True, dir=str(events), metrics_every=0),
        )
        session = Session.for_spec(spec)
        with ServerThread() as served:
            outcome = session.run_clustered(
                spec, hosts=served.host_list, shards=2
            )
        assert outcome.mode == "clustered" and outcome.complete
        assert outcome.digest() == reference.digest()
        assert session.engine.lake_writes == spec.cells
        assert len(list((tmp_path / "lake").glob("*.cell"))) == spec.cells
        assert list(host_store.glob("*.cell")) == []
        names = [record["name"] for record in event_records(events)]
        # The hosts share this process, so every lake event is counted
        # here: one write per cell, all of them the coordinator's.
        assert names.count("sweep.cell.lake_write") == spec.cells
        assert "sweep.cell.lake" not in names

    def test_round_trip_warms_fresh_coordinator_process(
        self, tmp_path, reference
    ):
        spec = self.lake_spec(tmp_path / "lake")
        with ServerThread() as served:
            session = Session.for_spec(spec)
            outcome = session.run_clustered(
                spec, hosts=served.host_list, shards=2
            )
        assert outcome.complete
        assert outcome.digest() == reference.digest()
        cells = list((tmp_path / "lake").glob("*.cell"))
        assert len(cells) == spec.cells
        # A fresh coordinator *process* on the written-back lake must
        # serve every cell from disk — zero simulations.
        probe = (
            "import json, sys\n"
            "from repro.api.session import Session\n"
            "from repro.api.spec import ExperimentSpec\n"
            "spec = ExperimentSpec.from_dict("
            "json.loads(sys.argv[1]))\n"
            "session = Session.for_spec(spec)\n"
            "result = session.run(spec)\n"
            "print('simulated=%d digest=%s' % ("
            "session.engine.cell_misses, result.digest()))\n"
        )
        child = subprocess.run(
            [sys.executable, "-c", probe, json.dumps(spec.to_dict())],
            capture_output=True, text=True,
            env={
                **os.environ,
                "PYTHONPATH": str(
                    Path(__file__).resolve().parent.parent / "src"
                ),
            },
        )
        assert child.returncode == 0, child.stderr
        line = child.stdout.strip().splitlines()[-1]
        fields = dict(part.split("=", 1) for part in line.split())
        assert fields["simulated"] == "0"
        assert fields["digest"] == reference.digest()


# ---------------------------------------------------------------------------
# Real hosts: two repro serve processes, one killed by the crash fault
# ---------------------------------------------------------------------------


class TestRealHosts:
    def test_survives_a_host_crash_and_a_corrupt_artifact(
        self, tmp_path, reference
    ):
        """``crash:0,corrupt:1`` across two ``repro serve --tcp``
        children: the crash fault's ``os._exit`` ends a host process (a
        :class:`ScriptedHost` only drops a connection), and the
        coordinator still reassigns, retries, merges digest-identical
        and files one lake cell per grid cell."""
        spec = tiny_spec(
            store=StoreSpec(path=str(tmp_path), result_lake=True)
        )
        hosts = {}
        try:
            for _ in range(2):
                process, address = spawn_host()
                hosts[address] = process
            outcome = run_clustered(
                spec, hosts=",".join(hosts), shards=2,
                supervisor=fast_supervisor(faults="crash:0,corrupt:1"),
            )
            dead = [
                label for label, report in outcome.host_reports.items()
                if report["status"] == "dead"
            ]
            assert len(dead) == 1, outcome.host_reports
            assert hosts[dead[0]].wait(timeout=10.0) == 13  # os._exit(13)
            (alive,) = set(hosts) - set(dead)
            assert hosts[alive].poll() is None
        finally:
            for process in hosts.values():
                stop_host(process)
        assert outcome.mode == "clustered" and outcome.complete
        assert outcome.digest() == reference.digest()
        assert sorted(outcome.attempts) == [0, 1]
        assert min(outcome.attempts.values()) >= 2  # both shards faulted
        assert len(list(tmp_path.glob("*.cell"))) == spec.cells


# ---------------------------------------------------------------------------
# Shared validation and CLI error paths
# ---------------------------------------------------------------------------


class TestValidation:
    def test_validate_shard_result_matrix(self):
        spec = tiny_spec()
        shards = plan_shards(spec, 2)
        result = execute_shard(shards[0])
        assert validate_shard_result(shards[0], result) is None
        kind, _ = validate_shard_result(shards[1], result)
        assert kind == "foreign"
        short = dataclasses.replace(result, cells=result.cells[:-1])
        kind, _ = validate_shard_result(shards[0], short)
        assert kind == "corrupt"


class TestCli:
    def test_serve_rejects_bad_tcp(self, capsys):
        from repro.api.cli import main

        assert main(["serve", "--tcp", "nonsense"]) == 2
        assert "host:port" in capsys.readouterr().err

    def test_serve_exits_quietly_on_sigint_mid_request(self, tmp_path):
        events = tmp_path / "events"
        server, address = spawn_host(
            REPRO_OBS="1", REPRO_OBS_DIR=str(events)
        )
        try:
            shard = plan_shards(tiny_spec(), 2)[0]
            closed = []

            def submit():
                try:
                    client.submit_shard(
                        HostSpec.parse(address), shard.to_dict(),
                        fault="hang", timeout=30.0,
                    )
                except FrameError as error:
                    closed.append(error.kind)

            submitter = threading.Thread(target=submit, daemon=True)
            submitter.start()
            # SIGINT only once the server is parked inside the request.
            deadline = time.monotonic() + 30.0
            while "serve.request" not in {
                record["name"] for record in event_records(events)
            }:
                assert time.monotonic() < deadline, "request never arrived"
                time.sleep(0.02)
            time.sleep(0.1)
            server.send_signal(signal.SIGINT)
            output, _ = server.communicate(timeout=30.0)
        finally:
            stop_host(server)
        submitter.join(timeout=10.0)
        assert server.returncode == 0
        assert "Traceback" not in output, output
        assert closed == ["closed"]  # the parked request just ended

    def test_serve_exits_1_when_it_cannot_listen(self):
        env = {
            **os.environ,
            "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src"),
        }
        with socket.create_server(("127.0.0.1", 0)) as held:
            port = held.getsockname()[1]
            done = subprocess.run(
                [sys.executable, "-m", "repro", "serve",
                 "--tcp", f"127.0.0.1:{port}"],
                capture_output=True, text=True, env=env, timeout=30.0,
            )
        assert done.returncode == 1
        (line,) = done.stderr.splitlines()
        assert line.startswith(
            f"repro serve: cannot listen on 127.0.0.1:{port}: "
        ), line
        assert "tcp=" not in done.stdout

    def test_sweep_hosts_loopback_is_a_bad_host_entry(self, capsys):
        from repro.api.cli import main

        assert main(["sweep", "--hosts", "loopback"]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == ("repro sweep: host entry 'loopback' is not "
                        "host:port (e.g. 127.0.0.1:9091)")
