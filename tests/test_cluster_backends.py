"""The ShardBackend seam: inline and process backends are interchangeable.

Three claims, in increasing order of violence:

1. Resolution — the explicit-arg > env > ``inline`` precedence order,
   and loud failures for unknown names.
2. Equivalence — the *same* seeded workload through both backends yields
   byte-identical wire responses and identical simulated cycle totals.
   Metering crosses the pipe as absolute snapshots, so there is no float
   drift to hide behind: the numbers must match exactly.
3. Crash realism — ``kill()`` on a process-backed replica is a
   real ``SIGKILL``; the worker PID is dead to the OS, the health monitor
   respawns a fresh process, re-syncs it over the trusted path, and no
   acknowledged write is lost.
"""

import multiprocessing
import os

import pytest

from repro.cluster import (
    BACKEND_NAMES,
    BackgroundServer,
    ClusterConfig,
    HealthMonitor,
    InlineBackend,
    ProcessBackend,
    ReplicaState,
    SocketBackend,
    build_replicated_cluster,
    resolve_backend,
)
from repro.cluster.backend import BACKEND_ENV_VAR
from repro.errors import ConfigurationError, UnknownBackendError
from repro.server import protocol
from repro.server.protocol import encode_batch_responses

procs = pytest.mark.procs


def seeded_workload(n_loaded=64, n_gets=40, n_puts=10):
    load = [(b"k-%03d" % i, b"v-%03d" % i) for i in range(n_loaded)]
    requests = [protocol.get(b"k-%03d" % (i * 7 % n_loaded))
                for i in range(n_gets)]
    requests += [protocol.put(b"k-%03d" % i, b"w-%03d" % i)
                 for i in range(n_puts)]
    return load, requests


def run_workload(backend):
    cluster = ClusterConfig(
        n_shards=2, n_keys=256, scale=2048, batch_window=8, seed=3,
        backend=backend).build()
    try:
        load, requests = seeded_workload()
        cluster.load(load)
        responses = cluster.execute(requests)
        wire = encode_batch_responses(responses)
        meters = [s.meter.snapshot() for s in cluster.shard_list()]
        return wire, meters
    finally:
        cluster.close()


class TestResolution:
    def test_default_is_inline(self):
        assert resolve_backend(None).name == "inline"

    def test_names_resolve_to_instances(self):
        assert isinstance(resolve_backend("inline"), InlineBackend)
        assert isinstance(resolve_backend("process"), ProcessBackend)
        # Resolving "socket" must not spawn hosts yet: the pool is lazy.
        assert isinstance(resolve_backend("socket"), SocketBackend)
        for name in BACKEND_NAMES:
            assert resolve_backend(name).name == name

    def test_instance_passes_through(self):
        backend = InlineBackend()
        assert resolve_backend(backend) is backend

    def test_unknown_name_is_loud(self):
        with pytest.raises(ValueError, match="backend"):
            resolve_backend("threads")

    def test_unknown_name_is_a_typed_error(self):
        # Catchable as config misuse or as the historical ValueError.
        assert issubclass(UnknownBackendError, ConfigurationError)
        assert issubclass(UnknownBackendError, ValueError)
        with pytest.raises(UnknownBackendError):
            resolve_backend("threads")

    def test_full_precedence_chain(self, monkeypatch):
        # explicit arg > env var > inline.
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        assert resolve_backend(None).name == "process"  # env fills the gap
        # An explicit name or instance beats the env var.
        assert resolve_backend("inline").name == "inline"
        explicit = InlineBackend()
        assert resolve_backend(explicit) is explicit
        monkeypatch.delenv(BACKEND_ENV_VAR)
        assert resolve_backend(None).name == "inline"  # nothing set: inline

    def test_env_var_supplies_default(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "inline")
        assert resolve_backend(None).name == "inline"
        monkeypatch.setenv(BACKEND_ENV_VAR, "bogus")
        with pytest.raises(ValueError, match="backend"):
            resolve_backend(None)


@procs
class TestEquivalence:
    def test_byte_identical_responses_and_cycles(self):
        wire_inline, meters_inline = run_workload("inline")
        wire_proc, meters_proc = run_workload("process")
        assert wire_inline == wire_proc
        for a, b in zip(meters_inline, meters_proc):
            assert a.cycles == b.cycles  # exact: snapshots, not deltas
            assert a.events == b.events

    def test_stats_report_matches(self):
        rows = {}
        for name in ("inline", "process"):
            cluster = ClusterConfig(
                n_shards=2, n_keys=256, scale=2048, batch_window=8, seed=3,
                backend=name).build()
            try:
                load, requests = seeded_workload()
                cluster.load(load)
                cluster.execute(requests)
                report = cluster.stats().report()
                rows[name] = {
                    shard_id: (row["keys"], row["ops_executed"])
                    for shard_id, row in report["shards"].items()
                }
            finally:
                cluster.close()
        assert rows["inline"] == rows["process"]


@procs
class TestProcessLifecycle:
    def test_workers_are_real_processes(self):
        cluster = ClusterConfig(
            n_shards=2, n_keys=128, scale=2048, backend="process").build()
        try:
            pids = [s.pid for s in cluster.shard_list()]
            assert len(set(pids)) == 2
            assert os.getpid() not in pids
            for pid in pids:
                os.kill(pid, 0)  # raises if not alive
        finally:
            cluster.close()

    def test_close_joins_workers_and_is_idempotent(self):
        cluster = ClusterConfig(
            n_shards=2, n_keys=128, scale=2048, backend="process").build()
        pids = [s.pid for s in cluster.shard_list()]
        cluster.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
        assert multiprocessing.active_children() == []
        cluster.close()  # second close is a no-op, not an error

    def test_background_server_close_drains_and_joins(self):
        cluster = ClusterConfig(
            n_shards=2, n_keys=256, scale=2048, batch_window=8,
            backend="process").build()
        cluster.load((b"k-%03d" % i, b"v-%03d" % i) for i in range(32))
        background = BackgroundServer(cluster)
        background.start()
        try:
            from repro.cluster import ClusterClient

            host, port = background.server.address
            with ClusterClient(host, port) as client:
                assert client.get(b"k-001").value == b"v-001"
        finally:
            background.close()
        assert multiprocessing.active_children() == []

    def test_crashed_shard_reports_unavailable_not_hang(self):
        cluster = ClusterConfig(
            n_shards=2, n_keys=256, scale=2048, batch_window=4,
            backend="process").build()
        try:
            cluster.load((b"k-%03d" % i, b"v-%03d" % i) for i in range(32))
            victim = cluster.shard_for(b"k-001")
            victim.kill()
            responses = cluster.execute([protocol.get(b"k-%03d" % i)
                                         for i in range(32)])
            statuses = {r.status for r in responses}
            assert protocol.STATUS_UNAVAILABLE in statuses
            assert cluster.flush_failures >= 1
        finally:
            cluster.close()


@procs
@pytest.mark.faults
class TestChaosWithRealKills:
    def test_sigkill_respawn_resync_loses_no_acked_write(self):
        cluster = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=2, n_keys=256, scale=2048, batch_window=8,
            seed=5, backend="process"))
        try:
            monitor = HealthMonitor(cluster, check_every=64)
            cluster.load((b"k-%03d" % i, b"v-%03d" % i) for i in range(64))

            victim = cluster.shards["shard-0"].replicas[1]
            old_pid = victim.shard.pid
            victim.shard.kill()
            with pytest.raises(ProcessLookupError):
                os.kill(old_pid, 0)  # really dead, to the OS

            # Writes stay acked while one replica is down...
            acked = {}
            responses = cluster.execute(
                [protocol.put(b"k-%03d" % i, b"post-%d" % i)
                 for i in range(10)]
            )
            for i, response in enumerate(responses):
                assert response.status == protocol.STATUS_OK
                acked[b"k-%03d" % i] = b"post-%d" % i

            # ...the monitor respawns a fresh worker and re-syncs it...
            victim.state = ReplicaState.DOWN
            reports = monitor.check()
            assert any(r.restarted for r in reports)
            new_pid = victim.shard.pid
            assert new_pid != old_pid
            os.kill(new_pid, 0)
            assert victim.state is ReplicaState.UP

            # ...and every acknowledged write survives the whole episode.
            for i in range(64):
                key = b"k-%03d" % i
                want = acked.get(key, b"v-%03d" % i)
                assert cluster.get(key) == want
        finally:
            cluster.close()
        assert multiprocessing.active_children() == []
