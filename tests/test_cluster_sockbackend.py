"""The socket backend: shard enclaves behind attested TCP sessions.

What the distributed deployment must prove, roughly bottom-up:

1. Equivalence — the same seeded workload through inline, process and
   socket backends yields byte-identical wire responses and identical
   simulated cycle totals.  The hop's crypto is priced on separate
   meters, so the enclave numbers must match *exactly*.
2. Topology — spawn mode brings up real shard-host processes, places
   handles round-robin (a replica group's members never share a host),
   respawns dead hosts with the same identity seed, and leaks nothing.
3. Attestation — a coordinator pins an expected-measurement list; a host
   attesting anything else (or answering the handshake in plaintext)
   never receives a single RPC.
4. The on-path adversary — tampered or replayed frames on the
   coordinator↔shard hop trip typed alarms, sever the *link*, and leave
   the *enclave* intact: reconnect re-handshakes and finds the data
   still there.
5. Partition vs crash — a partitioned shard raises
   ``ShardUnreachableError`` and heals by reconnect + re-sync; a killed
   enclave is really gone and needs a rebuild.
6. The gauntlet — a 4-shard R=2 cluster over three shard-host processes
   survives a whole-host SIGKILL, scheduled partitions and kills, and a
   wire attack on the hop, with zero acknowledged writes lost.
"""

import json
import multiprocessing
import os
from collections import Counter
import random
import socket
import struct
import threading
import time

import pytest

from repro.cluster import (
    BackgroundServer,
    ClusterClient,
    ClusterConfig,
    FaultPlan,
    HealthMonitor,
    ReplicaState,
    ShardHost,
    SocketBackend,
    SocketShard,
    build_replicated_cluster,
    reap_leaked_hosts,
)
from repro.cluster import rpc
from repro.cluster.framing import read_exactly, write_frame
from repro.cluster.shard import EnclaveSpec
from repro.cluster.session import ClientHandshake
from repro.errors import (
    HandshakeError,
    ProtocolError,
    ShardCrashedError,
    ShardUnreachableError,
)
from repro.server import protocol
from repro.server.protocol import STATUS_OK
from repro.sgx.meter import CycleMeter

from tests.chaos import History, ZipfStream

pytestmark = pytest.mark.dist

EPC = 256 * 1024


def _spec(shard_id="s0", seed=0, capacity=64):
    return EnclaveSpec(shard_id, epc_bytes=EPC, capacity_keys=capacity,
                       seed=seed)


@pytest.fixture()
def thread_host():
    """One in-process shard host (alarms and registry are inspectable)."""
    host = ShardHost(seed=23)
    host.start()
    thread = threading.Thread(target=host.serve_forever, daemon=True)
    thread.start()
    yield host
    host.stop()
    thread.join(5.0)
    assert not thread.is_alive(), "ShardHost.stop() left its accept thread"


class WireInterceptor:
    """An on-path adversary for the coordinator↔shard hop.

    A TCP proxy that forwards length-prefixed frames both ways and, on
    demand, tampers one server→client frame (bit flip in the sealed
    body) or replays the previous one ahead of the real reply.  The
    handshake reply is never touched: the attacks land on established,
    sealed traffic, which is exactly what the session layer must catch.
    """

    def __init__(self, upstream):
        self.upstream = upstream
        self.tamper_one = threading.Event()
        self.replay_one = threading.Event()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.bind(("127.0.0.1", 0))
        self._listener.listen(8)
        self._stopping = False
        self.endpoint = ("127.0.0.1", self._listener.getsockname()[1])
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def close(self):
        self._stopping = True
        self._listener.close()

    def _accept_loop(self):
        while not self._stopping:
            try:
                conn, _ = self._listener.accept()
            except OSError:
                return
            try:
                up = socket.create_connection(self.upstream, timeout=5.0)
            except OSError:
                conn.close()
                continue
            threading.Thread(target=self._pump, args=(conn, up, False),
                             daemon=True).start()
            threading.Thread(target=self._pump, args=(up, conn, True),
                             daemon=True).start()

    def _pump(self, src, dst, mutate):
        previous = None
        try:
            while True:
                header = read_exactly(src, 4)
                (n,) = struct.unpack("<I", header)
                payload = read_exactly(src, n)
                if mutate and previous is not None:
                    if self.tamper_one.is_set():
                        self.tamper_one.clear()
                        body = bytearray(payload)
                        body[len(body) // 2] ^= 0x40
                        payload = bytes(body)
                    elif self.replay_one.is_set():
                        self.replay_one.clear()
                        dst.sendall(previous)  # the stale frame, verbatim
                frame = struct.pack("<I", len(payload)) + payload
                dst.sendall(frame)
                previous = frame
        except Exception:
            pass
        finally:
            for sock_ in (src, dst):
                try:
                    sock_.close()
                except OSError:
                    pass


# ---------------------------------------------------------------------------
# 1. Equivalence
# ---------------------------------------------------------------------------


class TestEquivalence:
    def test_three_backends_bit_identical(self):
        from tests.test_cluster_backends import run_workload

        wire_inline, meters_inline = run_workload("inline")
        wire_socket, meters_socket = run_workload(
            SocketBackend(n_hosts=2, seed=51))
        wire_process, meters_process = run_workload("process")
        assert wire_inline == wire_socket == wire_process
        for a, b, c in zip(meters_inline, meters_socket, meters_process):
            assert a.cycles == b.cycles == c.cycles  # exact, not approximate
            assert a.events == b.events == c.events
        assert multiprocessing.active_children() == []

    def test_hop_crypto_never_pollutes_the_shard_meter(self, thread_host):
        shard = SocketShard(_spec("eq0"), (thread_host.host,
                                           thread_host.port))
        try:
            shard.store.put(b"k", b"v")
            assert shard.store.get(b"k") == b"v"
            # The hop did real work, charged to the wire meter alone.
            assert shard.wire_meter.cycles > 0
            events = shard.meter.snapshot().events
            assert events.get("wire_enc", 0) == 0
            assert events.get("wire_mac", 0) == 0
        finally:
            shard.close()

    def test_reading_a_remote_meter_seals_nothing(self):
        """A meter read is a read: the mirror every reply refreshed, with no
        round trip — so observing the hop does not move the hop's counters
        (a ``sync`` RPC per read once did, 484 -> 493 cycles per op)."""
        coordinator = ClusterConfig(
            n_shards=2, n_keys=256, scale=2048, workers=2,
            backend=SocketBackend(n_hosts=2, seed=52)).build()
        try:
            coordinator.load((b"key-%03d" % i, b"v") for i in range(64))
            shards = coordinator.shard_list()
            stats = coordinator.stats()  # opens its window here
            batch = [protocol.put(b"key-%03d" % i, b"w") for i in range(16)]
            assert all(r.status == STATUS_OK
                       for r in coordinator.execute(batch))

            def sealed():
                return [shard.wire_meter.events["wire_mac"]
                        for shard in shards]

            before = sealed()
            for shard in shards:
                assert type(shard.meter) is CycleMeter
                assert shard.meter.cycles > 0
                assert shard.meter.events["op_put"] > 0
                assert shard.meter.snapshot().cycles == shard.meter.cycles
                assert shard.load_since_mark() > 0
            health = json.loads(coordinator.health_response().value)
            assert set(health["batchexec"]) == {s.shard_id for s in shards}
            assert stats.total_ops() == 16 and stats.cycles_max() > 0
            assert sealed() == before
            # The report's per-shard rows are real ``stats`` RPCs: one
            # sealed call and one opened reply a shard, and nothing else.
            stats.report()
            assert sealed() == [n + 2 for n in before]
        finally:
            coordinator.close()


# ---------------------------------------------------------------------------
# 2. Topology and lifecycle
# ---------------------------------------------------------------------------


class TestTopology:
    def test_every_tcp_end_disables_nagle(self, thread_host):
        """``coordinator.execute`` pipelines a second bucket to a shard whose
        first is in flight, and the door answers REPLAY with two frames back
        to back: with Nagle on, the second small write waits for the first
        one's (delayed) ACK.  All four socket ends set ``TCP_NODELAY``."""
        def nagle_off(sock):
            return sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY) != 0

        shard = SocketShard(_spec("nd0"),
                            (thread_host.host, thread_host.port))
        try:
            shard.store.put(b"k", b"v")    # the host has accepted by now
            assert nagle_off(shard._sock), "SocketShard._dial"
            (accepted,) = thread_host._conns
            assert nagle_off(accepted), "ShardHost._serve_connection"
        finally:
            shard.close()

        coordinator = ClusterConfig(n_shards=1, n_keys=16, scale=2048).build()
        with BackgroundServer(coordinator) as door:
            with ClusterClient.connect(*door.server.address) as client:
                client.put(b"k", b"v")
                assert nagle_off(client._sock), "ClusterClient"
                (accepted,) = door.server._conns
                assert nagle_off(accepted), "the door's accepted socket"

    def test_round_robin_placement_is_host_anti_affine(self):
        backend = SocketBackend(n_hosts=2, seed=11)
        try:
            shards = [backend.create(_spec(f"t{i}")) for i in range(4)]
            pids = [s.pid for s in shards]
            # Two real host processes, neither of them this one...
            assert len(set(pids)) == 2
            assert os.getpid() not in pids
            for pid in set(pids):
                os.kill(pid, 0)  # raises if not alive
            # ...and consecutive creates alternate between them, so a
            # replica group's two members never share a host.
            assert pids[0] != pids[1]
            assert pids[2] != pids[3]
        finally:
            backend.close()
        assert multiprocessing.active_children() == []

    def test_dead_host_is_respawned_with_the_same_identity(self):
        backend = SocketBackend(n_hosts=2, seed=31)
        try:
            s0 = backend.create(_spec("r0"))
            victim = backend.hosts()[0]
            assert s0.pid == victim.pid
            old_pid, old_measurement = victim.pid, victim.measurement
            victim.kill()  # SIGKILL: every enclave on the host dies
            with pytest.raises(ShardCrashedError):
                s0.store.get(b"anything")
            assert s0.crashed
            # Advance round-robin past the live host onto the dead slot:
            # create must respawn it (same seed, hence same measurement).
            backend.create(_spec("r1"))
            s2 = backend.create(_spec("r2"))
            respawned = backend.hosts()[0]
            assert respawned.alive()
            assert respawned.pid != old_pid
            assert respawned.measurement == old_measurement
            assert s2.pid == respawned.pid
        finally:
            backend.close()
        assert multiprocessing.active_children() == []

    def test_reap_leaked_hosts_sweeps_everything(self):
        backend = SocketBackend(n_hosts=2, seed=61)
        shard = backend.create(_spec("l0"))
        hosts = backend.hosts()
        assert all(h.alive() for h in hosts)
        leaked = reap_leaked_hosts()
        assert len(leaked) == 2  # both hosts were still running: leaks
        assert shard.closed
        assert not any(h.alive() for h in hosts)
        assert multiprocessing.active_children() == []
        assert reap_leaked_hosts() == []  # idempotent, nothing left


class TestHostStop:
    """``stop()`` must wake the serving thread, not wait for a timeout.

    Closing a listening socket from another thread does not wake an
    ``accept()`` blocked on it (Linux); every ``thread_host`` teardown used
    to burn its whole 5 s join and leak the thread.
    """

    @staticmethod
    def _serving(host):
        host.start()
        thread = threading.Thread(target=host.serve_forever, daemon=True)
        thread.start()
        time.sleep(0.05)  # let it block in accept()
        return thread

    def test_idle_host_stops_promptly(self):
        host = ShardHost(seed=29)
        thread = self._serving(host)
        started = time.monotonic()
        host.stop()
        thread.join(0.5)
        assert not thread.is_alive()
        assert time.monotonic() - started < 0.5

    def test_host_with_a_live_connection_stops_promptly(self):
        host = ShardHost(seed=31)
        thread = self._serving(host)
        shard = SocketShard(_spec("stop0"), (host.host, host.port))
        try:
            shard.store.put(b"k", b"v")
            workers = [t for t in threading.enumerate()
                       if getattr(t, "_target", None)
                       == host._serve_connection]
            assert workers, "no connection thread is serving the shard"
            started = time.monotonic()
            host.stop()
            thread.join(0.5)
            assert not thread.is_alive()
            # The connection's thread was blocked in recv(); it must go too.
            for worker in workers:
                worker.join(0.5)
                assert not worker.is_alive()
            assert time.monotonic() - started < 0.5
        finally:
            shard.close(0.5)


# ---------------------------------------------------------------------------
# 3. Attestation
# ---------------------------------------------------------------------------


class TestAttestation:
    def test_pinned_measurement_is_verified_and_recorded(self, thread_host):
        shard = SocketShard(
            _spec("a0"), (thread_host.host, thread_host.port),
            expected_measurements=[thread_host.measurement],
        )
        try:
            assert shard.attested_measurement == thread_host.measurement
            shard.store.put(b"k", b"v")
            assert shard.store.get(b"k") == b"v"
        finally:
            shard.close()

    def test_unlisted_measurement_is_refused(self, thread_host):
        with pytest.raises(HandshakeError, match="measurement"):
            SocketShard(
                _spec("a1"), (thread_host.host, thread_host.port),
                expected_measurements=[b"\x00" * 16],
            )

    def test_plaintext_hello_is_alarmed_and_dropped(self, thread_host):
        conn = socket.create_connection((thread_host.host,
                                         thread_host.port), timeout=5.0)
        try:
            conn.settimeout(5.0)
            write_frame(conn, b"\x01GET plaintext please")
            assert conn.recv(1) == b""  # hung up without answering
        finally:
            conn.close()
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if thread_host.alarms["handshake"] >= 1:
                break
            time.sleep(0.01)
        assert thread_host.alarms["handshake"] >= 1

    def test_downgrade_reply_fails_the_handshake(self):
        # A fake "host" that answers the hello in plaintext: the v1
        # downgrade.  The handle must refuse before sending any RPC.
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        host, port = listener.getsockname()[:2]

        def serve():
            conn, _ = listener.accept()
            try:
                read_exactly(conn, 4)  # swallow the hello header...
                write_frame(conn, b"\x00v1: no encryption here")
            except Exception:
                pass
            finally:
                conn.close()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        try:
            with pytest.raises(HandshakeError):
                SocketShard(_spec("a2"), (host, port), connect_timeout=5.0,
                            rpc_timeout=5.0)
        finally:
            listener.close()
            thread.join(5.0)


# ---------------------------------------------------------------------------
# 4. The on-path adversary
# ---------------------------------------------------------------------------


class TestWireAttacks:
    def test_tampered_reply_alarms_severs_and_recovers(self, thread_host):
        mitm = WireInterceptor((thread_host.host, thread_host.port))
        shard = SocketShard(
            _spec("w0"), mitm.endpoint,
            expected_measurements=[thread_host.measurement],
        )
        try:
            shard.store.put(b"k", b"v")
            mitm.tamper_one.set()
            with pytest.raises(ShardUnreachableError, match="tamper"):
                shard.store.get(b"k")
            assert shard.wire_alarms["tamper"] == 1
            assert not shard.crashed  # the LINK died, not the enclave
            # Reconnect re-dials, re-handshakes, re-attaches: the state
            # the adversary tried to corrupt is untouched.
            assert shard.reconnect() is True
            assert shard.store.get(b"k") == b"v"
            assert shard.reconnects == 1
        finally:
            shard.close()
            mitm.close()

    def test_replayed_reply_alarms_severs_and_recovers(self, thread_host):
        mitm = WireInterceptor((thread_host.host, thread_host.port))
        shard = SocketShard(
            _spec("w1"), mitm.endpoint,
            expected_measurements=[thread_host.measurement],
        )
        try:
            shard.store.put(b"k", b"v1")
            shard.store.put(b"k", b"v2")
            mitm.replay_one.set()
            with pytest.raises(ShardUnreachableError, match="replay"):
                shard.store.get(b"k")
            assert shard.wire_alarms["replay"] == 1
            assert shard.reconnect() is True
            assert shard.store.get(b"k") == b"v2"  # no rollback either
        finally:
            shard.close()
            mitm.close()

    def test_host_side_alarm_on_tampered_request(self, thread_host):
        shard = SocketShard(_spec("w2"), (thread_host.host,
                                          thread_host.port))
        try:
            shard.store.put(b"k", b"v")
            # Tamper the client→server direction: seal a real frame and
            # flip a bit before it leaves.  The host must alarm and hang
            # up, never feeding the garbage to the enclave.
            frame = bytearray(
                shard._session.seal(rpc.encode_call("stats")))
            frame[len(frame) // 2] ^= 0x04
            write_frame(shard._sock, bytes(frame))
            deadline = time.monotonic() + 5.0
            while time.monotonic() < deadline:
                if thread_host.alarms["wire"] >= 1:
                    break
                time.sleep(0.01)
            assert thread_host.alarms["wire"] >= 1
        finally:
            shard.close()


class TestOutboundFrameCap:
    """A frame the far reader must refuse is never written (the hop edge).

    ``read_frame`` refuses a length prefix past ``MAX_FRAME_BYTES`` and the
    stream is lost with it; before ``write_frame`` refused the same
    lengths, an oversize flush cost the coordinator the whole shard.
    """

    @staticmethod
    def _oversize_flush():
        return [protocol.put(b"k%03d" % i, bytes([i]) * protocol.MAX_VALUE_BYTES)
                for i in range(129)]

    def test_oversize_flush_is_refused_unsent_and_the_shard_lives(
            self, thread_host):
        shard = SocketShard(_spec("cap0"), (thread_host.host,
                                            thread_host.port))
        try:
            shard.store.put(b"k", b"v")
            with pytest.raises(ProtocolError, match="outside"):
                shard.server.flush_batch(self._oversize_flush())
            with pytest.raises(ProtocolError, match="outside"):
                shard.server.flush_submit(self._oversize_flush())
            # Nothing reached the wire: same link, same enclave, no alarm
            # on the host, no uncollected ticket on the handle.
            assert not shard.crashed
            assert shard.store.get(b"k") == b"v"
            [response] = shard.server.flush_batch([protocol.get(b"k")])
            assert response.value == b"v"
            assert thread_host.alarms["wire"] == 0
            assert thread_host.connections_served == 1
        finally:
            shard.close()

    def test_oversize_reply_comes_back_as_a_typed_error(self):
        host = ShardHost(seed=23)          # never started: _reply only
        handshake = ClientHandshake()
        reply, host_session = host.sessions.accept(handshake.hello())
        parent_session = handshake.finish(reply)
        written = []

        class Conn:
            def sendall(self, data):
                written.append(bytes(data))

            def gettimeout(self):
                return None

        class Enclave:
            meter = CycleMeter(cycles=1.0, events=Counter(ecall=2))

        host._reply(Conn(), host_session, Enclave, "get", rpc.encode_reply(
            "get", True, bytes(protocol.MAX_FRAME_BYTES), Enclave.meter))
        [framed] = written
        mirror = CycleMeter()
        ok, payload = rpc.decode_reply(parent_session.open(framed[4:]),
                                       mirror)
        assert not ok and isinstance(payload, ProtocolError)
        assert "outside" in str(payload)
        # the piggybacked meter survives
        assert mirror.snapshot() == Enclave.meter.snapshot()


# ---------------------------------------------------------------------------
# 5. Partition vs crash
# ---------------------------------------------------------------------------


class TestPartitionVsCrash:
    def test_partition_blackholes_then_reattaches_same_enclave(
            self, thread_host):
        shard = SocketShard(_spec("p0"), (thread_host.host,
                                          thread_host.port))
        try:
            shard.store.put(b"k", b"v")
            shard.partition()
            with pytest.raises(ShardUnreachableError):
                shard.store.get(b"k")
            assert shard.partitioned and not shard.crashed
            assert shard.reconnect() is True
            assert not shard.partitioned
            assert shard.store.get(b"k") == b"v"  # state intact: no spawn
            assert shard.reconnects == 1
        finally:
            shard.close()

    def test_heal_window_gates_reconnect(self, thread_host):
        shard = SocketShard(_spec("p1"), (thread_host.host,
                                          thread_host.port))
        try:
            shard.partition(60.0)
            assert shard.reconnect() is False  # still black-holed
            assert shard.partitioned
            shard.heal()
            assert shard.reconnect() is True
        finally:
            shard.close()

    def test_killed_enclave_cannot_be_reattached(self, thread_host):
        shard = SocketShard(_spec("p2"), (thread_host.host,
                                          thread_host.port))
        shard.store.put(b"k", b"v")
        shard.kill()  # removes the enclave from the host's registry
        assert shard.crashed
        assert shard.reconnect() is False  # attach finds nothing: crash
        assert shard.crashed
        shard.close()

    def test_monitor_reconnects_a_partitioned_replica(self):
        backend = SocketBackend(n_hosts=2, seed=71)
        cluster = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=128, scale=2048, batch_window=8,
            seed=13, backend=backend))
        try:
            monitor = HealthMonitor(cluster, check_every=64)
            cluster.load((b"k-%03d" % i, b"v") for i in range(32))
            group = cluster.shards["shard-0"]
            victim = group.replicas[1]
            victim.shard.inner.partition()
            # The next write fan-out trips on the partition...
            responses = cluster.execute(
                [protocol.put(b"k-%03d" % i, b"w") for i in range(8)])
            assert all(r.status == STATUS_OK for r in responses)
            assert victim.state is ReplicaState.DOWN
            assert victim.last_reason == "unreachable"
            inner = victim.shard.inner
            # ...and the monitor reconnects (no restart: same enclave,
            # same host process) and re-syncs the missed writes.
            reports = monitor.check()
            assert victim.state is ReplicaState.UP
            assert any(r.reconnected and not r.restarted for r in reports)
            assert monitor.total_reconnects() == 1
            assert victim.shard.inner is inner  # the handle survived
            assert victim.shard.restarts == 0
            assert victim.shard.inner.reconnects == 1
            # The reconnected replica caught up on the fan-out it missed.
            assert victim.shard.store.get(b"k-003") == b"w"
        finally:
            cluster.close()
        assert multiprocessing.active_children() == []

    def test_monitor_restarts_a_crashed_replica_instead(self):
        backend = SocketBackend(n_hosts=2, seed=81)
        cluster = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=128, scale=2048, batch_window=8,
            seed=17, backend=backend))
        try:
            monitor = HealthMonitor(cluster, check_every=64)
            cluster.load((b"k-%03d" % i, b"v") for i in range(32))
            group = cluster.shards["shard-0"]
            victim = group.replicas[1]
            old_inner = victim.shard.inner
            victim.shard.kill()
            victim.state = ReplicaState.DOWN
            victim.last_reason = "crash"
            reports = monitor.check()
            assert victim.state is ReplicaState.UP
            assert any(r.restarted and not r.reconnected for r in reports)
            assert victim.shard.inner is not old_inner  # fresh enclave
            assert victim.shard.store.get(b"k-001") == b"v"  # re-synced
        finally:
            cluster.close()
        assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# 6. The gauntlet
# ---------------------------------------------------------------------------


@pytest.mark.faults
class TestGauntlet:
    """The acceptance bar: 4 shards × R=2 over three shard-host
    processes survive SIGKILL + partitions + a wire attack, losing no
    acknowledged write."""

    N_KEYS = 160
    OPS = 900

    def _attack_one_link(self, cluster):
        """Play the on-path adversary against one live shard link."""
        for group in cluster.shard_list():
            for replica in group.replicas:
                inner = getattr(replica.shard, "inner", None)
                if (isinstance(inner, SocketShard) and not inner.crashed
                        and not inner.partitioned
                        and inner._session is not None):
                    frame = bytearray(
                        inner._session.seal(rpc.encode_call("stats")))
                    frame[len(frame) // 2] ^= 0x20
                    try:
                        write_frame(inner._sock, bytes(frame))
                    except Exception:
                        continue
                    return True
        return False

    def test_gauntlet_loses_no_acked_write(self, fault_record):
        backend = SocketBackend(n_hosts=3, seed=91)
        targets = [f"shard-{i}/r{j}" for i in range(4) for j in range(2)]
        plan = fault_record(FaultPlan.chaos(
            targets, horizon=120, n_kills=1, n_corrupts=0, n_partitions=2,
            min_gap=120, seed=9,
        ))
        cluster = build_replicated_cluster(ClusterConfig(
            n_shards=4, replication=2, n_keys=self.N_KEYS, scale=2048,
            batch_window=8, seed=29, backend=backend,
            shard_overrides={"fault_plan": plan}))
        monitor = HealthMonitor(cluster, check_every=64)
        cluster.health_monitor = monitor
        try:
            hosts = backend.hosts()
            assert len(hosts) == 3  # the topology the bar asks for
            host_pids = {h.pid for h in hosts}
            assert len(host_pids) == 3 and os.getpid() not in host_pids

            cluster.load((b"key-%04d" % i, b"init")
                         for i in range(self.N_KEYS))
            history = History(plan=plan)
            stream = ZipfStream(random.Random(7), self.N_KEYS)
            until = history.until_fired(self.OPS, 8 * self.OPS)
            sigkilled = attacked = False
            while until(history.offered):
                if history.offered >= self.OPS // 3 and not sigkilled:
                    backend.hosts()[0].kill()  # a whole host, SIGKILL
                    sigkilled = True
                if history.offered >= self.OPS // 2 and not attacked:
                    attacked = self._attack_one_link(cluster)
                batch = stream.batch()
                history.record(batch, cluster.execute(batch))

            assert sigkilled and attacked
            history.fired()
            downs = sum(r.downs for g in cluster.shard_list()
                        for r in g.replicas)
            assert downs >= 1, plan.describe()

            # Recovery converges: every replica back UP.
            for _ in range(4):
                monitor.check()
            history.replicas_up(cluster)

            # The bar: zero acknowledged writes lost.
            history.readback(cluster.get)

            # And the serving state is still byte-equal across replicas.
            acked = history.acked
            sample = sorted(acked)[:16]
            for group in cluster.shard_list():
                for replica in group.replicas:
                    for key in sample:
                        if group is cluster.shards[
                                cluster.ring.route(key)]:
                            assert replica.shard.store.get(key) \
                                == acked[key]
        finally:
            cluster.close()
        assert multiprocessing.active_children() == []
