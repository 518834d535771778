"""The front door, exercised over real localhost sockets.

Every test here talks to the server the way a network client would: a TCP
connection, length-prefixed wire frames, and nothing else.  The server
runs on a background thread (``BackgroundServer``) against a small but
fully real cluster — enclaves, meters, ring and all.
"""

import socket
import struct
import sys
import threading
import time

import pytest

from repro.cluster import (
    BackgroundServer,
    ClusterClient,
    ClusterConfig,
    FRAME_HEADER,
)
from repro.server import protocol
from repro.server.protocol import BatchRejectedError


def door_threads():
    return [t for t in threading.enumerate() if t.name.startswith("aria-door")]


@pytest.fixture()
def cluster():
    coordinator = ClusterConfig(
        n_shards=2, n_keys=256, scale=2048, batch_window=8).build()
    coordinator.load(
        (b"key-%03d" % i, b"val-%03d" % i) for i in range(64)
    )
    return coordinator


@pytest.fixture()
def server(cluster):
    with BackgroundServer(cluster) as background:
        yield background


@pytest.fixture()
def client(server):
    host, port = server.server.address
    with ClusterClient(host, port) as c:
        yield c


class TestRoundTrips:
    def test_get_put_delete_over_the_wire(self, client):
        assert client.get(b"key-001").value == b"val-001"

        response = client.put(b"wire-key", b"wire-value")
        assert response.status == protocol.STATUS_OK
        assert client.get(b"wire-key").value == b"wire-value"

        assert client.delete(b"wire-key").status == protocol.STATUS_OK
        assert client.get(b"wire-key").status == protocol.STATUS_NOT_FOUND
        assert client.delete(b"wire-key").status == protocol.STATUS_NOT_FOUND

    def test_batch_is_positional_across_shards(self, client):
        requests = [protocol.get(b"key-%03d" % i) for i in range(64)]
        requests.insert(10, protocol.get(b"no-such-key"))
        responses = client.request_batch(requests)
        assert len(responses) == 65
        assert responses[10].status == protocol.STATUS_NOT_FOUND
        for i, response in enumerate(responses[:10]):
            assert response.value == b"val-%03d" % i

    def test_server_counts_traffic(self, server, client):
        client.request_batch([protocol.get(b"key-001")] * 3)
        client.request_batch([protocol.get(b"key-002")])
        assert server.server.frames_served == 2
        assert server.server.requests_served == 4


class TestPipelining:
    def test_many_frames_in_flight(self, client):
        # Write every frame before reading any response: responses must
        # come back in frame order.
        frames = []
        for i in range(20):
            frames.append([protocol.put(b"p-%02d" % i, b"v-%02d" % i),
                           protocol.get(b"p-%02d" % i)])
        for frame in frames:
            client.send_frame(protocol.encode_batch(frame))
        for i in range(20):
            responses = protocol.decode_batch_responses(
                client.recv_frame(), expected=2)
            assert responses[1].value == b"v-%02d" % i

    def test_two_connections_share_the_store(self, server):
        host, port = server.server.address
        with ClusterClient(host, port) as a, ClusterClient(host, port) as b:
            a.put(b"shared", b"from-a")
            assert b.get(b"shared").value == b"from-a"

    def test_a_half_sent_frame_does_not_stall_other_connections(self, server):
        host, port = server.server.address
        with ClusterClient(host, port) as slow:
            sealed = slow._session.seal(
                protocol.encode_batch([protocol.get(b"key-007")]))
            wire = FRAME_HEADER.pack(len(sealed)) + sealed
            slow._sock.sendall(wire[:len(wire) // 2])
            # The slow connection's reader is parked mid-frame, outside the
            # execution lock: another connection is served meanwhile.
            with ClusterClient(host, port) as other:
                assert other.get(b"key-001").value == b"val-001"
            slow._sock.sendall(wire[len(wire) // 2:])
            [response] = protocol.decode_batch_responses(
                slow.recv_frame(), expected=1)
            assert response.value == b"val-007"

    def test_concurrent_sessions_lose_no_gateway_charge(self):
        # Four secure clients race 200 frames each through one door; the
        # gateway meter (one object, charged by every session) must end
        # where a one-after-another replay of the same frames ends.
        from repro.cluster import SessionManager
        from repro.sgx.meter import CycleMeter

        class RacyMeter(CycleMeter):
            """Read, yield the processor, write: a second unsynchronised
            writer loses a charge here for certain, where CPython's plain
            ``+=`` would only lose one once in a long while."""

            __slots__ = ()

            def charge_event(self, event, cycles, n=1):
                total, count = self.cycles, self.events[event]
                time.sleep(0)
                self.cycles, self.events[event] = total + cycles, count + n

        def stream(lane):
            for i in range(200):
                yield [protocol.put(b"lane%d-%02d" % (lane, i % 40),
                                    b"v%06d" % i),
                       protocol.get(b"key-%03d" % ((lane * 50 + i) % 64))]

        def drive(host, port, lane, failures):
            try:
                with ClusterClient(host, port) as c:
                    for batch in stream(lane):
                        assert len(c.request_batch(batch)) == 2
            except Exception as exc:  # pragma: no cover - diagnostic path
                failures.append(exc)

        def run(concurrent):
            coordinator = ClusterConfig(
                n_shards=2, n_keys=512, scale=2048, batch_window=8).build()
            coordinator.load(
                (b"key-%03d" % i, b"val-%03d" % i) for i in range(64))
            failures = []
            sessions = SessionManager(seed=3)
            sessions.meter = RacyMeter()
            with BackgroundServer(coordinator,
                                  sessions=sessions) as background:
                host, port = background.server.address
                threads = [threading.Thread(
                    target=drive, args=(host, port, lane, failures))
                    for lane in range(4)]
                for thread in threads:
                    thread.start()
                    if not concurrent:
                        thread.join(60.0)
                for thread in threads:
                    thread.join(60.0)
                    assert not thread.is_alive()
                assert not failures
                assert background.server.frames_served == 800
                meter = background.server.sessions.meter
                return meter.cycles, dict(meter.events)

        serial = run(concurrent=False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            raced = run(concurrent=True)
        finally:
            sys.setswitchinterval(interval)
        assert raced == serial
        assert serial[1]["wire_mac"] == 2 * 800  # one open + one seal a frame


class TestMalformedInput:
    def test_undecodable_payload_rejected_connection_survives(self, client):
        client.send_frame(b"\xff\xff garbage that is not a batch")
        responses = protocol.decode_batch_responses(client.recv_frame())
        assert protocol.is_batch_rejection(responses)
        # The connection is still usable afterwards.
        assert client.get(b"key-003").value == b"val-003"

    def test_batch_with_oversized_value_rejected_as_unit(self, client, cluster):
        # Hand-build a frame whose second request claims an oversized
        # value: the decode fails, so request #1 must NOT execute either.
        good = protocol.put(b"poisoned", b"x").encode()
        bad = (bytes([protocol.OP_PUT])
               + struct.pack("<H", 3)
               + struct.pack("<I", protocol.MAX_VALUE_BYTES + 1)
               + b"abc" + b"y")
        frame = struct.pack("<H", 2) + good + bad
        client.send_frame(frame)
        responses = protocol.decode_batch_responses(client.recv_frame())
        assert protocol.is_batch_rejection(responses)
        assert b"poisoned" not in cluster.shard_for(b"poisoned").store

    def test_request_batch_raises_on_rejection(self, client):
        with pytest.raises(BatchRejectedError):
            client.send_frame(b"junk!")
            protocol.decode_batch_responses(client.recv_frame(), expected=5)

    def test_oversized_frame_length_closes_connection(self, server):
        host, port = server.server.address
        with ClusterClient(host, port) as client:
            # A hostile length prefix — no payload is ever sent; the server
            # must reject from the header alone and hang up.
            client._sock.sendall(
                FRAME_HEADER.pack(protocol.MAX_FRAME_BYTES + 1))
            responses = protocol.decode_batch_responses(client.recv_frame())
            assert protocol.is_batch_rejection(responses)
            with pytest.raises(ConnectionError):
                client.recv_frame()

    def test_zero_length_frame_closes_connection(self, server):
        host, port = server.server.address
        with ClusterClient(host, port) as client:
            client._sock.sendall(FRAME_HEADER.pack(0))
            responses = protocol.decode_batch_responses(client.recv_frame())
            assert protocol.is_batch_rejection(responses)
            with pytest.raises(ConnectionError):
                client.recv_frame()

    def test_rejected_connection_does_not_poison_others(self, server):
        host, port = server.server.address
        with ClusterClient(host, port) as evil:
            evil._sock.sendall(FRAME_HEADER.pack(0))
            evil.recv_frame()
        with ClusterClient(host, port) as good:
            assert good.get(b"key-005").value == b"val-005"


class TestLifecycle:
    def test_graceful_stop_closes_client_connections(self, cluster):
        background = BackgroundServer(cluster)
        host, port = background.start()
        client = ClusterClient(host, port)
        assert client.get(b"key-001").value == b"val-001"
        background.stop()
        with pytest.raises((ConnectionError, socket.timeout, OSError)):
            client.get(b"key-002")
        client.close()

    def test_stop_wakes_idle_readers_and_leaves_no_thread(self, cluster):
        background = BackgroundServer(cluster)
        host, port = background.start()
        with ClusterClient(host, port) as client:
            assert client.get(b"key-001").value == b"val-001"
            assert len(door_threads()) == 2  # accept loop + one reader
            # The reader is now blocked in recv(): close() alone would
            # leave it there; stop() must shut the socket down to wake it.
            started = time.monotonic()
            background.stop()
            assert time.monotonic() - started < 1.0
            assert door_threads() == []
            # A clean close: end-of-stream, not a reset or a timeout.
            assert client._sock.recv(1) == b""
        # Nothing lingers on the port either: it rebinds at once.
        again = BackgroundServer(cluster, host=host, port=port)
        assert again.start() == (host, port)
        again.stop()

    def test_frame_executing_at_stop_is_still_answered(self, cluster):
        entered, proceed = threading.Event(), threading.Event()
        execute = cluster.execute

        def slow_execute(requests, **kwargs):
            entered.set()
            assert proceed.wait(5.0)
            return execute(requests, **kwargs)

        cluster.execute = slow_execute
        background = BackgroundServer(cluster)
        host, port = background.start()
        with ClusterClient(host, port) as client:
            client.send_frame(protocol.encode_batch(
                [protocol.get(b"key-004")]))
            assert entered.wait(5.0)
            stopper = threading.Thread(target=background.stop)
            stopper.start()
            while not background.server._stopping.is_set():
                time.sleep(0)
            proceed.set()
            # The batch began before stop(): its reply arrives, and only
            # then does the connection close.
            [response] = protocol.decode_batch_responses(
                client.recv_frame(), expected=1)
            assert response.value == b"val-004"
            with pytest.raises(ConnectionError):
                client.recv_frame()
            stopper.join(5.0)
            assert not stopper.is_alive()

    def test_stop_is_idempotent(self, cluster):
        background = BackgroundServer(cluster)
        background.start()
        background.stop()
        background.stop()

    def test_connect_after_stop_refused(self, cluster):
        background = BackgroundServer(cluster)
        host, port = background.start()
        background.stop()
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_bind_retries_until_the_port_frees_up(self, cluster,
                                                  monkeypatch):
        # A restart race: the old process still holds the port when the
        # new one binds.  The server must retry EADDRINUSE (bounded), not
        # die on the first attempt.
        from repro.cluster.netserver import ClusterNetServer
        monkeypatch.setattr(ClusterNetServer, "BIND_RETRY_DELAY", 0.05)
        squatter = socket.socket()
        squatter.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        squatter.bind(("127.0.0.1", 0))
        squatter.listen(1)
        port = squatter.getsockname()[1]

        import threading
        threading.Timer(0.12, squatter.close).start()
        background = BackgroundServer(cluster, port=port)
        try:
            host, bound_port = background.start()
            assert bound_port == port
            with ClusterClient(host, bound_port) as client:
                assert client.get(b"key-001").value == b"val-001"
        finally:
            background.stop()

    def test_bind_gives_up_after_bounded_retries(self, cluster,
                                                 monkeypatch):
        from repro.cluster.netserver import ClusterNetServer
        monkeypatch.setattr(ClusterNetServer, "BIND_RETRY_DELAY", 0.01)
        squatter = socket.socket()
        squatter.bind(("127.0.0.1", 0))
        squatter.listen(1)
        port = squatter.getsockname()[1]
        try:
            background = BackgroundServer(cluster, port=port)
            with pytest.raises(RuntimeError) as excinfo:
                background.start()
            assert isinstance(excinfo.value.__cause__, OSError)
        finally:
            squatter.close()

    def test_max_requests_limit_stops_server(self, cluster):
        with BackgroundServer(cluster, max_requests=2) as background:
            host, port = background.server.address
            with ClusterClient(host, port) as client:
                client.get(b"key-001")
                client.get(b"key-002")
                # Limit hit: the server shut itself down.
                with pytest.raises((ConnectionError, socket.timeout,
                                    OSError)):
                    client.get(b"key-003")
        assert background.server.frames_served == 2


# -- the door against its own past ------------------------------------------------
#
# Captured at the parent of the commit that took the event loop out of the
# front door (one blocking reader per connection): the same seeded stream
# must produce the same responses, simulated cycles and security ledger.
# One number was re-recorded since: when the deadline moved from an envelope
# inside the payload to the v2 header, the stream's three spent-budget
# frames each shed 6 encrypted and 2 MAC'd bytes, 23 gateway cycles a frame
# (15,494,946 -> 15,494,877); digest, shard cycles and every counter held.
# When the door became v2-only, the ledger lost three keys of the removed
# wire policy ("security", "hellos_refused", "downgrade_injections");
# nothing else changed.

PARENT_STREAM = {
    "digest":
        "1f4f6b58fcbd7eb88c73a50614c6f4a822f5fd542c7fb12182db42ea364b0d76",
    "shard_cycles": [2895643.5, 2519317.75],
    "gateway_cycles": 15494877.0,
    "wire_stats": {
        "tamper_alarms": 0,
        "replay_alarms": 0,
        "stale_session_alarms": 0,
        "handshake_failures": 0,
        "plaintext_rejections": 0,
        "tamper_injections": 1,
        "replay_injections": 1,
        "overload": {
            "max_inflight": None,
            "max_connections": None,
            "frames_shed": 3,
            "requests_shed": 15,
            "deadline_shed_frames": 3,
            "connections_refused": 0,
            "max_inflight_seen": 0,
            "queue_shed": 0,
            "expired_shed": 0,
        },
        "gateway": {
            "handshakes": 4,
            "active_sessions": 1,
            "retired_sessions": 3,
            "cipher": "fast/aes-ctr+cmac",
            "cycles": 15494877.0,
            "events": {"wire_kex": 8, "wire_quote": 4,
                       "wire_enc": 399, "wire_mac": 399},
        },
    },
}


def drive_seeded_stream(n_frames=200, seed=1809):
    """One secure client, ``n_frames`` frames: mixed batches, undecodable
    payloads, spent budgets, and a delay/tamper/replay/close fault each."""
    import hashlib
    import random

    from repro.cluster import FaultPlan, SessionManager
    from repro.cluster.overload import Deadline
    from repro.errors import AriaError

    rng = random.Random(seed)
    coordinator = ClusterConfig(
        n_shards=2, n_keys=512, scale=2048, batch_window=8).build()
    coordinator.load((b"key-%03d" % i, b"val-%03d" % i) for i in range(256))
    plan = (FaultPlan().delay(at=30, seconds=0.001).tamper(at=60)
            .replay(at=120).close(at=150))
    digest = hashlib.sha256()
    with BackgroundServer(coordinator, fault_plan=plan,
                          sessions=SessionManager(seed=7)) as background:
        host, port = background.server.address
        client = ClusterClient(host, port, retries=0)
        try:
            for i in range(n_frames):
                batch = []
                for _ in range(rng.randint(1, 8)):
                    key = b"key-%03d" % rng.randrange(320)
                    roll = rng.random()
                    if roll < 0.7:
                        batch.append(protocol.get(key))
                    elif roll < 0.95:
                        batch.append(protocol.put(key, b"v%05d" % i))
                    else:
                        batch.append(protocol.delete(key))
                payload = protocol.encode_batch(batch)
                spent = None
                if i % 37 == 36:
                    payload = b"\xff\xff not a batch %d" % i
                elif i % 53 == 52:
                    spent = Deadline(0.0)
                try:
                    client.send_frame(payload, spent)
                    digest.update(client.recv_frame())
                except AriaError as exc:
                    digest.update(type(exc).__name__.encode())
                    client._reconnect()
            stats = background.server.wire_stats()
            gateway_cycles = background.server.sessions.meter.cycles
        finally:
            client.close()
    return {
        "digest": digest.hexdigest(),
        "shard_cycles": [shard.meter.cycles
                         for shard in coordinator.shard_list()],
        "gateway_cycles": gateway_cycles,
        "wire_stats": stats,
    }


class TestParentEquivalence:
    def test_seeded_stream_matches_the_parent_commit(self):
        assert drive_seeded_stream() == PARENT_STREAM
