"""Encrypted, attested wire sessions: handshake edges, AEAD framing, chaos.

Every socket test talks to a real :class:`BackgroundServer` over TCP, the
way a network attacker would see it; the unit tests drive the session
objects directly.  The module is backend-parametrized via conftest, so the
whole suite runs against inline and process shard backends.
"""

import socket
import struct
import threading
import warnings

import pytest

from repro.cluster import (
    BackgroundServer,
    ClusterClient,
    ClusterConfig,
    FaultPlan,
)
from repro.cluster import session as wire
from repro.cluster.framing import read_frame, write_frame
from repro.crypto.backend import get_backend
from repro.crypto.keys import KeyMaterial
from repro.errors import (
    ClusterConnectionError,
    ClusterTimeoutError,
    ConfigurationError,
    HandshakeError,
    ProtocolError,
    ReplayError,
    StaleSessionError,
    TamperedFrameError,
)
from repro.server import protocol

from tests.chaos import History

pytestmark = pytest.mark.wire


def wire_cluster():
    coordinator = ClusterConfig(
        n_shards=2, n_keys=256, scale=2048, batch_window=8).build()
    coordinator.load(
        (b"key-%03d" % i, b"val-%03d" % i) for i in range(32)
    )
    return coordinator


@pytest.fixture()
def cluster():
    return wire_cluster()


@pytest.fixture()
def server(cluster):
    with BackgroundServer(cluster) as background:
        yield background


@pytest.fixture()
def client(server):
    host, port = server.server.address
    with ClusterClient.connect(host, port) as c:
        yield c


def _handshaken_pair():
    """A manager + established (client session, server session) triple."""
    manager = wire.SessionManager()
    handshake = wire.ClientHandshake()
    reply, server_session = manager.accept(handshake.hello())
    client_session = handshake.finish(reply)
    return manager, client_session, server_session


# ---------------------------------------------------------------------------
# Frame codec + enum API
# ---------------------------------------------------------------------------

class TestFrameCodec:
    def test_v1_frames_are_byte_identical_to_legacy(self):
        # A bare batch (the old v1 payload) is no frame: it cannot be
        # encoded under version 1 and does not decode.
        batch = protocol.encode_batch([protocol.get(b"k"),
                                       protocol.put(b"k", b"v")])
        with pytest.raises(ProtocolError, match="unsupported wire version"):
            protocol.encode_frame(protocol.FrameHeader(version=1), batch)
        with pytest.raises(ProtocolError, match="no magic"):
            protocol.decode_frame(batch)

    def test_v2_header_round_trips(self):
        header = protocol.FrameHeader(
            version=protocol.WIRE_V2, flags=protocol.FLAG_FROM_SERVER,
            session_id=0xDEADBEEF, seq=42,
        )
        decoded, body = protocol.decode_frame(
            protocol.encode_frame(header, b"payload"))
        assert decoded == header
        assert body == b"payload"

    def test_v1_header_carries_no_fields(self):
        with pytest.raises(ProtocolError):
            protocol.FrameHeader(version=1, seq=1).encode()

    def test_truncated_v2_header_rejected(self):
        frame = protocol.FrameHeader(version=protocol.WIRE_V2).encode()
        with pytest.raises(ProtocolError):
            protocol.decode_frame(frame[:-5])

    def test_unknown_version_and_flags_rejected(self):
        good = protocol.FrameHeader(version=protocol.WIRE_V2).encode()
        bad_version = good[:2] + b"\x07" + good[3:]
        with pytest.raises(ProtocolError):
            protocol.decode_frame(bad_version)
        bad_flags = good[:3] + b"\x80" + good[4:]
        with pytest.raises(ProtocolError):
            protocol.decode_frame(bad_flags)

    def test_v2_magic_cannot_collide_with_a_v1_batch(self):
        # A v1 batch leads with its u16 count; the count cap keeps the
        # second byte far below the second magic byte.
        (count_hi,) = struct.unpack_from(
            "<H", protocol.encode_batch(
                [protocol.get(b"k")] * protocol.MAX_BATCH_COUNT))
        assert (count_hi >> 8) < protocol.V2_MAGIC[1]

    def test_opcode_and_status_enums_are_the_wire_bytes(self):
        assert protocol.OpCode.GET == protocol.OP_GET == 1
        assert protocol.Status.UNAVAILABLE == protocol.STATUS_UNAVAILABLE
        request, _ = protocol.decode_request(protocol.get(b"k").encode())
        assert isinstance(request.opcode, protocol.OpCode)
        response, _ = protocol.decode_response(
            protocol.Response(protocol.Status.OK, b"x").encode())
        assert isinstance(response.status, protocol.Status)

    def test_unknown_opcode_is_a_protocol_error(self):
        raw = bytearray(protocol.get(b"k").encode())
        raw[0] = 0x7F
        with pytest.raises(ProtocolError):
            protocol.decode_request(bytes(raw))


# ---------------------------------------------------------------------------
# Handshake + session unit tests (no sockets)
# ---------------------------------------------------------------------------

class TestHandshake:
    def test_good_handshake_establishes_matching_sessions(self):
        manager, client_session, server_session = _handshaken_pair()
        assert client_session.session_id == server_session.session_id
        frame = client_session.seal(b"ping")
        assert server_session.open(frame) == b"ping"
        assert client_session.open(server_session.seal(b"pong")) == b"pong"
        assert manager.meter.cycles > 0

    def test_truncated_hello_rejected(self):
        manager = wire.SessionManager()
        hello = wire.ClientHandshake().hello()
        with pytest.raises(HandshakeError):
            manager.accept(hello[:-10])

    def test_non_handshake_bytes_rejected(self):
        manager = wire.SessionManager()
        with pytest.raises(HandshakeError):
            manager.accept(protocol.encode_batch([protocol.get(b"k")]))

    def test_quote_binds_the_transcript(self):
        backend = get_backend("fast")
        keys = KeyMaterial.from_seed(3)
        quote = wire.make_quote(backend, keys, b"transcript-a")
        assert wire.verify_quote(backend, quote, b"transcript-a") \
            == wire.measurement(keys)
        with pytest.raises(HandshakeError):
            wire.verify_quote(backend, quote, b"transcript-b")

    def test_tampered_quote_rejected(self):
        backend = get_backend("fast")
        quote = bytearray(wire.make_quote(
            backend, KeyMaterial.from_seed(3), b"t"))
        quote[-1] ^= 1
        with pytest.raises(HandshakeError):
            wire.verify_quote(backend, bytes(quote), b"t")

    def test_measurement_pinning_rejects_the_wrong_enclave(self):
        manager = wire.SessionManager()
        impostor = wire.measurement(KeyMaterial.from_seed(99))
        handshake = wire.ClientHandshake(expected_measurement=impostor)
        reply, _ = manager.accept(handshake.hello())
        with pytest.raises(HandshakeError):
            handshake.finish(reply)

    def test_plaintext_reply_is_a_downgrade(self):
        handshake = wire.ClientHandshake()
        handshake.hello()
        with pytest.raises(HandshakeError):
            handshake.finish(protocol.encode_batch_rejection())

    @pytest.mark.parametrize("reply", [
        protocol.V2_MAGIC + b"\x02\x01",  # truncated header
        protocol.V2_MAGIC + b"\x07\x03" + bytes(16),  # version 7
        protocol.V2_MAGIC + b"\x02\x80" + bytes(16),  # unknown flag
    ], ids=["truncated", "version", "flags"])
    def test_a_malformed_server_hello_is_a_handshake_error(self, reply):
        handshake = wire.ClientHandshake()
        handshake.hello()
        with pytest.raises(HandshakeError, match="undecodable server hello"):
            handshake.finish(reply)

    def test_a_hello_offering_only_an_unknown_version_is_refused(self):
        hello = bytearray(wire.ClientHandshake().hello())
        at = protocol.V2_HEADER.size + 5  # "AHLO" | n_versions | versions
        assert hello[at - 1:at + 1] == b"\x01\x02"
        hello[at] = 7
        with pytest.raises(HandshakeError, match="no common wire version"):
            wire.SessionManager().accept(bytes(hello))

    def test_a_server_hello_naming_an_unoffered_version_is_refused(self):
        handshake = wire.ClientHandshake()
        reply, _ = wire.SessionManager().accept(handshake.hello())
        forged = bytearray(reply)
        at = protocol.V2_HEADER.size + 4  # "SHLO" | version
        assert forged[at] == protocol.WIRE_V2
        forged[at] = 7
        with pytest.raises(HandshakeError, match="never offered"):
            handshake.finish(bytes(forged))

    def test_degenerate_public_share_rejected(self):
        manager = wire.SessionManager()
        hello = wire.ClientHandshake().hello()
        degenerate = hello[:-wire.DH_BYTES] + b"\x00" * (wire.DH_BYTES - 1) \
            + b"\x01"
        with pytest.raises(HandshakeError):
            manager.accept(degenerate)


class TestSecureSession:
    def test_nonces_never_repeat(self):
        _, client_session, _ = _handshaken_pair()
        frames = [client_session.seal(b"same payload") for _ in range(3)]
        assert len(set(frames)) == 3  # fresh seq -> fresh nonce -> fresh ct

    def test_replayed_frame_rejected_after_mac_verification(self):
        _, client_session, server_session = _handshaken_pair()
        frame = client_session.seal(b"once")
        assert server_session.open(frame) == b"once"
        with pytest.raises(ReplayError):
            server_session.open(frame)

    def test_tampered_tag_rejected(self):
        _, client_session, server_session = _handshaken_pair()
        frame = bytearray(client_session.seal(b"data"))
        frame[-1] ^= 1
        with pytest.raises(TamperedFrameError):
            server_session.open(bytes(frame))

    def test_tampered_ciphertext_rejected(self):
        _, client_session, server_session = _handshaken_pair()
        frame = bytearray(client_session.seal(b"data"))
        frame[-20] ^= 1  # inside the ciphertext, not the tag
        with pytest.raises(TamperedFrameError):
            server_session.open(bytes(frame))

    def test_stale_session_id_rejected(self):
        _, client_a, _ = _handshaken_pair()
        _, _, server_b = _handshaken_pair()
        assert client_a.session_id != server_b.session_id
        with pytest.raises(StaleSessionError):
            server_b.open(client_a.seal(b"old session"))

    def test_reflected_frame_rejected(self):
        _, client_session, _ = _handshaken_pair()
        frame = client_session.seal(b"boomerang")
        with pytest.raises(TamperedFrameError):
            client_session.open(frame)  # wrong direction, wrong keys

    def test_wire_crypto_is_metered(self):
        manager, client_session, server_session = _handshaken_pair()
        after_handshake = manager.meter.cycles
        server_session.open(client_session.seal(b"x" * 100))
        delta = manager.meter.cycles - after_handshake
        assert delta > 0
        assert manager.meter.events["wire_enc"] >= 1
        assert manager.meter.events["wire_mac"] >= 1
        assert manager.stats()["active_sessions"] == 1


# ---------------------------------------------------------------------------
# Over real sockets
# ---------------------------------------------------------------------------

class TestSecureWire:
    def test_encrypted_round_trip_and_session_info(self, server, client):
        assert client.get(b"key-001").value == b"val-001"
        assert client.put(b"wired", b"sealed").status == protocol.Status.OK
        assert client.get(b"wired").value == b"sealed"
        info = client.session_info()
        assert info["version"] == protocol.WIRE_V2
        assert "aes-ctr+cmac" in info["cipher"]
        assert info["handshake_cycles"] > 1_000_000  # kex x2 + quote
        assert info["wire_cycles"] > info["handshake_cycles"]
        gateway = server.server.wire_stats()["gateway"]
        assert gateway["handshakes"] == 1
        assert gateway["cycles"] > 0

    def test_measurement_pinned_client(self, server):
        host, port = server.server.address
        genuine = server.server.sessions.measurement
        with ClusterClient.connect(host, port,
                                   expected_measurement=genuine) as c:
            assert c.get(b"key-002").value == b"val-002"
        with pytest.raises(HandshakeError):
            ClusterClient.connect(host, port,
                                  expected_measurement=b"\x00" * 16)

    def test_v1_client_against_v2_only_server(self, server):
        host, port = server.server.address
        # A bare v1 batch, as a first frame or after a handshake, gets the
        # plaintext rejection and a hang-up.
        for handshake_first in (False, True):
            with socket.create_connection((host, port), timeout=5.0) as sock:
                if handshake_first:
                    handshake = wire.ClientHandshake()
                    write_frame(sock, handshake.hello())
                    handshake.finish(read_frame(sock))
                write_frame(sock, protocol.encode_batch(
                    [protocol.put(b"plaintext", b"refused")]))
                assert read_frame(sock) == protocol.BATCH_REJECTION
                assert sock.recv(1) == b""
        assert server.server.plaintext_rejections == 2
        # The refused write never reached a shard.
        with ClusterClient.connect(host, port) as reader:
            assert reader.get(b"plaintext").status == \
                protocol.Status.NOT_FOUND

    def test_tampered_inbound_frame_alarms_the_server(self, server, client):
        sealed = bytearray(client._session.seal(
            protocol.encode_batch([protocol.get(b"key-001")])))
        sealed[-1] ^= 1
        write_frame(client._sock, bytes(sealed))
        reply = read_frame(client._sock)
        assert protocol.is_batch_rejection(
            protocol.decode_batch_responses(reply))
        assert server.server.tamper_alarms == 1

    def test_replayed_inbound_frame_alarms_the_server(self, server, client):
        sealed = client._session.seal(
            protocol.encode_batch([protocol.get(b"key-001")]))
        write_frame(client._sock, sealed)
        read_frame(client._sock)  # the genuine response
        write_frame(client._sock, sealed)  # the recorded copy
        reply = read_frame(client._sock)
        assert protocol.is_batch_rejection(
            protocol.decode_batch_responses(reply))
        assert server.server.replay_alarms == 1

    def test_secure_client_against_plaintext_only_server(self):
        # A "server" that answers the hello in plaintext, as an on-path
        # attacker stripping the handshake would: connect refuses, typed.
        listener = socket.create_server(("127.0.0.1", 0))
        host, port = listener.getsockname()[:2]

        def answer_in_plaintext():
            conn, _ = listener.accept()
            with conn:
                read_frame(conn)
                write_frame(conn, protocol.BATCH_REJECTION)

        thread = threading.Thread(target=answer_in_plaintext, daemon=True)
        thread.start()
        try:
            with pytest.raises(HandshakeError):
                ClusterClient.connect(host, port, timeout=5.0)
        finally:
            thread.join(5.0)
            listener.close()
        assert not thread.is_alive()

    def test_stale_session_frame_on_a_fresh_connection(self, server, client):
        host, port = server.server.address
        stale = client._session.seal(
            protocol.encode_batch([protocol.put(b"stale", b"replayed")]))
        with socket.create_connection((host, port), timeout=5.0) as attacker:
            write_frame(attacker, stale)
            reply = read_frame(attacker)
            assert protocol.is_batch_rejection(
                protocol.decode_batch_responses(reply))
        assert server.server.stale_session_alarms == 1

    def test_session_survives_background_server_restart(self, cluster):
        first = BackgroundServer(cluster)
        host, port = first.start()
        client = ClusterClient.connect(host, port, backoff=0.01)
        try:
            assert client.put(b"durable", b"acked").status == protocol.Status.OK
            first.stop()
            second = BackgroundServer(cluster, host=host, port=port)
            second.start()
            try:
                # The read rides the retry path: reconnect + re-handshake
                # under a fresh session, transparently.
                assert client.get(b"durable").value == b"acked"
                assert client.reconnects >= 1
                assert client.handshakes >= 2
            finally:
                second.stop()
        finally:
            client.close()


class TestWireFaults:
    def test_tamper_fault_is_caught_and_reads_ride_it_out(self, cluster):
        plan = FaultPlan().tamper(at=1)
        with BackgroundServer(cluster, fault_plan=plan) as background:
            host, port = background.server.address
            with ClusterClient.connect(host, port, backoff=0.01) as c:
                assert c.get(b"key-005").value == b"val-005"
                assert c.retried_reads >= 1  # first reply was forged
            assert background.server.tamper_injections == 1

    def test_replay_fault_is_caught_and_reads_ride_it_out(self, cluster):
        plan = FaultPlan().replay(at=2)
        with BackgroundServer(cluster, fault_plan=plan) as background:
            host, port = background.server.address
            with ClusterClient.connect(host, port, backoff=0.01) as c:
                assert c.get(b"key-006").value == b"val-006"
                assert c.get(b"key-007").value == b"val-007"
                assert c.retried_reads >= 1
            assert background.server.replay_injections == 1

    def test_writes_surface_wire_attacks_instead_of_retrying(self, cluster):
        plan = FaultPlan().tamper(at=1)
        with BackgroundServer(cluster, fault_plan=plan) as background:
            host, port = background.server.address
            with ClusterClient.connect(host, port) as c:
                with pytest.raises(TamperedFrameError):
                    c.put(b"unacked", b"value")
                assert c.retried_reads == 0

    def test_chaos_gauntlet_loses_no_acked_writes(self, cluster,
                                                   fault_record):
        plan = fault_record(FaultPlan()
                            .tamper(at=2)
                            .replay(at=4)
                            .tamper(at=6))
        with BackgroundServer(cluster, fault_plan=plan) as background:
            host, port = background.server.address
            client = ClusterClient.connect(host, port, retries=0)
            seen = set()
            history = History(plan=plan)
            try:
                for i in range(10):
                    key, value = b"g-%02d" % i, b"v-%02d" % i
                    while True:
                        try:
                            history.record([protocol.put(key, value)],
                                           [client.put(key, value)])
                            break
                        except (TamperedFrameError, ReplayError,
                                ClusterTimeoutError,
                                ClusterConnectionError) as exc:
                            seen.add(type(exc).__name__)
                            client._reconnect()
                # Every acknowledged write must be readable afterwards.
                history.readback(lambda key: client.get(key).value)
            finally:
                client.close()
            assert len(history.acked) == 10, plan.describe()
            history.fired(3)
            assert background.server.tamper_injections == 2
            assert background.server.replay_injections == 1
            assert {"TamperedFrameError", "ReplayError"} <= seen


class TestClientApi:
    def test_connect_factory_does_not_warn(self, server):
        host, port = server.server.address
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with ClusterClient.connect(host, port, timeout=2.0, retries=1):
                pass
        assert not [w for w in caught
                    if issubclass(w.category, DeprecationWarning)]

    def test_constructor_and_connect_are_one_door(self, server):
        """``connect`` only forwards: same signature, same client."""
        host, port = server.server.address
        tuning = dict(timeout=2.0, retries=1, backoff=0.01, backoff_cap=0.02,
                      deadline=1.5, retry_ratio=0.25)
        with ClusterClient(host, port, **tuning) as direct, \
                ClusterClient.connect(host, port, **tuning) as factory:
            for name in ("_timeout", "_retries", "_backoff", "_backoff_cap",
                         "_deadline"):
                assert getattr(direct, name) == getattr(factory, name), name
            assert direct.retry_budget.ratio == factory.retry_budget.ratio
            assert direct.get(b"key-001").value == b"val-001"
            assert factory.get(b"key-001").value == b"val-001"
            assert direct.session_info()["cipher"] \
                == factory.session_info()["cipher"]

    def test_bad_tuning_is_a_configuration_error(self):
        with pytest.raises(ConfigurationError):
            ClusterClient.connect("127.0.0.1", 1, timeout=0)
        with pytest.raises(ConfigurationError):
            ClusterClient.connect("127.0.0.1", 1, retries=-1)

    def test_refused_connection_is_typed(self, server):
        host, port = server.server.address
        server.stop()
        with pytest.raises(ClusterConnectionError):
            ClusterClient.connect(host, port)
