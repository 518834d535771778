"""Both attested endpoints refuse the same hostile frames the same way.

The front door (``ClusterNetServer``) and a shard host (``ShardHost``)
serve from one session server.  Each hostile frame below must make the
endpoint hang up and bump the alarm its ledger has always used for it:
the door's ``wire_stats()`` names and the host's ``alarms`` keys.
"""

import socket
import threading

import pytest

from repro.cluster import BackgroundServer, ClusterConfig, ShardHost, rpc
from repro.cluster.framing import read_frame, write_frame
from repro.cluster.session import ClientHandshake
from repro.errors import ClusterConnectionError
from repro.server import protocol
from repro.server.protocol import FLAG_HANDSHAKE, FrameHeader

#: The alarm keys of each endpoint's ledger.
DOOR_ALARMS = ("tamper_alarms", "replay_alarms", "stale_session_alarms",
               "handshake_failures", "plaintext_rejections")
HOST_ALARMS = ("handshake", "wire")

#: Which key each hostile frame bumps, per endpoint.
EXPECTED = {
    "door": {"garbage_hello": "handshake_failures",
             "data_before_hello": "stale_session_alarms",
             "tampered": "tamper_alarms",
             "replayed": "replay_alarms",
             "retired_session": "stale_session_alarms"},
    "host": {"garbage_hello": "handshake",
             "data_before_hello": "handshake",
             "tampered": "wire",
             "replayed": "wire",
             "retired_session": "wire"},
}


@pytest.fixture(params=["door", "host"])
def endpoint(request):
    """``(kind, address, ledger, payload)``: ``ledger()`` reads the alarm
    counts, ``payload`` is a request the endpoint answers."""
    if request.param == "door":
        coordinator = ClusterConfig(n_shards=1, n_keys=16,
                                    scale=2048).build()
        with BackgroundServer(coordinator) as background:
            door = background.server
            yield ("door", door.address,
                   lambda: {k: door.wire_stats()[k] for k in DOOR_ALARMS},
                   protocol.encode_batch([protocol.get(b"k")]))
        coordinator.close()
        return
    host = ShardHost(seed=41)
    host.start()
    thread = threading.Thread(target=host.serve_forever, daemon=True)
    thread.start()
    try:
        # A first command that binds nothing is answered, not refused.
        yield ("host", (host.host, host.port),
               lambda: {k: host.alarms[k] for k in HOST_ALARMS},
               rpc.encode_call("stats"))
    finally:
        host.stop()
        thread.join(5.0)


def _handshake(sock):
    handshake = ClientHandshake()
    write_frame(sock, handshake.hello())
    return handshake.finish(read_frame(sock))


def _bumped(before, after):
    return {k: after[k] - before[k] for k in after if after[k] != before[k]}


def _garbage_hello(sock, payload, address):
    write_frame(sock, protocol.encode_frame(
        FrameHeader(flags=FLAG_HANDSHAKE), b"not a client hello"))


def _data_before_hello(sock, payload, address):
    # A frame sealed on another connection's session, played into a
    # fresh connection that never said hello.
    with socket.create_connection(address, timeout=5.0) as other:
        recorded = _handshake(other).seal(payload)
    write_frame(sock, recorded)


def _tampered(sock, payload, address):
    frame = bytearray(_handshake(sock).seal(payload))
    frame[-1] ^= 0x01
    write_frame(sock, bytes(frame))


def _replayed(sock, payload, address):
    frame = _handshake(sock).seal(payload)
    write_frame(sock, frame)
    read_frame(sock)  # answered once
    write_frame(sock, frame)


ATTACKS = {"garbage_hello": _garbage_hello,
           "data_before_hello": _data_before_hello,
           "tampered": _tampered,
           "replayed": _replayed}


@pytest.mark.wire
@pytest.mark.parametrize("attack", sorted(ATTACKS))
def test_hostile_frame_hangs_up_and_counts_its_alarm(endpoint, attack):
    kind, address, ledger, payload = endpoint
    before = ledger()
    with socket.create_connection(address, timeout=5.0) as sock:
        ATTACKS[attack](sock, payload, address)
        # Whatever the endpoint answers, it then closes the connection (a
        # ClusterTimeoutError here means it kept the connection open).
        with pytest.raises(ClusterConnectionError, match="closed"):
            while True:
                read_frame(sock)
    assert _bumped(before, ledger()) == {EXPECTED[kind][attack]: 1}


@pytest.mark.wire
def test_a_second_hello_rekeys_the_connection(endpoint):
    kind, address, ledger, payload = endpoint
    before = ledger()
    with socket.create_connection(address, timeout=5.0) as sock:
        first = _handshake(sock)
        second = _handshake(sock)
        assert second.session_id != first.session_id
        write_frame(sock, second.seal(payload))
        assert second.open(read_frame(sock))  # served under the new keys
        # The retired session's frames are stale now.
        write_frame(sock, first.seal(payload))
        with pytest.raises(ClusterConnectionError, match="closed"):
            while True:
                read_frame(sock)
    assert _bumped(before, ledger()) == {EXPECTED[kind]["retired_session"]: 1}
