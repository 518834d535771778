"""A value the record format cannot hold is refused at the wire, and a call
that fails still settles every shard it dispatched to.

A sealed record stores ``v_len`` as a u16, so the largest value a store can
hold is ``0xFFFF`` bytes.  The wire used to accept one byte more: a PUT of
exactly 64 KiB passed every frame check, then ``RecordCodec.seal`` raised a
bare ``ValueError`` inside the shard.  On a pipelined hop (process or
socket) that exception left ``ClusterCoordinator.execute`` before the other
shard's reply was read, so every later reply on that shard answered the
call before it.  Both halves are pinned here: the cap is the record
format's, and ``execute`` collects every dispatched flight before an
exception leaves it, re-raising the first one unchanged.
"""

import struct

import pytest

from repro.cluster import (
    BackgroundServer, ClusterClient, ClusterConfig, SocketBackend)
from repro.core.record import MAX_VALUE_LEN
from repro.errors import ProtocolError
from repro.server import protocol
from repro.server.protocol import Status

#: The smallest value the record format cannot hold.
OVERSIZE = MAX_VALUE_LEN + 1

BACKENDS = [
    pytest.param("inline"),
    pytest.param("process", marks=pytest.mark.procs),
    pytest.param("socket", marks=pytest.mark.dist),
]
PIPELINED = BACKENDS[1:]


def _build(backend):
    factory = SocketBackend(n_hosts=2, seed=3) if backend == "socket" \
        else backend
    return ClusterConfig(n_shards=2, n_keys=256, scale=2048, batch_window=8,
                         seed=11, workers=1, backend=factory).build()


def _keys_by_shard(coordinator):
    """One key per shard, in the order ``execute`` collects their flights."""
    found = {}
    i = 0
    while len(found) < len(coordinator.shards):
        key = b"cap-%03d" % i
        found.setdefault(coordinator.ring.route(key), key)
        i += 1
    return [found[shard_id] for shard_id in coordinator.shards]


def _raw_put_batch(key: bytes, value: bytes) -> bytes:
    """A one-PUT batch spelled by hand: the encoder would refuse it."""
    return (struct.pack("<H", 1) + bytes([protocol.OP_PUT])
            + struct.pack("<HI", len(key), len(value)) + key + value)


class TestOneCap:
    def test_the_wire_cap_is_the_record_cap(self):
        assert protocol.MAX_VALUE_BYTES == MAX_VALUE_LEN == 0xFFFF

    def test_the_client_refuses_before_sending(self):
        with pytest.raises(ProtocolError, match="value exceeds"):
            protocol.encode_batch([protocol.put(b"k", bytes(OVERSIZE))])

    def test_the_server_refuses_before_executing(self):
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_batch(_raw_put_batch(b"k", bytes(OVERSIZE)))
        oversize = [protocol.put(b"k", bytes(OVERSIZE))]
        assert protocol.batch_violation(oversize) is not None
        assert protocol.batch_violation(
            [protocol.put(b"k", bytes(MAX_VALUE_LEN))]) is None


@pytest.mark.parametrize("backend", BACKENDS)
def test_oversized_put_is_a_bad_request_and_the_next_replies_are_right(
        backend):
    coordinator = _build(backend)
    try:
        big_key, small_key = _keys_by_shard(coordinator)
        responses = coordinator.execute([
            protocol.put(small_key, b"xyz"),
            protocol.put(big_key, bytes(OVERSIZE)),
        ])
        assert [r.status for r in responses] == [Status.OK,
                                                 Status.BAD_REQUEST]
        [got] = coordinator.execute([protocol.get(small_key)])
        assert got.value == b"xyz"
        [put] = coordinator.execute([protocol.put(small_key, b"q")])
        assert (put.status, put.value) == (Status.OK, b"")
        [got] = coordinator.execute([protocol.get(small_key)])
        assert got.value == b"q"
        # The largest value the record holds still round-trips.
        largest = bytes(range(256)) * (MAX_VALUE_LEN // 256) \
            + bytes(MAX_VALUE_LEN % 256)
        coordinator.execute([protocol.put(big_key, largest)])
        [got] = coordinator.execute([protocol.get(big_key)])
        assert got.value == largest
    finally:
        coordinator.close()


class _Planted(Exception):
    """Not an ``AriaError``: the kind the collect loop does not absorb."""


@pytest.mark.parametrize("backend", PIPELINED)
def test_a_failed_collect_still_settles_the_other_shards(backend,
                                                        monkeypatch):
    coordinator = _build(backend)
    try:
        failing_key, other_key = _keys_by_shard(coordinator)
        failing = coordinator.shards[coordinator.ring.route(failing_key)]
        real_collect = failing.server.flush_collect
        planted = _Planted("planted in the first shard's collect")

        def collect_then_fail(ticket, **kwargs):
            real_collect(ticket, **kwargs)     # its own stream stays in step
            raise planted

        monkeypatch.setattr(failing.server, "flush_collect",
                            collect_then_fail)
        with pytest.raises(_Planted) as caught:
            coordinator.execute([protocol.put(failing_key, b"a"),
                                 protocol.put(other_key, b"b")])
        assert caught.value is planted
        monkeypatch.undo()
        # The other shard's flight was read: its next replies are its own.
        [got] = coordinator.execute([protocol.get(other_key)])
        assert (got.status, got.value) == (Status.OK, b"b")
        [put] = coordinator.execute([protocol.put(other_key, b"c")])
        assert (put.status, put.value) == (Status.OK, b"")
        responses = coordinator.execute([protocol.get(failing_key),
                                         protocol.get(other_key)])
        assert [r.value for r in responses] == [b"a", b"c"]
    finally:
        coordinator.close()


def test_oversized_put_at_the_door_leaves_connection_and_session_usable():
    coordinator = _build("inline")
    with BackgroundServer(coordinator) as background:
        host, port = background.server.address
        with ClusterClient(host, port, timeout=10.0) as client:
            assert client.put(b"door-key", b"before").status == Status.OK
            client.send_frame(_raw_put_batch(b"door-key", bytes(OVERSIZE)))
            responses = protocol.decode_batch_responses(client.recv_frame())
            assert protocol.is_batch_rejection(responses)
            assert client.get(b"door-key").value == b"before"
            assert client.put(b"door-key", b"after").status == Status.OK
            assert client.get(b"door-key").value == b"after"
