"""One round trip per shard per call: a remote shard's batch windows share
one sealed message.

``ClusterCoordinator.execute`` keeps its ECALL windows (``batch_window``)
but a remote handle only queues each at ``flush_submit``; ``flush_send``
ships them once the call is routed, and the far side answers every window
on its own.  Pinned here:

(a) a 64-request call over two socket shards seals one call and opens one
    reply per shard, with the same ECALLs, cycles and responses as inline;
(b) windows whose worst-case replies would pass ``MAX_FRAME_BYTES`` split
    into several messages, no frame passes the cap, and the answers and
    cycles equal an inline shard's;
(c) a window that raises on the host costs only its own requests;
(e) no reply is left unread and no collect waits on an unsent window,
    whether ``execute`` raises mid-routing, a shard's ``flush_send``
    raises, or the host dies between ``flush_send`` and the collects;
(f) a slow remote shard still trips its overload breaker: every window of
    a message is sampled with the message's wait, not the ~0 pop of an
    outcome an earlier collect already read.

The malformed-input half of the new layouts lives with the rest of the
codec's table in ``tests/test_cluster_rpc.py``.
"""

import os
import signal
import threading
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    OverloadConfig,
    ProcessBackend,
    ShardHost,
    SocketBackend,
    SocketShard,
)
from repro.cluster import remote, rpc, sockbackend
from repro.cluster.shard import EnclaveSpec
from repro.errors import AriaError, ShardCrashedError
from repro.server import protocol
from repro.server.protocol import MAX_FRAME_BYTES, MAX_VALUE_BYTES, Status
from repro.sgx.meter import CycleMeter

dist = pytest.mark.dist
procs = pytest.mark.procs


def _spec(shard_id="w0"):
    return EnclaveSpec(shard_id, epc_bytes=256 * 1024, capacity_keys=256)


@pytest.fixture()
def thread_host():
    """One in-process shard host: both directions' frames are visible."""
    host = ShardHost(seed=29)
    host.start()
    thread = threading.Thread(target=host.serve_forever, daemon=True)
    thread.start()
    yield host
    host.stop()
    thread.join(5.0)


def _socket_shard(host, spec):
    return SocketShard(spec, (host.host, host.port),
                       expected_measurements=[host.measurement])


def _build(backend, **overrides):
    config = dict(n_shards=2, n_keys=512, scale=2048, batch_window=32,
                  seed=13, workers=1, backend=backend)
    config.update(overrides)
    return ClusterConfig(**config).build()


def _keys_for(coordinator, counts):
    """``counts[shard_id]`` fresh keys routed to each shard, interleaved."""
    wanted = dict(counts)
    keys, i = [], 0
    while any(wanted.values()):
        key = b"hop-%05d" % i
        owner = coordinator.ring.route(key)
        if wanted.get(owner):
            wanted[owner] -= 1
            keys.append(key)
        i += 1
    return keys


def _wire_macs(coordinator):
    return {sid: shard.wire_meter.events["wire_mac"]
            for sid, shard in coordinator.shards.items()}


def _enclave_state(coordinator):
    return {sid: shard.meter.snapshot()
            for sid, shard in coordinator.shards.items()}


@dist
def test_one_call_is_one_round_trip_per_socket_shard():
    """40 + 24 requests at window 32: the first shard runs two ECALLs in
    one message (one message per window would seal and open 4 frames),
    the second one ECALL."""
    sock = _build(SocketBackend(n_hosts=2, seed=3))
    inline = _build("inline")
    try:
        first, second = sorted(sock.shards)
        keys = _keys_for(sock, {first: 40, second: 24})
        requests = [protocol.put(key, b"v-" + key) for key in keys]
        before = _wire_macs(sock)
        ecalls = {sid: s.meter.events["ecall"]
                  for sid, s in sock.shards.items()}
        got = sock.execute(requests)
        after = _wire_macs(sock)
        assert {sid: after[sid] - before[sid] for sid in after} \
            == {first: 2, second: 2}
        assert {sid: s.meter.events["ecall"] - ecalls[sid]
                for sid, s in sock.shards.items()} == {first: 2, second: 1}
        assert got == inline.execute(requests)
        assert _enclave_state(sock) == _enclave_state(inline)
    finally:
        sock.close()
        inline.close()


@dist
def test_windows_past_the_frame_cap_split_into_messages(thread_host,
                                                        monkeypatch):
    """Four windows of 32 GETs whose values are as large as a record
    holds: one message's worst-case reply would pass the cap, so three
    windows go in the first message and one in the second."""
    spec = _spec()
    shard = _socket_shard(thread_host, spec)
    twin = spec.build()
    try:
        keys = [b"big-%03d" % i for i in range(128)]
        pairs = [(key, key * (MAX_VALUE_BYTES // len(key))
                  + b"x" * (MAX_VALUE_BYTES % len(key))) for key in keys]
        for start in range(0, 128, 32):          # each load fits a frame
            shard.store.load(pairs[start:start + 32])
        twin.store.load(pairs)
        windows = [[protocol.get(key) for key in keys[i:i + 32]]
                   for i in range(0, 128, 32)]
        assert 4 * 32 * rpc.REPLY_BYTES_PER_REQUEST > rpc.MESSAGE_BUDGET

        frames = []
        real_write = sockbackend.write_frame

        def recording_write(sock, payload):
            frames.append(len(payload))
            real_write(sock, payload)

        monkeypatch.setattr(sockbackend, "write_frame", recording_write)
        macs = shard.wire_meter.events["wire_mac"]
        tickets = [shard.flush_submit(window) for window in windows]
        shard.flush_send()
        answers = [shard.flush_collect(ticket) for ticket in tickets]
        monkeypatch.undo()

        assert shard.wire_meter.events["wire_mac"] - macs == 4
        assert len(frames) == 4                  # two calls, two replies
        assert max(frames) <= MAX_FRAME_BYTES
        assert max(frames) > MAX_FRAME_BYTES // 2   # the cap was in play
        assert answers == [twin.server.flush_batch(w) for w in windows]
        assert all(r.status == Status.OK for a in answers for r in a)
        assert shard.meter.snapshot() == twin.meter.snapshot()
    finally:
        shard.close()


class _Refusing:
    """A batch server that raises ``error`` on any window holding
    ``poison``."""

    def __init__(self, server, poison, error=RuntimeError):
        self.server, self.poison, self.error = server, poison, error

    def flush_batch(self, requests):
        requests = list(requests)
        if any(r.key == self.poison for r in requests):
            raise self.error("planted in one window")
        return self.server.flush_batch(requests)


def test_rpc_reply_answers_each_window_on_its_own():
    shard = _spec().build()
    windows = [[protocol.put(b"a", b"1")], [protocol.get(b"poison")],
               [protocol.get(b"a")]]
    shard.server = _Refusing(shard.server, b"poison")
    mirror = CycleMeter()
    ok, (first, failed, last) = rpc.decode_reply(
        remote.rpc_reply(shard, "flush", windows), mirror)
    assert ok
    assert [r.status for r in first] == [Status.OK]
    assert type(failed) is RuntimeError and str(failed) == \
        "planted in one window"
    assert [(r.status, r.value) for r in last] == [(Status.OK, b"1")]
    assert mirror.snapshot() == shard.meter.snapshot()


@dist
def test_a_window_that_raises_costs_only_its_own_requests(thread_host):
    shard = _socket_shard(thread_host, _spec("w1"))
    coordinator = ClusterCoordinator([shard], batch_window=4)
    try:
        keys = [b"k-%02d" % i for i in range(12)]
        coordinator.load([(key, b"v-" + key) for key in keys])
        enclave = thread_host._enclaves["w1"]
        enclave.server = _Refusing(enclave.server, keys[5], AriaError)
        macs = shard.wire_meter.events["wire_mac"]
        responses = coordinator.execute([protocol.get(k) for k in keys])
        assert shard.wire_meter.events["wire_mac"] - macs == 2
        statuses = [r.status for r in responses]
        assert statuses == [Status.OK] * 4 + [Status.UNAVAILABLE] * 4 \
            + [Status.OK] * 4
        assert [r.value for r in responses[8:]] \
            == [b"v-" + k for k in keys[8:]]
        assert responses[4].value == b"shard w1 failed: AriaError"
        assert coordinator.flush_failures == 1
    finally:
        coordinator.close()


@dist
def test_an_execute_that_raises_mid_routing_ships_and_reads_every_window():
    coordinator = _build(SocketBackend(n_hosts=1, seed=5), n_shards=1,
                         batch_window=4)
    try:
        [shard] = coordinator.shards.values()
        keys = [b"mid-%02d" % i for i in range(12)]
        route, routed = coordinator.ring.route, []

        def failing_route(key):
            if len(routed) == 9:
                raise RuntimeError("planted in routing")
            routed.append(key)
            return route(key)

        coordinator.ring.route = failing_route
        macs = shard.wire_meter.events["wire_mac"]
        with pytest.raises(RuntimeError, match="planted in routing"):
            coordinator.execute([protocol.put(k, b"1") for k in keys])
        del coordinator.ring.route
        # Two full windows were queued before the raise: both shipped in
        # one message and were read back, nothing is left on the link.
        assert shard.wire_meter.events["wire_mac"] - macs == 2
        assert [shard.store.get(k) for k in keys[:8]] == [b"1"] * 8
        responses = coordinator.execute([protocol.get(k) for k in keys])
        assert [r.status for r in responses] \
            == [Status.OK] * 8 + [Status.NOT_FOUND] * 4
    finally:
        coordinator.close()


@dist
def test_a_flush_send_that_raises_still_collects_every_flight():
    """The first shard ships, the second's ``flush_send`` raises before it
    sends anything: ``execute`` raises that error only after every flight
    is collected, so no reply is left to answer the next call."""
    coordinator = _build(SocketBackend(n_hosts=2, seed=11))
    try:
        first, second = sorted(coordinator.shards)
        keys = _keys_for(coordinator, {first: 6, second: 6})
        shard = coordinator.shards[second]

        def raising_send():
            del shard.flush_send              # one shot: collect ships
            raise RuntimeError("planted in flush_send")

        shard.flush_send = raising_send
        with pytest.raises(RuntimeError, match="planted in flush_send"):
            coordinator.execute([protocol.put(k, b"v-" + k) for k in keys])
        assert all(not s._queued and not s._inbox
                   for s in coordinator.shards.values())
        responses = coordinator.execute([protocol.get(k) for k in keys])
        assert [(r.status, r.value) for r in responses] \
            == [(Status.OK, b"v-" + k) for k in keys]
    finally:
        coordinator.close()


class _Slow:
    """A batch server that takes ``delay`` seconds over every window."""

    def __init__(self, server, delay):
        self.server, self.delay = server, delay

    def flush_batch(self, requests):
        time.sleep(self.delay)
        return self.server.flush_batch(requests)


@dist
def test_a_slow_socket_shard_trips_its_breaker(thread_host):
    """Two windows a call, each 60 ms on the host against a 50 ms latency
    threshold: both samples of a call are bad, so three consecutive bad
    samples open the breaker during the second call, as when each window
    was its own round trip, and the third call is shed."""
    shard = _socket_shard(thread_host, _spec("w2"))
    coordinator = ClusterCoordinator(
        [shard], batch_window=4,
        overload=OverloadConfig(breaker_failures=3, breaker_latency=0.05,
                                breaker_recovery=60.0))
    try:
        keys = [b"slow-%d" % i for i in range(8)]
        coordinator.load([(key, b"v") for key in keys])
        enclave = thread_host._enclaves["w2"]
        enclave.server = _Slow(enclave.server, 0.06)
        breaker = coordinator.overload.breaker_for("w2")
        calls = 0
        while breaker.trips == 0 and calls < 4:
            responses = coordinator.execute([protocol.get(k) for k in keys])
            assert all(r.status == Status.OK for r in responses)
            calls += 1
        assert (calls, breaker.trips, breaker.state.value) == (2, 1, "open")
        shed = coordinator.execute([protocol.get(k) for k in keys])
        assert all(r.status == Status.OVERLOADED for r in shed)
    finally:
        coordinator.close()


def _collect_after_death(handle, pid, reap):
    """Two windows shipped to a far side that cannot answer (stopped, then
    killed): every collect raises at once, and then nothing is left to
    wait for."""
    tickets = [handle.flush_submit([protocol.put(b"k%d" % i, b"v")])
               for i in range(2)]
    os.kill(pid, signal.SIGSTOP)
    try:
        handle.flush_send()
    finally:
        os.kill(pid, signal.SIGKILL)
        reap()
    for ticket in tickets:
        with pytest.raises(ShardCrashedError):
            handle.flush_collect(ticket, timeout=10.0)
    with pytest.raises(RuntimeError, match="no flush to collect"):
        handle.flush_collect(0, timeout=10.0)
    assert handle.crashed


@dist
def test_a_host_killed_after_flush_send_fails_every_collect():
    backend = SocketBackend(n_hosts=1, seed=7)
    try:
        handle = backend.create(_spec("kx"))
        [host] = backend.hosts()
        _collect_after_death(handle, host.pid, host.kill)
    finally:
        backend.close()


@procs
def test_a_worker_killed_after_flush_send_fails_every_collect():
    backend = ProcessBackend()
    try:
        handle = backend.create(_spec("px"))
        _collect_after_death(handle, handle.pid,
                             lambda: handle._proc.join(5.0))
    finally:
        backend.close()
