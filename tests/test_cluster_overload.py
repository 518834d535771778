"""Overload robustness against a running cluster, on every backend.

The unit layer (``test_overload.py``) proves the primitives — deadlines,
token buckets, retry budgets, breakers — in isolation; this module proves
the *wired* behavior: the coordinator shedding expired work, breakers
containing a slow shard, brownout during recovery, the front door's
admission gate, client-side deadline/retry-budget bounds, and the closing
overload chaos gauntlet (the issue's acceptance bar).  Everything is
deterministic: stalls are applied directly at test-controlled moments,
workloads come from seeded RNGs, and breaker thresholds are tuned so the
trip point is a certainty, not a race.
"""

import json
import random
import sys
import threading
import time

import pytest

from repro.cluster import (
    BackgroundServer,
    ClusterClient,
    ClusterConfig,
    FaultPlan,
    HealthMonitor,
    OverloadConfig,
    ReplicaState,
    build_replicated_cluster,
)
from repro.cluster.netserver import _AdmissionGate
from repro.cluster.overload import CircuitBreaker, Deadline, RetryBudget
from repro.errors import (
    ClusterTimeoutError,
    DeadlineExceededError,
    OverloadedError,
)
from repro.persist import MemoryDisk, attach_cluster_durability
from repro.server import protocol
from repro.server.protocol import (
    STATUS_OK,
    STATUS_OVERLOADED,
)
from repro.sgx.monotonic import MonotonicCounterService

from tests.chaos import History, ZipfStream

pytestmark = pytest.mark.overload


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def build_overloaded(n_shards=2, replication=2, *, config=None,
                     n_keys=128, batch_window=8, seed=0):
    """A replicated cluster with the overload layer armed and every
    replica FaultyShard-wrapped (empty plan) for direct ``stall()``."""
    coord = build_replicated_cluster(ClusterConfig(
        n_shards=n_shards, replication=replication, n_keys=n_keys, scale=2048,
        batch_window=batch_window, seed=seed,
        shard_overrides={"fault_plan": FaultPlan()},
        overload=config or OverloadConfig()))
    return coord


def preload(coord, n_keys):
    coord.load((b"key-%04d" % i, b"init") for i in range(n_keys))


# -- the front door's admission gate (threads, direct) -----------------------------


def spin_until(condition, timeout=5.0):
    """Poll an observable state (never a guess at how long a thread needs)."""
    limit = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < limit, "condition never became true"
        time.sleep(0)


class GateThread(threading.Thread):
    """One ``acquire`` on its own thread; ``verdict`` once it returns."""

    def __init__(self, gate, deadline=None, then=None):
        super().__init__(daemon=True)
        self.gate = gate
        self.deadline = deadline
        self.then = then
        self.verdict = None
        self.done = threading.Event()

    def run(self):
        self.verdict = self.gate.acquire(self.deadline)
        if self.then is not None:
            self.then(self)
        self.done.set()

    def parked(self):
        """Start, and return once this acquire is queued on the stack."""
        top = self.gate._waiters[-1:]
        self.start()
        spin_until(lambda: self.gate._waiters[-1:] not in ([], top)
                   or self.done.is_set())
        return self

    def result(self):
        assert self.done.wait(5.0), "acquire never returned"
        return self.verdict


class TestAdmissionGate:
    def test_admits_below_capacity_and_tracks_high_water(self):
        gate = _AdmissionGate(2)
        assert gate.acquire(None)
        assert gate.acquire(None)
        assert gate.inflight == 2 and gate.max_seen == 2
        gate.release()
        gate.release()
        assert gate.inflight == 0
        assert gate.max_seen == 2  # high-water mark survives

    def test_service_is_lifo_newest_first(self):
        # Capacity 2 so the waiter queue (bounded at capacity) can hold
        # both waiters without shedding the older one.
        gate = _AdmissionGate(2)
        assert gate.acquire(None)
        assert gate.acquire(None)
        order = []
        first = GateThread(gate, then=lambda t: order.append("first")).parked()
        second = GateThread(gate,
                            then=lambda t: order.append("second")).parked()
        gate.release()  # one slot: it must reach the top of the stack
        assert second.result() is True
        assert not first.done.is_set() and order == ["second"]
        gate.release()
        assert first.result() is True
        assert order == ["second", "first"]
        gate.release()
        gate.release()
        assert gate.inflight == 0

    def test_full_queue_sheds_the_oldest_waiter(self):
        gate = _AdmissionGate(1)
        assert gate.acquire(None)
        victim = GateThread(gate).parked()
        assert len(gate._waiters) == 1  # queue is at its bound
        fresh = GateThread(gate).parked()
        # The victim (oldest) was shed to make room for the fresh one.
        assert victim.result() is False
        assert gate.shed_queue_full == 1
        gate.release()
        assert fresh.result() is True
        gate.release()
        assert gate.inflight == 0

    def test_waiter_expired_while_queued_is_shed_at_handoff(self):
        clock = FakeClock()
        gate = _AdmissionGate(1)
        assert gate.acquire(None)
        stale = GateThread(gate, Deadline(10.0, clock=clock)).parked()
        clock.advance(20.0)  # its budget dies while it queues
        gate.release()
        assert stale.result() is False
        assert gate.shed_expired == 1
        assert gate.inflight == 0  # the freed slot was not leaked

    def test_waiter_whose_budget_runs_out_leaves_the_queue(self):
        gate = _AdmissionGate(1)
        assert gate.acquire(None)
        waiter = GateThread(gate, Deadline(0.02)).parked()
        assert waiter.result() is False  # by its own wait timeout
        assert gate.shed_expired == 1 and gate._waiters == []
        gate.release()
        assert gate.inflight == 0

    def test_inflight_never_exceeds_capacity_under_load(self):
        gate = _AdmissionGate(4)
        holders = 0
        overshoots = []
        admitted = []
        mutex = threading.Lock()

        def worker():
            nonlocal holders
            for _ in range(50):
                got = gate.acquire(None)
                with mutex:
                    admitted.append(got)
                if not got:
                    continue
                with mutex:
                    holders += 1
                    if holders > gate.capacity:
                        overshoots.append(holders)
                time.sleep(0)  # hold the slot across a thread switch
                with mutex:
                    holders -= 1
                gate.release()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, daemon=True)
                       for _ in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30.0)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not overshoots
        assert gate.max_seen <= 4
        assert gate.inflight == 0 and gate._waiters == []
        # A capacity-bounded queue over 16 rushers: some are shed, but
        # every decision is a clean True/False.
        assert len(admitted) == 16 * 50
        assert all(isinstance(a, bool) for a in admitted)
        assert any(admitted)


# -- coordinator-level deadline shedding ------------------------------------------


class TestCoordinatorDeadlines:
    def test_expired_deadline_sheds_without_touching_an_enclave(self):
        coord = build_overloaded(2, replication=1)
        preload(coord, 32)
        cycles_before = sum(g.meter.cycles for g in coord.shard_list())
        batch = [protocol.get(b"key-%04d" % i) for i in range(8)]
        responses = coord.execute(batch, deadline=Deadline(0.0))
        assert all(r.status == STATUS_OVERLOADED for r in responses)
        for r in responses:
            assert protocol.retry_after_hint(r) > 0
            assert b"deadline expired" in protocol.overload_reason(r)
        assert coord.overload.deadline_shed == len(batch)
        # Dead work never crossed an enclave boundary: no cycles charged.
        assert sum(g.meter.cycles for g in coord.shard_list()) \
            == cycles_before

    def test_live_deadline_executes_normally(self):
        coord = build_overloaded(2, replication=1)
        preload(coord, 32)
        batch = [protocol.get(b"key-%04d" % i) for i in range(8)]
        responses = coord.execute(batch, deadline=Deadline(5.0))
        assert all(r.status == STATUS_OK for r in responses)
        assert coord.overload.stats()["shed"] == 0

    def test_slow_shard_cannot_drag_the_batch_past_its_budget(self):
        # One stalled shard, batch_window=1 so each request dispatches in
        # order: the first flush burns the whole budget, and every later
        # bucket is shed instead of queueing behind it — total wall time
        # is one stall, not four.
        stall = 0.15
        coord = build_overloaded(1, replication=1, batch_window=1)
        preload(coord, 8)
        group = coord.shard_list()[0]
        group.replicas[0].shard.stall(stall)
        batch = [protocol.get(b"key-%04d" % i) for i in range(4)]
        started = time.monotonic()
        responses = coord.execute(batch, deadline=Deadline(0.1))
        elapsed = time.monotonic() - started
        assert responses[0].status == STATUS_OK  # dispatched in-budget
        assert [r.status for r in responses[1:]] == [STATUS_OVERLOADED] * 3
        assert coord.overload.deadline_shed == 3
        # The bound: budget + one in-flight stall + slack, far under the
        # 4 * stall a deadline-blind coordinator would burn.
        assert elapsed < 0.1 + stall + 0.2
        group.replicas[0].shard.heal()


# -- per-shard circuit breakers ---------------------------------------------------


class TestBreakerContainment:
    CONFIG = dict(breaker_failures=2, breaker_latency=0.01,
                  breaker_recovery=0.25)

    def test_slow_primary_trips_breaker_reads_fall_back_writes_shed(self):
        coord = build_overloaded(1, replication=2, batch_window=1,
                                 config=OverloadConfig(**self.CONFIG))
        preload(coord, 16)
        group = coord.shard_list()[0]
        group.replicas[0].shard.stall(0.03)  # slow, not down

        # Two slow flushes = two bad samples = trip.
        for _ in range(2):
            [r] = coord.execute([protocol.get(b"key-0001")])
            assert r.status == STATUS_OK
        stats = coord.overload.stats()
        assert stats["breaker_trips"] == 1
        assert stats["breakers"][group.shard_id]["state"] == "open"

        # Open breaker: reads route to the live secondary (different
        # enclave, same verified read path) and still answer OK...
        [read] = coord.execute([protocol.get(b"key-0002")])
        assert read.status == STATUS_OK
        assert coord.overload.breaker_read_routes == 1
        assert group.read_fallbacks == 1

        # ...while writes are shed with the breaker's own countdown.
        [write] = coord.execute([protocol.put(b"key-0003", b"v")])
        assert write.status == STATUS_OVERLOADED
        reason = protocol.overload_reason(write)
        assert reason == b"breaker open: " + group.shard_id.encode()
        hint = protocol.retry_after_hint(write)
        assert 0 < hint <= self.CONFIG["breaker_recovery"]
        assert coord.overload.breaker_shed == 1

        # Heal, wait out the recovery window: the half-open probe runs on
        # the (now fast) primary and the breaker closes.
        group.replicas[0].shard.heal()
        time.sleep(self.CONFIG["breaker_recovery"] + 0.05)
        [probe] = coord.execute([protocol.get(b"key-0001")])
        assert probe.status == STATUS_OK
        stats = coord.overload.stats()
        assert stats["breakers"][group.shard_id]["state"] == "closed"
        assert stats["breakers_open"] == 0
        [after] = coord.execute([protocol.put(b"key-0003", b"v2")])
        assert after.status == STATUS_OK

    def test_single_replica_group_serves_slow_reads_sheds_writes(self):
        # No live secondary: the fallback path degrades to the (slow)
        # primary for reads — a slow read beats no read — while writes
        # stay shed until the breaker closes.
        coord = build_overloaded(1, replication=1, batch_window=1,
                                 config=OverloadConfig(**self.CONFIG))
        preload(coord, 8)
        group = coord.shard_list()[0]
        group.replicas[0].shard.stall(0.03)
        for _ in range(2):
            coord.execute([protocol.get(b"key-0001")])
        [read] = coord.execute([protocol.get(b"key-0001")])
        assert read.status == STATUS_OK
        [write] = coord.execute([protocol.put(b"key-0001", b"x")])
        assert write.status == STATUS_OVERLOADED
        assert b"breaker open" in protocol.overload_reason(write)
        group.replicas[0].shard.heal()


class TestPipelinedGroupSample:
    """A durable group is pipelined: its submit applies and stages, other
    groups run, then its collect is the barrier.  The breaker sample is the
    time the group itself held the coordinator — on an injected clock that
    only the disk moves, so the figures are exact."""

    STAGE = 1.0      # the slow group's WAL stage
    BARRIER = 0.002  # the call's one flush, paid by whoever collects first

    @pytest.mark.parametrize("slow", ["shard-0", "shard-1"])
    def test_slow_neighbour_does_not_trip_this_groups_breaker(
            self, slow, monkeypatch):
        clock = FakeClock()
        test = self

        class SlowLogDisk(MemoryDisk):
            dirty = False

            def append(self, name, data):
                super().append(name, data)
                self.dirty = True
                if name == slow + ".log":
                    clock.advance(test.STAGE)

            def sync(self):
                if self.dirty:  # a clean barrier is free
                    clock.advance(test.BARRIER)
                self.dirty = False

        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=2, n_keys=64, scale=2048,
            batch_window=8,
            overload=OverloadConfig(breaker_failures=2, breaker_latency=0.1,
                                    breaker_recovery=60.0)), clock=clock)
        attach_cluster_durability(coord, SlowLogDisk(),
                                  MonotonicCounterService())
        assert all(group.pipelined for group in coord.shard_list())

        samples = {"shard-0": [], "shard-1": []}
        real_record = CircuitBreaker.record

        def record(breaker, ok, latency):
            [sid] = [sid for sid, b in coord.overload.breakers.items()
                     if b is breaker]
            samples[sid].append(latency)
            real_record(breaker, ok, latency)

        monkeypatch.setattr(CircuitBreaker, "record", record)
        fast = "shard-1" if slow == "shard-0" else "shard-0"
        keys = {}
        for i in range(64):
            keys.setdefault(coord.ring.route(b"key-%04d" % i),
                            b"key-%04d" % i)
        batch = [protocol.put(keys["shard-0"], b"v"),
                 protocol.put(keys["shard-1"], b"v")]
        for _ in range(2):
            assert [r.status for r in coord.execute(batch)] == [STATUS_OK] * 2

        # shard-0 dispatches and collects first, so the barrier is its lap;
        # the slow stage belongs to the slow group alone, whichever it is.
        expected = {"shard-0": self.BARRIER, "shard-1": 0.0}
        expected[slow] += self.STAGE
        for sid in samples:
            assert samples[sid] == [pytest.approx(expected[sid])] * 2
        breakers = coord.overload.stats()["breakers"]
        assert breakers[slow] == {"state": "open", "trips": 1,
                                  "probes": 0, "shed": 0}
        assert breakers[fast]["state"] == "closed"
        assert breakers[fast]["trips"] == 0
        by_shard = dict(zip(("shard-0", "shard-1"), coord.execute(batch)))
        assert by_shard[slow].status == STATUS_OVERLOADED
        assert by_shard[fast].status == STATUS_OK
        coord.close()


# -- brownout: writes shed while recovery is in flight ----------------------------


class TestBrownout:
    def test_brownout_sheds_writes_serves_reads_then_disengages(self):
        coord = build_overloaded(1, replication=2)
        preload(coord, 16)
        # Manual-only monitor: huge window, no auto-restart, so the
        # recovering state is held exactly as long as the test wants.
        monitor = HealthMonitor(coord, check_every=10**9,
                                auto_restart=False)
        coord.health_monitor = monitor
        group = coord.shard_list()[0]
        group.mark_down(group.replicas[1], "test: secondary lost")
        assert monitor.recovering()

        responses = coord.execute([
            protocol.put(b"key-0001", b"new"),
            protocol.get(b"key-0002"),
        ])
        assert responses[0].status == STATUS_OVERLOADED
        assert b"brownout" in protocol.overload_reason(responses[0])
        assert protocol.retry_after_hint(responses[0]) > 0
        assert responses[1].status == STATUS_OK  # reads ride through
        stats = coord.overload.stats()
        assert stats["brownout_shed"] == 1
        assert stats["brownout_engagements"] == 1

        # The shed write never executed anywhere.
        [check] = coord.execute([protocol.get(b"key-0001")])
        assert check.value == b"init"

        # Replica back: brownout disengages and writes flow again.
        group.replicas[1].state = ReplicaState.UP
        [write] = coord.execute([protocol.put(b"key-0001", b"new")])
        assert write.status == STATUS_OK
        stats = coord.overload.stats()
        assert stats["brownout_engagements"] == 1  # no re-engage
        assert stats["brownout_seconds"] > 0


# -- the armed-but-unstressed layer is simulation-invisible -----------------------


class TestUnstressedEquivalence:
    def test_cycles_bit_identical_with_overload_armed(self):
        def drive(armed):
            coord = build_replicated_cluster(ClusterConfig(
                n_shards=2, replication=1, n_keys=64, scale=2048,
                batch_window=8, seed=7,
                overload=OverloadConfig() if armed else None))
            preload(coord, 64)
            rng = random.Random(1234)
            outputs = []
            for _ in range(6):
                batch = []
                for _ in range(16):
                    key = b"key-%04d" % rng.randrange(64)
                    if rng.random() < 0.5:
                        batch.append(protocol.put(key, b"v-%d" % rng.
                                                  randrange(1000)))
                    else:
                        batch.append(protocol.get(key))
                outputs.extend(coord.execute(batch))
            cycles = sum(g.meter.cycles for g in coord.shard_list())
            return [(r.status, r.value) for r in outputs], cycles

        plain_out, plain_cycles = drive(armed=False)
        armed_out, armed_cycles = drive(armed=True)
        assert armed_out == plain_out
        assert armed_cycles == plain_cycles  # bit-identical, not "close"


# -- over the wire: deadline field, front-door shedding, the in-flight cap --------


class TestWireOverload:
    @pytest.fixture()
    def overloaded_server(self):
        coord = build_overloaded(2, replication=1)
        preload(coord, 32)
        server = BackgroundServer(coord, max_inflight=2)
        host, port = server.start()
        yield server, host, port
        server.close()

    def test_client_deadline_envelope_end_to_end(self, overloaded_server):
        _, host, port = overloaded_server
        # The budget rides the v2 header and makes the round trip in time.
        with ClusterClient.connect(host, port, deadline=2.0) as client:
            put = client.put(b"key-0001", b"wire")
            assert put.status == STATUS_OK
            get = client.get(b"key-0001")
            assert get.value == b"wire"

    def test_spent_budget_is_shed_at_the_front_door(self, overloaded_server):
        server, host, port = overloaded_server
        with ClusterClient.connect(host, port) as client:
            client.send_frame(
                protocol.encode_batch([protocol.get(b"key-0001")]),
                Deadline(0.0))
            [r] = protocol.decode_batch_responses(client.recv_frame(),
                                                  expected=1)
        assert r.status == STATUS_OVERLOADED
        assert protocol.retry_after_hint(r) > 0
        assert b"deadline expired on arrival" in protocol.overload_reason(r)
        overload = server.server.wire_stats()["overload"]
        assert overload["deadline_shed_frames"] == 1
        assert overload["frames_shed"] == 1
        assert overload["requests_shed"] == 1

    def test_old_envelope_bytes_are_an_over_cap_batch(
            self, overloaded_server):
        """What opened a deadline (``F7 FF``) or tenant (``F6 FF``) envelope
        is, inside a sealed frame, a batch count past the cap: the whole
        frame is refused, the connection and its later frames are not, and
        nothing is shed or executed."""
        server, host, port = overloaded_server
        batch = protocol.encode_batch([protocol.put(b"key-0001", b"no")])
        with ClusterClient.connect(host, port) as client:
            for lead in (b"\xf7\xff\x00\x00\x00\x00",
                         b"\xf6\xff\x05whale"):
                client.send_frame(lead + batch)
                assert protocol.is_batch_rejection(
                    protocol.decode_batch_responses(client.recv_frame()))
            assert client.get(b"key-0001").value != b"no"
        overload = server.server.wire_stats()["overload"]
        assert overload["frames_shed"] == 0
        assert overload["deadline_shed_frames"] == 0

    def test_inflight_cap_holds_under_concurrent_clients(
            self, overloaded_server):
        server, host, port = overloaded_server
        statuses, failures = [], []
        lock = threading.Lock()

        def hammer(seed):
            try:
                with ClusterClient.connect(host, port) as client:
                    for i in range(10):
                        [r] = client.request_batch(
                            [protocol.get(b"key-%04d" % ((seed + i) % 32))])
                        with lock:
                            statuses.append(r)
            except Exception as exc:  # pragma: no cover - diagnostic path
                with lock:
                    failures.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not failures
        assert len(statuses) == 60
        for r in statuses:
            assert r.status in (STATUS_OK, STATUS_OVERLOADED)
            if r.status == STATUS_OVERLOADED:
                assert protocol.retry_after_hint(r) > 0
        overload = server.server.wire_stats()["overload"]
        assert overload["max_inflight_seen"] <= 2

    def test_connection_cap_refuses_excess_connections(self):
        coord = build_overloaded(1, replication=1)
        preload(coord, 8)
        server = BackgroundServer(coord, max_connections=1)
        host, port = server.start()
        try:
            with ClusterClient.connect(host, port) as first:
                [r] = first.request_batch([protocol.get(b"key-0001")])
                assert r.status == STATUS_OK
                # The second connection is refused without a reply: the
                # client sees a clean close, not a hang.
                with pytest.raises(Exception):
                    with ClusterClient.connect(host, port,
                                               timeout=1.0) as second:
                        second.request_batch(
                            [protocol.get(b"key-0001")])
            assert server.server.connections_refused >= 1
        finally:
            server.close()

    def test_overload_counters_ride_stats_and_health(self, overloaded_server):
        server, host, port = overloaded_server
        coord = server.server.coordinator
        # Provoke coordinator-level sheds, then read them back through
        # both export paths: ClusterStats.report() and OP_HEALTH.
        batch = [protocol.get(b"key-%04d" % i) for i in range(4)]
        coord.execute(batch, deadline=Deadline(0.0))
        report = coord.stats().report()
        assert report["cluster"]["overload"]["shed"] >= 4
        assert report["cluster"]["overload"]["deadline_shed"] >= 4
        with ClusterClient.connect(host, port) as client:
            health = client.health()
        assert health.status == STATUS_OK
        summary = json.loads(health.value.decode())
        assert summary["overload"]["deadline_shed"] >= 4
        assert "breakers" in summary["overload"]


# -- client-side bounds: deadline-capped backoff, retry budget --------------------


class TestClientOverloadBehavior:
    @staticmethod
    def bare_client(*, retries=2, backoff=0.05, backoff_cap=1.0,
                    deadline=None, budget=None):
        """A ClusterClient with no socket: _attempt is stubbed per test."""
        client = ClusterClient.__new__(ClusterClient)
        client._retries = retries
        client._backoff = backoff
        client._backoff_cap = backoff_cap
        client._timeout = 5.0
        client._deadline = deadline
        client.retry_budget = budget or RetryBudget()
        client.retried_reads = 0
        client.overload_retries = 0
        client.sleeps = []
        client._sleep = client.sleeps.append
        client._reconnect = lambda: None
        return client

    def test_overloaded_read_retries_per_hint_then_raises_typed(self):
        client = self.bare_client(retries=2)
        hint = 0.02
        client._attempt = lambda requests, deadline: [
            protocol.overloaded(hint, b"busy")]
        with pytest.raises(OverloadedError) as excinfo:
            client.get(b"k")
        assert excinfo.value.retry_after == pytest.approx(hint)
        assert "busy" in str(excinfo.value)
        assert client.overload_retries == 2
        assert len(client.sleeps) == 2
        for delay in client.sleeps:
            assert delay >= hint  # the server's hint is the floor

    def test_shed_write_returns_raw_response_never_retried(self):
        client = self.bare_client()
        attempts = []

        def attempt(requests, deadline):
            attempts.append(requests)
            return [protocol.overloaded(0.05, b"brownout")]

        client._attempt = attempt
        response = client.put(b"k", b"v")
        assert response.status == STATUS_OVERLOADED
        assert len(attempts) == 1  # one wire trip, the caller judges

    def test_retry_budget_bounds_amplification(self):
        # A drained budget fails fast even with retries to spare: the
        # cluster can never be amplified past cap + ratio * fresh.
        budget = RetryBudget(ratio=0.1, cap=1.0)
        client = self.bare_client(retries=50, budget=budget)
        attempts = []

        def attempt(requests, deadline):
            attempts.append(1)
            raise ClusterTimeoutError("still down")

        client._attempt = attempt
        with pytest.raises(ClusterTimeoutError):
            client.get(b"k")
        # 1 fresh attempt + (cap 1.0 + one 0.1 deposit, floored to 1
        # grantable token) = 2 wire trips, despite retries=50.
        assert len(attempts) == 2
        assert budget.denied >= 1

    def test_backoff_never_sleeps_past_the_deadline(self):
        # Satellite: total attempt wall-time is capped by the caller's
        # deadline — a sleep that would overrun it raises instead.
        client = self.bare_client(retries=5, backoff=1.0)

        def attempt(requests, deadline):
            raise ClusterTimeoutError("no answer")

        client._attempt = attempt
        with pytest.raises(DeadlineExceededError) as excinfo:
            client.get(b"k", deadline=0.04)
        assert "would overrun the deadline" in str(excinfo.value)
        assert client.sleeps == []  # it refused to sleep through it


# -- the overload chaos gauntlet (the issue's acceptance bar) ---------------------


class TestOverloadGauntlet:
    """zipf(0.99) hot-shard storm with one SLOW shard: degrade, don't die."""

    N_KEYS = 200
    OPS_PER_ROUND = 24
    STALL = 0.03

    def _drive(self, coord, history, stream, rounds, budget):
        """Run seeded zipf rounds; returns (ok, offered) goodput terms."""
        return history.run(
            lambda batch: coord.execute(batch, deadline=Deadline(budget)),
            stream, lambda ops: ops < rounds * self.OPS_PER_ROUND)

    def test_hot_shard_storm_degrades_gracefully(self, fault_record):
        plan = fault_record(FaultPlan())  # stalls applied directly below
        config = OverloadConfig(breaker_failures=2, breaker_latency=0.01,
                                breaker_recovery=0.2)
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=3, replication=2, n_keys=self.N_KEYS, scale=2048,
            batch_window=8, seed=5, shard_overrides={"fault_plan": plan},
            overload=config))
        monitor = HealthMonitor(coord, check_every=10**9)
        coord.health_monitor = monitor
        preload(coord, self.N_KEYS)

        # Graceful degradation means *typed* refusal: every non-OK answer
        # is an OVERLOADED shed carrying a positive retry_after hint and a
        # reason.
        history = History(allowed=(STATUS_OVERLOADED,))
        stream = ZipfStream(random.Random(99), self.N_KEYS,
                            per_batch=self.OPS_PER_ROUND)
        # zipf(0.99) rank-1 key: the storm's hot spot and the shard the
        # stall lands on — adversarial skew aimed at one partition.
        hot_group = coord.shards[coord.ring.route(b"key-0000")]

        calm_ok, calm_offered = self._drive(coord, history, stream, 6, 0.5)
        assert calm_ok == calm_offered  # pre-storm goodput is 1.0

        # The storm: the hot partition's primary turns slow-but-alive
        # while the skewed workload keeps hammering it.
        hot_group.replicas[0].shard.stall(self.STALL)
        storm_ok, storm_offered = self._drive(
            coord, history, stream, 10, 0.25)
        storm_goodput = storm_ok / storm_offered
        calm_goodput = calm_ok / calm_offered
        assert storm_goodput >= 0.6 * calm_goodput, (
            f"goodput collapsed: {storm_goodput:.2f} vs calm "
            f"{calm_goodput:.2f}")
        stats = coord.overload.stats()
        assert stats["shed"] > 0  # the layer did shed, not just luck
        assert stats["breaker_trips"] >= 1, (
            "the slow shard never tripped its breaker")

        # Heal; wait out the breaker's recovery window; the half-open
        # probe closes it and full goodput returns.
        hot_group.replicas[0].shard.heal()
        time.sleep(0.25)
        [probe] = coord.execute([protocol.get(b"key-0000")],
                                deadline=Deadline(1.0))
        assert probe.status == STATUS_OK
        recov_ok, recov_offered = self._drive(coord, history, stream, 4, 0.5)
        assert recov_ok == recov_offered, "goodput did not recover"
        assert coord.overload.stats()["breakers_open"] == 0

        # The bar: zero acknowledged writes lost — shed writes never
        # executed, acked writes all survived the storm.
        history.readback(coord.get)
