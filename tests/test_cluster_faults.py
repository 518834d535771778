"""Fault injection: deterministic plans, net faults, and seeded chaos.

Marked ``faults`` so CI can run the whole failure-mode suite as its own
job (``pytest -m faults``).  Everything here is deterministic: fault
plans are pure data, chaos schedules are seeded, and the zipf workload
is generated from a fixed RNG — a failure reproduces exactly.

The closing chaos test is the issue's acceptance bar: with R=2, killing
any single replica mid-workload loses no acknowledged write, reads fail
over transparently, and the restarted replica re-syncs from a live peer
through the trusted (metered, re-sealed) path before rejoining.
"""

import random

import pytest

from repro.attacks.scenarios import corrupt_record_in_place
from repro.cluster import netutil
from repro.cluster import (
    BackgroundServer,
    ClusterClient,
    ClusterConfig,
    EnclaveSpec,
    FaultEvent,
    FaultPlan,
    FaultyShard,
    HealthMonitor,
    ReplicaState,
    build_replicated_cluster,
)
from repro.errors import (
    ClusterTimeoutError,
    IntegrityError,
    ShardCrashedError,
    ShardUnreachableError,
)
from repro.server import protocol
from repro.server.protocol import STATUS_INTEGRITY_FAILURE, STATUS_OK

from tests.chaos import History, ZipfStream

pytestmark = pytest.mark.faults


class TestFaultPlan:
    def test_events_fire_once_at_their_trigger(self):
        plan = FaultPlan().kill("s0", at=5).corrupt("s0", at=9, key=b"k")
        assert plan.pop_due("s0", 4) == []
        due = plan.pop_due("s0", 5)
        assert [e.kind for e in due] == ["kill"]
        assert plan.pop_due("s0", 5) == []  # never re-fires
        assert [e.kind for e in plan.pop_due("s0", 100)] == ["corrupt"]
        assert plan.pop_due("other", 100) == []

    def test_validation(self):
        with pytest.raises(ValueError):
            FaultEvent("meteor", "s0", 1)
        with pytest.raises(ValueError):
            FaultEvent("kill", "s0", -1)

    def test_unknown_kind_is_a_typed_error(self):
        from repro.errors import ConfigurationError, UnknownFaultKindError

        # Catchable as config misuse or as the historical ValueError.
        assert issubclass(UnknownFaultKindError, ConfigurationError)
        assert issubclass(UnknownFaultKindError, ValueError)
        with pytest.raises(UnknownFaultKindError, match="meteor"):
            FaultEvent("meteor", "s0", 1)
        # The plan constructor re-validates, so a hand-built event with a
        # forged kind cannot smuggle its way into a schedule.
        forged = FaultEvent("kill", "s0", 1)
        object.__setattr__(forged, "kind", "meteor")
        with pytest.raises(UnknownFaultKindError, match="meteor"):
            FaultPlan([forged])

    def test_partition_events_schedule_like_any_other(self):
        plan = FaultPlan().partition("s0", at=4, seconds=1.5)
        [event] = plan.pop_due("s0", 4)
        assert event.kind == "partition"
        assert event.seconds == 1.5
        chaos = FaultPlan.chaos(["s0", "s1"], horizon=500, n_kills=0,
                                n_corrupts=0, n_partitions=3, seed=2)
        kinds = [e.kind for t in ("s0", "s1") for e in chaos.events_for(t)]
        assert kinds.count("partition") == 3
        assert "n_partitions=3" in chaos.spec

    def test_chaos_is_deterministic_in_its_seed(self):
        a = FaultPlan.chaos(["s0", "s1"], horizon=1000, seed=7)
        b = FaultPlan.chaos(["s0", "s1"], horizon=1000, seed=7)
        c = FaultPlan.chaos(["s0", "s1"], horizon=1000, seed=8)
        as_tuples = lambda p: [  # noqa: E731
            (e.kind, e.target, e.at)
            for t in ("s0", "s1") for e in p.events_for(t)
        ]
        assert as_tuples(a) == as_tuples(b)
        assert as_tuples(a) != as_tuples(c)

    def test_chaos_respects_min_gap(self):
        plan = FaultPlan.chaos(["s0"], horizon=100, n_kills=3, n_corrupts=3,
                               min_gap=200, seed=1)
        points = sorted(e.at for e in plan.events_for("s0"))
        assert all(b - a >= 200 for a, b in zip(points, points[1:]))


def s0():
    return EnclaveSpec("s0", epc_bytes=256 * 1024, capacity_keys=64).build()


class TestFaultyShard:
    def test_kill_at_op_count(self):
        plan = FaultPlan().kill("s0", at=3)
        shard = FaultyShard(s0(), plan)
        ok = shard.server.flush_batch([protocol.put(b"a", b"1"),
                                       protocol.put(b"b", b"2")])
        assert [r.status for r in ok] == [STATUS_OK, STATUS_OK]
        with pytest.raises(ShardCrashedError):
            shard.server.flush_batch([protocol.get(b"a")])
        with pytest.raises(ShardCrashedError):
            shard.store  # dead enclaves don't answer
        assert shard.stats()["crashed"] is True

    def test_restart_requires_recipe_and_death(self):
        shard = FaultyShard(s0())
        with pytest.raises(ShardCrashedError):
            shard.restart()  # not dead
        shard.kill()
        with pytest.raises(ShardCrashedError):
            shard.restart()  # dead, but no rebuild recipe

    def test_corrupt_trips_integrity_on_next_touch(self):
        shard = FaultyShard(s0())
        shard.server.flush_batch([protocol.put(b"k", b"v")])
        shard.corrupt(b"k")
        [response] = shard.server.flush_batch([protocol.get(b"k")])
        assert response.status == STATUS_INTEGRITY_FAILURE

    def test_corrupt_on_empty_store_is_a_noop(self):
        shard = FaultyShard(s0())
        shard.corrupt()
        assert shard.corruptions == 0

    def test_partition_blackholes_then_reconnects_without_restart(self):
        plan = FaultPlan().partition("s0", at=3)
        shard = FaultyShard(s0(), plan)
        shard.server.flush_batch([protocol.put(b"k", b"v")])
        with pytest.raises(ShardUnreachableError):
            shard.server.flush_batch([protocol.get(b"k"),
                                      protocol.get(b"k")])
        assert shard.partitioned and not shard.crashed
        with pytest.raises(ShardUnreachableError):
            shard.store  # unreachable enclaves don't answer either...
        assert shard.reconnect() is True  # duration 0: healable at once
        assert not shard.partitioned
        # ...but unlike a kill, the state was never lost: no restart.
        assert shard.store.get(b"k") == b"v"
        assert shard.restarts == 0
        assert shard.reconnects == 1
        row = shard.stats()
        assert row["partitions"] == 1 and row["reconnects"] == 1

    def test_partition_heal_window_gates_reconnect(self):
        shard = FaultyShard(s0())
        shard.partition(60.0)  # far-future heal deadline
        assert shard.reconnect() is False  # still black-holed
        assert shard.partitioned
        shard.heal()  # collapse the window
        assert shard.reconnect() is True
        assert not shard.partitioned


class TestTamperAgainstRunningCluster:
    """Satellite: repro.attacks scenarios driven at cluster scope."""

    def test_tamper_surfaces_per_request_without_replication(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=1, n_keys=128, scale=2048, batch_window=8))
        keys = [b"key-%03d" % i for i in range(32)]
        coord.load((k, b"val") for k in keys)
        victim_key = keys[0]
        group = coord.shards[coord.ring.route(victim_key)]
        corrupt_record_in_place(
            group.replicas[0].shard.store, victim_key)
        responses = coord.execute([protocol.get(k) for k in keys])
        by_key = dict(zip(keys, responses))
        # Exactly the tampered record alarms; every other request is
        # served normally — per-request containment, not a dead batch.
        assert by_key[victim_key].status == STATUS_INTEGRITY_FAILURE
        others = [r.status for k, r in by_key.items() if k != victim_key]
        assert set(others) == {STATUS_OK}

    def test_tamper_fails_over_with_replication(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=128, scale=2048, batch_window=8))
        keys = [b"key-%03d" % i for i in range(16)]
        coord.load((k, b"val") for k in keys)
        group = coord.shards["shard-0"]
        corrupt_record_in_place(group.replicas[0].shard.store, keys[3])
        responses = coord.execute([protocol.get(k) for k in keys])
        # The read failed over to the intact replica: the client never
        # sees the alarm, and the rotten replica is quarantined.
        assert all(r.status == STATUS_OK for r in responses)
        assert group.replicas[0].state is ReplicaState.DOWN
        assert group.replicas[0].last_reason == "integrity"
        assert group.failovers >= 1

    def test_last_live_replica_surfaces_the_alarm(self):
        # With one replica left, going dark would be worse than alarming.
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=128, scale=2048))
        coord.load([(b"k", b"v")])
        group = coord.shards["shard-0"]
        group.replicas[1].shard.kill()
        coord.put(b"other", b"x")  # fan-out notices the dead secondary
        corrupt_record_in_place(group.replicas[0].shard.store, b"k")
        with pytest.raises(IntegrityError):
            coord.get(b"k")
        assert group.replicas[0].state is ReplicaState.UP


@pytest.fixture()
def replicated_server():
    coord = build_replicated_cluster(ClusterConfig(
        n_shards=2, replication=2, n_keys=256, scale=2048, batch_window=8))
    coord.load((b"key-%03d" % i, b"val-%03d" % i) for i in range(64))
    with BackgroundServer(coord) as background:
        yield background


class TestNetFaults:
    def _serve(self, coordinator, fault_plan=None, **kwargs):
        return BackgroundServer(
            coordinator, fault_plan=fault_plan, **kwargs
        )

    def test_delay_fault_trips_the_client_timeout(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048))
        coord.load([(b"k", b"v")])
        plan = FaultPlan().delay(at=1, seconds=1.0)
        with BackgroundServer(coord, fault_plan=plan) as background:
            host, port = background.server.address
            client = ClusterClient.connect(host, port, timeout=0.2, retries=0)
            try:
                with pytest.raises(ClusterTimeoutError):
                    client.get(b"k")
            finally:
                client.close()

    def test_read_retries_ride_out_a_dropped_frame(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048))
        coord.load([(b"k", b"v")])
        plan = FaultPlan().drop(at=1)
        with BackgroundServer(coord, fault_plan=plan) as background:
            host, port = background.server.address
            naps = []
            client = ClusterClient.connect(host, port, timeout=0.3, retries=2,
                                   backoff=0.01, sleep=naps.append)
            try:
                response = client.get(b"k")
                assert response.value == b"v"
                assert client.retried_reads == 1
                assert client.reconnects == 1
                # Backoff actually applied: the base delay plus at most
                # the jitter slice (see repro.cluster.netutil.jittered).
                assert len(naps) == 1
                assert 0.01 <= naps[0] <= 0.01 * (1 + netutil.RETRY_JITTER)
                assert background.server.frames_dropped == 1
            finally:
                client.close()

    def test_close_fault_kills_the_connection_mid_stream(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048))
        coord.load([(b"k", b"v")])
        plan = FaultPlan().close(at=1)
        with BackgroundServer(coord, fault_plan=plan) as background:
            host, port = background.server.address
            client = ClusterClient.connect(host, port, timeout=0.5, retries=1,
                                   backoff=0.01, sleep=lambda _: None)
            try:
                # First frame is eaten by the close; the retry reconnects
                # and succeeds because the fault has already fired.
                assert client.get(b"k").value == b"v"
                assert background.server.connections_closed_by_fault == 1
            finally:
                client.close()

    def test_writes_are_never_auto_retried(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048))
        plan = FaultPlan().drop(at=1)
        with BackgroundServer(coord, fault_plan=plan) as background:
            host, port = background.server.address
            client = ClusterClient.connect(host, port, timeout=0.2, retries=3,
                                   backoff=0.01, sleep=lambda _: None)
            try:
                with pytest.raises(ClusterTimeoutError):
                    client.put(b"k", b"v")
                assert client.retried_reads == 0
            finally:
                client.close()

    def test_exponential_backoff_is_bounded(self):
        from repro.cluster.overload import RetryBudget

        naps = []
        client = ClusterClient.__new__(ClusterClient)
        client._retries = 4
        client._backoff = 0.1
        client._backoff_cap = 0.25
        client._sleep = naps.append
        client._deadline = None
        client.retry_budget = RetryBudget()
        client.retried_reads = 0
        client.overload_retries = 0
        client.reconnects = 0
        client._reconnect = lambda: None

        calls = {"n": 0}

        def failing_attempt(requests, deadline):
            calls["n"] += 1
            raise ClusterTimeoutError("still down")

        client._attempt = failing_attempt
        with pytest.raises(ClusterTimeoutError):
            client._retrying_single(protocol.get(b"k"))
        assert calls["n"] == 5  # 1 try + 4 retries
        # Doubled then capped, each nap stretched by at most the jitter
        # fraction — never shortened, so the cap is still a floor here.
        for nap, base in zip(naps, [0.1, 0.2, 0.25, 0.25]):
            assert base <= nap <= base * (1 + netutil.RETRY_JITTER)

    def test_health_probe_over_the_wire(self, replicated_server):
        import json
        host, port = replicated_server.server.address
        client = ClusterClient(host, port)
        try:
            response = client.health()
            assert response.status == STATUS_OK
            summary = json.loads(response.value)
            assert summary["n_serving"] == 2
        finally:
            client.close()


class TestChaos:
    """The acceptance-bar scenario, end to end and fully seeded."""

    N_KEYS = 200
    OPS = 1200

    def test_single_replica_kills_lose_no_acknowledged_write(self, fault_record):
        # Triggers count each *replica's own* flushed ops: a group's
        # primary sees every routed request, a secondary only the writes,
        # so keep the horizon well under OPS / n_shards and drive extra
        # rounds until the whole schedule has fired.
        targets = [f"shard-{i}/r{j}" for i in range(2) for j in range(2)]
        plan = fault_record(FaultPlan.chaos(targets, horizon=150, n_kills=2,
                                            n_corrupts=2, min_gap=150,
                                            seed=42))
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=2, n_keys=self.N_KEYS, scale=2048,
            batch_window=8, shard_overrides={"fault_plan": plan}))
        monitor = HealthMonitor(coord, check_every=64)
        coord.health_monitor = monitor
        coord.load((b"key-%04d" % i, b"init") for i in range(self.N_KEYS))

        # No request may be lost or alarmed: every slot a served OK
        # (NOT_FOUND is impossible — all keys were preloaded).
        history = History(plan=plan)
        history.run(coord.execute, ZipfStream(random.Random(42), self.N_KEYS),
                    history.until_fired(self.OPS, 8 * self.OPS))

        history.fired(4)
        downs = sum(r.downs for g in coord.shard_list()
                    for r in g.replicas)
        assert downs >= 1, \
            f"chaos plan never took a replica down\n{plan.describe()}"
        # ...and recovery ran: every down replica was restarted and
        # re-synced through the metered, re-sealed trusted path.
        monitor.check()
        for report in monitor.history:
            assert report.keys_copied > 0
            assert report.src_cycles > 0
            assert report.dst_cycles > 0
        history.replicas_up(coord)

        # The bar: every acknowledged write is still readable.
        history.readback(coord.get)
