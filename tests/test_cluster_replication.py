"""Replica groups: fan-out writes, failover reads, health and re-sync.

Replication here is *between enclaves that share no secrets*: every test
that moves data between replicas is implicitly testing the trusted path
(verified read on the source, re-sealed put on the destination, all
metered).  The suite covers the ReplicaGroup request semantics, the
coordinator's failure containment, and the HealthMonitor's
restart-then-resync loop.
"""

import json

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    EnclaveSpec,
    FaultPlan,
    FaultyBackend,
    HealthMonitor,
    ReplicaState,
    build_replica_group,
    build_replicated_cluster,
)
from repro.cluster.shard import resolve_workers
from repro.errors import (
    IntegrityError,
    KeyNotFoundError,
    ReplicaUnavailableError,
    ShardCrashedError,
)
from repro.server import protocol
from repro.server.protocol import (
    STATUS_INTEGRITY_FAILURE,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_UNAVAILABLE,
)


def make_group(replication=2, backend=None):
    spec = EnclaveSpec("g0", epc_bytes=256 * 1024, capacity_keys=256,
                       workers=resolve_workers())
    return build_replica_group(spec, replication,
                               backend=FaultyBackend(backend))


def enclave_of(replica):
    shard = replica.shard
    return getattr(shard, "inner", shard).store.enclave


class TestReplicaIndependence:
    # Key material is readable only where the enclave lives, so the two
    # key checks build their replicas in this process.
    def test_replicas_have_distinct_key_material(self):
        group = make_group(replication=3, backend="inline")
        enc_keys = {enclave_of(r).keys.encryption_key for r in group.replicas}
        mac_keys = {enclave_of(r).keys.mac_key for r in group.replicas}
        assert len(enc_keys) == 3
        assert len(mac_keys) == 3

    def test_restart_mints_fresh_keys(self):
        group = make_group(replication=2, backend="inline")
        replica = group.replicas[0]
        old_key = enclave_of(replica).keys.encryption_key
        replica.shard.kill()
        replica.restart()
        assert enclave_of(replica).keys.encryption_key != old_key

    def test_write_is_metered_on_every_replica(self):
        group = make_group(replication=2)
        meters = [enclave_of(r).meter for r in group.replicas]
        before = [m.cycles for m in meters]
        [response] = group.flush_batch([protocol.put(b"k", b"v")])
        assert response.status == STATUS_OK
        for meter, b in zip(meters, before):
            assert meter.cycles > b, "a replica applied the write for free"
        for meter in meters:
            assert meter.events["op_put"] == 1

    def test_reads_touch_only_the_primary(self):
        group = make_group(replication=2)
        group.flush_batch([protocol.put(b"k", b"v")])
        secondary = enclave_of(group.replicas[1]).meter
        before = secondary.events["op_get"]
        group.flush_batch([protocol.get(b"k")] * 5)
        assert secondary.events["op_get"] == before

    def test_group_meter_is_max_cycles_sum_events(self):
        group = make_group(replication=2)
        group.flush_batch([protocol.put(b"k", b"v")])
        cycles = [enclave_of(r).meter.cycles for r in group.replicas]
        assert group.meter.cycles == max(cycles)
        # Write amplification is reported honestly: R=2 -> 2 op_puts.
        assert group.meter.events["op_put"] == 2


class TestBatchSemantics:
    def test_per_key_order_within_a_mixed_batch(self):
        group = make_group(replication=2)
        responses = group.flush_batch([
            protocol.put(b"a", b"1"),
            protocol.get(b"a"),
            protocol.put(b"a", b"2"),
            protocol.get(b"a"),
        ])
        assert [r.status for r in responses] == [STATUS_OK] * 4
        assert responses[1].value == b"1"
        assert responses[3].value == b"2"

    def test_secondary_converges_on_the_same_state(self):
        group = make_group(replication=2)
        group.flush_batch([protocol.put(b"a", b"1"),
                           protocol.put(b"b", b"2"),
                           protocol.delete(b"a"),
                           protocol.put(b"a", b"3")])
        for replica in group.replicas:
            store = replica.shard.store
            assert store.get(b"a") == b"3"
            assert store.get(b"b") == b"2"

    def test_empty_batch(self):
        assert make_group().flush_batch([]) == []


class TestCrashFailover:
    def test_primary_crash_promotes_secondary(self):
        group = make_group(replication=2)
        group.flush_batch([protocol.put(b"k", b"v")])
        group.replicas[0].shard.kill()
        [response] = group.flush_batch([protocol.get(b"k")])
        assert response.status == STATUS_OK
        assert response.value == b"v"
        assert group.replicas[0].state is ReplicaState.DOWN
        assert group.replicas[0].last_reason == "crash"
        assert group.failovers >= 1

    def test_secondary_crash_does_not_disturb_the_client(self):
        group = make_group(replication=2)
        group.replicas[1].shard.kill()
        [response] = group.flush_batch([protocol.put(b"k", b"v")])
        assert response.status == STATUS_OK
        assert group.replicas[1].state is ReplicaState.DOWN

    def test_all_replicas_down_yields_unavailable_not_crash(self):
        group = make_group(replication=2)
        for replica in group.replicas:
            replica.shard.kill()
        responses = group.flush_batch([protocol.get(b"k"),
                                       protocol.put(b"k", b"v")])
        assert [r.status for r in responses] == [STATUS_UNAVAILABLE] * 2
        assert group.unavailable_requests == 2

    def test_store_facade_fails_over_on_crash(self):
        group = make_group(replication=2)
        group.store.put(b"k", b"v")
        group.replicas[0].shard.kill()
        assert group.store.get(b"k") == b"v"

    def test_store_facade_raises_when_no_replica_lives(self):
        group = make_group(replication=1)
        group.replicas[0].shard.kill()
        with pytest.raises(ReplicaUnavailableError):
            group.store.get(b"k")
        with pytest.raises(ReplicaUnavailableError):
            group.store.put(b"k", b"v")


class TestCoordinatorContainment:
    """Satellite: a failing shard costs error responses, not the batch."""

    def test_flush_failure_yields_per_request_errors(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=1, n_keys=64, scale=2048, batch_window=4,
            backend=FaultyBackend()))
        keys = [b"k%02d" % i for i in range(32)]
        coord.load((k, b"v") for k in keys)
        # Kill every replica of shard-0: its requests must error, the
        # other shard's must succeed, and no slot may stay None.
        for replica in coord.shards["shard-0"].replicas:
            replica.shard.kill()
        responses = coord.execute([protocol.get(k) for k in keys])
        assert len(responses) == len(keys)
        assert all(r is not None for r in responses)
        statuses = {r.status for r in responses}
        assert statuses == {STATUS_OK, STATUS_UNAVAILABLE}
        assert coord.flush_failures == 0  # group absorbed it downstream

    def test_plain_shard_crash_is_contained_by_the_coordinator(self):
        # No replication layer at all: the coordinator's own try/except
        # is the last line of defense.
        plan = FaultPlan().kill("s0", at=1)
        from repro.cluster.faults import FaultyShard

        def shard(shard_id):
            return EnclaveSpec(shard_id, epc_bytes=256 * 1024,
                               capacity_keys=64).build()

        shards = [FaultyShard(shard("s0"), plan), FaultyShard(shard("s1"))]
        coord = ClusterCoordinator(shards, batch_window=4)
        responses = coord.execute(
            [protocol.put(b"k%02d" % i, b"v") for i in range(16)])
        assert all(r is not None for r in responses)
        assert {r.status for r in responses} == {STATUS_OK,
                                                 STATUS_UNAVAILABLE}
        assert coord.flush_failures >= 1

    def test_single_request_api_maps_unavailable_to_typed_error(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048,
            backend=FaultyBackend()))
        coord.shards["shard-0"].replicas[0].shard.kill()
        with pytest.raises(ReplicaUnavailableError):
            coord.get(b"k")
        with pytest.raises(ReplicaUnavailableError):
            coord.put(b"k", b"v")
        with pytest.raises(ReplicaUnavailableError):
            coord.delete(b"k")


class TestHealthEndpoint:
    def test_health_opcode_served_at_the_front_door(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=2, n_keys=64, scale=2048))
        [response] = coord.execute([protocol.health()])
        assert response.status == STATUS_OK
        summary = json.loads(response.value)
        assert summary["n_shards"] == 2
        assert summary["n_serving"] == 2
        states = summary["shards"]["shard-0"]
        assert set(states.values()) == {"up"}

    def test_health_reflects_a_down_replica(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=64, scale=2048,
            backend=FaultyBackend()))
        coord.shards["shard-0"].replicas[0].shard.kill()
        # The kill is visible only after the group touches the shard.
        try:
            coord.get(b"probe")
        except KeyNotFoundError:
            pass
        summary = json.loads(coord.health_response().value)
        assert summary["shards"]["shard-0"]["shard-0/r0"] == "down"
        assert summary["n_serving"] == 1


class TestHealthMonitor:
    def test_restart_and_resync_through_the_trusted_path(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=128, scale=2048,
            backend=FaultyBackend()))
        pairs = [(b"k%03d" % i, b"v%03d" % i) for i in range(40)]
        coord.load(pairs)
        group = coord.shards["shard-0"]
        victim = group.replicas[0]
        victim.shard.kill()
        try:
            coord.get(b"k000")  # let the group notice the crash
        except KeyNotFoundError:
            pass
        assert victim.state is ReplicaState.DOWN

        monitor = HealthMonitor(coord, check_every=1)
        reports = monitor.check()
        assert len(reports) == 1
        report = reports[0]
        assert report.restarted
        assert report.keys_copied == 40
        # Trusted path: verified reads cost the peer, re-sealed puts cost
        # the newcomer — neither side moves data for free.
        assert report.src_cycles > 0
        assert report.dst_cycles > 0
        assert victim.state is ReplicaState.UP
        # The recovered replica holds every key, under its *own* seal.
        for key, value in pairs:
            assert victim.shard.store.get(key) == value

    def test_monitor_piggybacks_on_the_serving_loop(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=64, scale=2048, batch_window=4,
            backend=FaultyBackend()))
        coord.load([(b"k%02d" % i, b"v") for i in range(8)])
        monitor = HealthMonitor(coord, check_every=8)
        coord.health_monitor = monitor
        group = coord.shards["shard-0"]
        group.replicas[0].shard.kill()
        # Serve past the check window: the monitor must heal in-band.
        for _ in range(3):
            coord.execute([protocol.get(b"k%02d" % i) for i in range(8)])
        assert group.replicas[0].state is ReplicaState.UP
        assert monitor.total_resyncs() == 1
        assert monitor.total_keys_resynced() == 8

    def test_no_live_peer_means_no_resync(self):
        # The pre-durability baseline: with every replica of a partition
        # dead and no sealed state to recover from, the group must stay
        # unavailable forever rather than rejoin an empty enclave.  The
        # durable path (repro.persist + test_durability_recovery) is the
        # *only* sanctioned way out of this state.
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048,
            backend=FaultyBackend()))
        coord.load([(b"k", b"v")])
        group = coord.shards["shard-0"]
        group.replicas[0].shard.kill()
        with pytest.raises(ReplicaUnavailableError):
            coord.get(b"k")
        monitor = HealthMonitor(coord, check_every=1)
        reports = monitor.check()
        # Restarted (empty) but never resynced, so never UP: an empty
        # enclave must not masquerade as the data's last copy.
        assert reports == []
        assert group.replicas[0].state is ReplicaState.RECOVERING
        # Batched reads surface UNAVAILABLE, never NOT_FOUND — the data is
        # unreachable, not absent.
        [response] = coord.execute([protocol.get(b"k")])
        assert response.status == STATUS_UNAVAILABLE
        # And no amount of re-checking changes the verdict: the replica
        # waits in RECOVERING, serving nothing, losing nothing.
        for _ in range(3):
            assert monitor.check() == []
        assert group.replicas[0].state is ReplicaState.RECOVERING
        assert monitor.total_resyncs() == 0
        assert monitor.total_recoveries() == 0

    def test_reconnect_resync_drops_keys_the_peer_deleted(self):
        # A partitioned replica keeps its state; the delete it missed must
        # not come back once it is the last copy.
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=64, scale=2048,
            backend=FaultyBackend()))
        coord.load([(b"k0", b"v0"), (b"k1", b"v1")])
        group = coord.shards["shard-0"]
        group.replicas[1].shard.partition()
        responses = coord.execute([protocol.delete(b"k0"),
                                   protocol.put(b"k1", b"v2")])
        assert [r.status for r in responses] == [STATUS_OK, STATUS_OK]
        assert group.replicas[1].last_reason == "unreachable"
        group.replicas[1].shard.heal()
        [report] = HealthMonitor(coord, check_every=1).check()
        assert report.reconnected and not report.restarted
        assert report.keys_copied == 1
        group.replicas[0].shard.kill()
        with pytest.raises(KeyNotFoundError):
            coord.get(b"k0")
        assert coord.get(b"k1") == b"v2"

    def test_integrity_quarantine_heals_back_to_up(self):
        plan = FaultPlan().corrupt("shard-0/r0", at=2, key=b"k00")
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=64, scale=2048,
            backend=FaultyBackend(plan=plan)))
        coord.load([(b"k%02d" % i, b"v%02d" % i) for i in range(10)])
        group = coord.shards["shard-0"]
        # Trip the corruption, then read: primary alarms, peer serves.
        assert coord.get(b"k01") == b"v01"
        assert coord.get(b"k00") == b"v00"
        assert group.replicas[0].last_reason == "integrity"
        monitor = HealthMonitor(coord, check_every=1)
        [report] = monitor.check()
        assert report.keys_copied == 10
        assert group.replicas[0].state is ReplicaState.UP
        # And the healed replica serves clean data again.
        assert group.replicas[0].shard.store.get(b"k00") == b"v00"


class TestStatsIntegration:
    def test_cluster_stats_aggregates_replica_groups(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=2, n_keys=64, scale=2048))
        stats = coord.stats()
        coord.execute([protocol.put(b"k%02d" % i, b"v") for i in range(16)])
        report = stats.report()
        cluster = report["cluster"]
        assert cluster["replicas"] == 4
        assert cluster["replicas_down"] == 0
        assert cluster["window_ops"] >= 16  # amplification counted
        row = report["shards"]["shard-0"]
        assert row["replication"] == 2
        assert set(row["replicas"]) == {"shard-0/r0", "shard-0/r1"}

    def test_down_replica_shows_in_stats(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=2, n_keys=64, scale=2048,
            backend=FaultyBackend()))
        group = coord.shards["shard-0"]
        group.replicas[1].shard.kill()
        coord.put(b"k", b"v")  # fan-out notices the dead secondary
        cluster = coord.stats().report()["cluster"]
        assert cluster["replicas_down"] == 1


class TestReplicatedBuild:
    def test_epc_budget_is_split_across_all_enclaves(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=2, n_keys=64,
            cluster_epc_bytes=16 * 1024 * 1024))
        for group in coord.shard_list():
            for replica in group.replicas:
                assert replica.shard.epc_bytes == 16 * 1024 * 1024 // 4

    def test_replication_factor_must_be_positive(self):
        with pytest.raises(ValueError):
            make_group(replication=0)

    def test_r1_degenerates_to_plain_semantics(self):
        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=1, n_keys=64, scale=2048))
        coord.put(b"k", b"v")
        assert coord.get(b"k") == b"v"
        coord.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            coord.get(b"k")
