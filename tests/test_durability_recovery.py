"""Whole-partition death and rollback-protected recovery, on both backends.

The acceptance bar for the durability layer: kill *every* replica of a
partition (a real ``SIGKILL`` under the process backend), recover from the
sealed snapshot + chained log, and lose **zero acknowledged writes** — while
a staged stale-state rollback or a wiped monotonic counter is *rejected*
with :class:`~repro.errors.RollbackDetectedError` instead of silently
serving yesterday's data.

The whole module is parametrized over the inline and process shard backends
by ``conftest.py``; the durability sidecar lives parent-side either way, so
every cycle figure and every recovery outcome must be identical.
"""

import random

import pytest

from repro.cluster import (
    ClusterConfig,
    FaultPlan,
    HealthMonitor,
    ReplicaState,
    build_replicated_cluster,
    dur_target,
)
from repro.errors import RollbackDetectedError
from repro.persist import (
    MemoryDisk,
    attach_cluster_durability,
    restore_cluster_from_storage,
)
from repro.server import protocol
from repro.server.protocol import STATUS_OK, STATUS_UNAVAILABLE
from repro.sgx.monotonic import MonotonicCounterService

from tests.chaos import History, ZipfStream

pytestmark = pytest.mark.durability


def make_durable_cluster(n_shards=2, replication=2, *, epoch_every=4,
                         fault_plan=None, **kwargs):
    kwargs.setdefault("n_keys", 128)
    kwargs.setdefault("scale", 2048)
    coord = build_replicated_cluster(ClusterConfig(
        n_shards=n_shards, replication=replication,
        shard_overrides={"fault_plan": fault_plan}, **kwargs))
    disk = MemoryDisk()
    counters = MonotonicCounterService()
    sidecars = attach_cluster_durability(
        coord, disk, counters, epoch_every=epoch_every,
        fault_plan=fault_plan)
    return coord, disk, counters, sidecars


def kill_group(group):
    """Take a whole partition down: every enclave dies (real SIGKILL on
    the process backend), then the group notices at its next touch."""
    for replica in group.replicas:
        replica.shard.kill()
        group.mark_down(replica, "crash")


class TestWholePartitionRecovery:
    def test_group_death_then_rebuild_from_sealed_storage(self):
        coord, disk, counters, _ = make_durable_cluster()
        pairs = [(b"key-%03d" % i, b"v%03d" % i) for i in range(60)]
        coord.load(pairs)
        responses = coord.execute(
            [protocol.put(b"key-%03d" % i, b"w%03d" % i) for i in range(20)])
        assert all(r.status == STATUS_OK for r in responses)

        for group in coord.shard_list():
            kill_group(group)
        # Down means down: reads surface UNAVAILABLE, not stale data.
        [resp] = coord.execute([protocol.get(b"key-000")])
        assert resp.status == STATUS_UNAVAILABLE

        monitor = HealthMonitor(coord, check_every=1)
        monitor.check()
        assert monitor.recovery_failures == []
        assert monitor.total_recoveries() == len(coord.shard_list())
        # One replica per group was rebuilt from storage, the rest re-synced
        # from it over the trusted path — everyone is UP again.
        for group in coord.shard_list():
            for replica in group.replicas:
                assert replica.state is ReplicaState.UP
        for i in range(60):
            expected = b"w%03d" % i if i < 20 else b"v%03d" % i
            assert coord.get(b"key-%03d" % i) == expected
        # Recovery is priced: counter read + unseal/verify + re-sealed puts.
        for report in monitor.recoveries:
            assert report.keys_restored > 0
            assert report.dur_cycles > 0
            assert report.dst_cycles > 0

    def test_recovery_cycles_are_backend_invariant(self, cluster_backend):
        # The sidecar lives parent-side for both backends, so the durable
        # write path must cost identical simulated cycles either way.
        coord, disk, counters, sidecars = make_durable_cluster(
            n_shards=1, replication=1, seed=3)
        coord.load([(b"k%02d" % i, b"v" * 32) for i in range(32)])
        coord.execute([protocol.put(b"k%02d" % i, b"w" * 32)
                       for i in range(32)])
        dur = sidecars["shard-0"]
        assert dur.commits >= 2
        assert dur.meter.cycles == pytest.approx(dur.meter.cycles)
        # Pin the figure's determinism rather than its magnitude: replaying
        # the same workload on a fresh cluster lands on the same cycles.
        coord2, _, _, sidecars2 = make_durable_cluster(
            n_shards=1, replication=1, seed=3)
        coord2.load([(b"k%02d" % i, b"v" * 32) for i in range(32)])
        coord2.execute([protocol.put(b"k%02d" % i, b"w" * 32)
                        for i in range(32)])
        assert sidecars2["shard-0"].meter.cycles == dur.meter.cycles

    def test_torn_tail_recovers_to_last_committed_batch(self):
        coord, disk, counters, sidecars = make_durable_cluster(
            n_shards=1, replication=2)
        coord.load([(b"base", b"v")])
        dur = sidecars["shard-0"]
        dur.plan = FaultPlan().torn(dur_target("shard-0"),
                                    at=dur.commit_attempts + 2)
        r1 = coord.execute([protocol.put(b"acked", b"yes")])
        assert r1[0].status == STATUS_OK
        # The torn commit: the group repairs durability from live state and
        # retries, so the client still gets its ack — nothing is lost even
        # though the first append died halfway.
        r2 = coord.execute([protocol.put(b"torn-batch", b"landed-anyway")])
        assert r2[0].status == STATUS_OK
        group = coord.shards["shard-0"]
        assert group.durability_repairs == 1

        kill_group(group)
        monitor = HealthMonitor(coord, check_every=1)
        monitor.check()
        assert monitor.recovery_failures == []
        assert coord.get(b"acked") == b"yes"
        assert coord.get(b"torn-batch") == b"landed-anyway"

    def test_stale_rollback_is_rejected_and_replicas_stay_down(self):
        coord, disk, counters, sidecars = make_durable_cluster(
            n_shards=1, replication=2, epoch_every=2)
        coord.load([(b"k%02d" % i, b"old") for i in range(8)])
        dur = sidecars["shard-0"]
        token = dur.capture_state()
        responses = coord.execute(
            [protocol.put(b"k%02d" % i, b"new") for i in range(8)])
        assert all(r.status == STATUS_OK for r in responses)
        assert dur.epoch > 1  # the writes crossed an epoch binding

        group = coord.shards["shard-0"]
        kill_group(group)
        dur.restore_state(token)  # the host replays yesterday's disk

        monitor = HealthMonitor(coord, check_every=1)
        monitor.check()
        [(group_id, exc)] = monitor.recovery_failures
        assert group_id == "shard-0"
        assert isinstance(exc, RollbackDetectedError)
        # Nobody rejoined on stale data; the partition stays unavailable.
        for replica in group.replicas:
            assert replica.state is not ReplicaState.UP
        [resp] = coord.execute([protocol.get(b"k00")])
        assert resp.status == STATUS_UNAVAILABLE

    def test_counter_reset_is_rejected(self):
        coord, disk, counters, sidecars = make_durable_cluster(
            n_shards=1, replication=2)
        coord.execute([protocol.put(b"k", b"v")])
        group = coord.shards["shard-0"]
        kill_group(group)
        counters.reset("shard-0.epoch")

        monitor = HealthMonitor(coord, check_every=1)
        monitor.check()
        [(_, exc)] = monitor.recovery_failures
        assert isinstance(exc, RollbackDetectedError)
        assert "rewound" in str(exc)
        for replica in group.replicas:
            assert replica.state is not ReplicaState.UP

    def test_offline_truncation_across_epochs_is_rejected(self):
        coord, disk, counters, sidecars = make_durable_cluster(
            n_shards=1, replication=2, epoch_every=1)
        coord.execute([protocol.put(b"a", b"1")])
        cut = disk.size("shard-0.log")
        coord.execute([protocol.put(b"b", b"2")])
        group = coord.shards["shard-0"]
        kill_group(group)
        disk.truncate("shard-0.log", cut)  # cut crosses an epoch binding

        monitor = HealthMonitor(coord, check_every=1)
        monitor.check()
        [(_, exc)] = monitor.recovery_failures
        assert isinstance(exc, RollbackDetectedError)


class TestColdStartRestore:
    """The ``serve --durable --data-dir`` flow: a brand-new process (new
    coordinator, new enclaves) restores the previous run's state from the
    sealed files before taking traffic."""

    def test_restart_over_the_same_data_dir(self, tmp_path):
        from repro.persist import FileDisk
        data_dir = str(tmp_path / "data")
        counters_path = str(tmp_path / "counters.json")

        coord = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=1, n_keys=64, scale=2048))
        attach_cluster_durability(
            coord, FileDisk(data_dir),
            MonotonicCounterService(path=counters_path), epoch_every=4)
        assert restore_cluster_from_storage(coord) == {}  # fresh dir
        pairs = [(b"key-%03d" % i, b"v%03d" % i) for i in range(40)]
        coord.load(pairs)
        coord.execute([protocol.delete(b"key-000"),
                       protocol.put(b"key-001", b"updated")])
        for group in coord.shard_list():
            group.close()

        # "New process": everything rebuilt from scratch over the same dir.
        coord2 = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=1, n_keys=64, scale=2048))
        attach_cluster_durability(
            coord2, FileDisk(data_dir),
            MonotonicCounterService(path=counters_path), epoch_every=4)
        restored = restore_cluster_from_storage(coord2)
        assert set(restored) == {"shard-0", "shard-1"}
        assert coord2.get(b"key-001") == b"updated"
        for i in range(2, 40):
            assert coord2.get(b"key-%03d" % i) == b"v%03d" % i
        from repro.errors import KeyNotFoundError
        with pytest.raises(KeyNotFoundError):
            coord2.get(b"key-000")
        for group in coord2.shard_list():
            group.close()

    def test_rollback_refuses_the_cold_start(self, tmp_path):
        from repro.persist import FileDisk
        data_dir = str(tmp_path / "data")
        counters_path = str(tmp_path / "counters.json")
        disk = FileDisk(data_dir)

        coord = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048))
        attach_cluster_durability(
            coord, disk, MonotonicCounterService(path=counters_path),
            epoch_every=1)
        restore_cluster_from_storage(coord)
        coord.execute([protocol.put(b"k", b"v1")])
        stale = disk.capture()
        coord.execute([protocol.put(b"k", b"v2")])  # epoch moves on
        for group in coord.shard_list():
            group.close()

        disk.restore(stale)
        coord2 = build_replicated_cluster(ClusterConfig(
            n_shards=1, replication=1, n_keys=64, scale=2048))
        attach_cluster_durability(
            coord2, FileDisk(data_dir),
            MonotonicCounterService(path=counters_path), epoch_every=1)
        with pytest.raises(RollbackDetectedError):
            restore_cluster_from_storage(coord2)
        for group in coord2.shard_list():
            group.close()


@pytest.mark.faults
class TestDurableChaos:
    """The gauntlet: replica kills *and* disk-layer sabotage on one seeded
    schedule, with whole-group death staged on top — zero acked writes may
    be lost, and the failing seed + schedule must be printable."""

    N_KEYS = 96

    def test_chaos_with_disk_sabotage_loses_no_acked_write(self, fault_record):
        targets = [f"shard-{i}/r{j}" for i in range(2) for j in range(2)]
        dur_targets = [dur_target(f"shard-{i}") for i in range(2)]
        plan = FaultPlan.chaos(targets, horizon=120, n_kills=2, n_corrupts=1,
                               min_gap=120, seed=7, dur_targets=dur_targets,
                               n_dur=3, dur_horizon=12)
        fault_record(plan)
        coord, disk, counters, sidecars = make_durable_cluster(
            n_shards=2, replication=2, epoch_every=4, fault_plan=plan,
            batch_window=8)
        monitor = HealthMonitor(coord, check_every=48)
        coord.health_monitor = monitor
        coord.load((b"key-%04d" % i, b"init") for i in range(self.N_KEYS))

        # A write the disk cannot make durable is answered UNAVAILABLE,
        # never acked.
        history = History(allowed=(STATUS_UNAVAILABLE,), plan=plan)
        history.run(coord.execute,
                    ZipfStream(random.Random(7), self.N_KEYS, per_batch=16),
                    history.until_fired(800, 6400))
        history.fired()

        # Now the worst case: every replica of every partition dies at once.
        for group in coord.shard_list():
            kill_group(group)
        monitor.check()
        assert monitor.recovery_failures == [], plan.describe()
        assert monitor.total_recoveries() == 2, plan.describe()
        history.replicas_up(coord)

        # The bar: every acknowledged write survived total partition death.
        history.readback(coord.get)
