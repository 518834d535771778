"""Cluster serving layer: shards, coordinator, balancer, stats.

Everything here drives the public surface — ``ClusterConfig.build`` /
``ClusterCoordinator`` / ``HotShardBalancer`` — and observes effects
through store contents and cycle meters, never by poking privates.
"""

import json
import time

import pytest

from repro.cluster import (
    ClusterConfig,
    ClusterCoordinator,
    ClusterStats,
    HotShardBalancer,
    OverloadConfig,
    TenancyConfig,
    TenantConfig,
)
from repro.cluster.ring import HashRing
from repro.errors import KeyNotFoundError
from repro.server import protocol


def small_cluster(n_shards=2, *, n_keys=512, batch_window=8,
                  clock=time.monotonic, **kw):
    return ClusterConfig(
        n_shards=n_shards, n_keys=n_keys, scale=2048,
        batch_window=batch_window, **kw).build(clock=clock)


def build_shards(n_shards, *, cluster_epc_bytes, n_keys):
    return ClusterConfig(
        n_shards=n_shards, cluster_epc_bytes=cluster_epc_bytes,
        n_keys=n_keys).build().shard_list()


def kv(i):
    return (b"key-%04d" % i, b"val-%04d" % i)


class TestShardConstruction:
    def test_epc_split_is_even_and_isolated(self):
        shards = build_shards(4, cluster_epc_bytes=1 << 20, n_keys=1000)
        assert len(shards) == 4
        assert {s.shard_id for s in shards} == {f"shard-{i}"
                                                for i in range(4)}
        assert all(s.epc_bytes == (1 << 20) // 4 for s in shards)
        # Independent enclaves: separate meters, separate EPC budgets.
        assert len({id(s.store.enclave) for s in shards}) == 4
        shards[0].store.put(b"only-here", b"x")
        assert all(len(s.store) == 0 for s in shards[1:])

    def test_epc_floor_applies(self):
        shards = build_shards(2, cluster_epc_bytes=100, n_keys=64)
        assert all(s.epc_bytes >= 4096 for s in shards)

    def test_every_shard_sized_for_full_keyspace(self):
        # Worst-case ownership: one shard must be able to hold every key
        # (skewed rings, migrations) without a counter-area expansion.
        shards = build_shards(2, cluster_epc_bytes=1 << 18, n_keys=300)
        victim = shards[0]
        for i in range(300):
            victim.store.put(*kv(i))
        assert len(victim.store) == 300


class TestCoordinatorRouting:
    def test_same_key_always_same_shard(self):
        cluster = small_cluster(4)
        key = b"sticky-key"
        owner = cluster.shard_for(key)
        for _ in range(5):
            assert cluster.shard_for(key) is owner

    def test_responses_are_positional(self):
        cluster = small_cluster(4, batch_window=4)
        n = 64
        cluster.load(kv(i) for i in range(n))
        # Interleave hits and misses so any reordering is visible.
        requests, want = [], []
        for i in range(n):
            if i % 3 == 0:
                requests.append(protocol.get(b"missing-%04d" % i))
                want.append((protocol.STATUS_NOT_FOUND, b""))
            else:
                requests.append(protocol.get(kv(i)[0]))
                want.append((protocol.STATUS_OK, kv(i)[1]))
        responses = cluster.execute(requests)
        assert [(r.status, r.value) for r in responses] == want

    def test_per_key_order_preserved_across_batches(self):
        cluster = small_cluster(2, batch_window=3)
        key = b"counter"
        requests = []
        for i in range(10):
            requests.append(protocol.put(key, b"v%d" % i))
            requests.append(protocol.get(key))
        responses = cluster.execute(requests)
        gets = [r for r in responses[1::2]]
        assert [g.value for g in gets] == [b"v%d" % i for i in range(10)]

    def test_load_partitions_by_ring(self):
        cluster = small_cluster(4)
        pairs = [kv(i) for i in range(200)]
        cluster.load(pairs)
        assert cluster.total_keys() == 200
        for key, value in pairs:
            shard = cluster.shard_for(key)
            assert shard.store.get(key) == value

    def test_single_request_api(self):
        cluster = small_cluster(2)
        cluster.put(b"a", b"1")
        assert cluster.get(b"a") == b"1"
        cluster.delete(b"a")
        with pytest.raises(KeyNotFoundError):
            cluster.get(b"a")
        with pytest.raises(KeyNotFoundError):
            cluster.delete(b"a")

    def test_rejects_mismatched_ring(self):
        shards = build_shards(2, cluster_epc_bytes=1 << 16, n_keys=64)
        wrong_ring = HashRing(["other-0", "other-1"])
        with pytest.raises(ValueError):
            ClusterCoordinator(shards, ring=wrong_ring)


class TestEcallAmortization:
    def test_one_ecall_per_shard_flush(self):
        cluster = small_cluster(2, batch_window=1000)
        cluster.load(kv(i) for i in range(100))
        stats = cluster.stats()
        cluster.execute([protocol.get(kv(i)[0]) for i in range(100)])
        # One drain per shard that received traffic: <= 2 ECALLs for 100 ops.
        report = stats.report()["cluster"]
        assert report["window_ops"] == 100
        assert report["ecalls"] <= 2

    def test_small_window_costs_more_ecalls(self):
        ops = [protocol.get(kv(i)[0]) for i in range(96)]
        pairs = [kv(i) for i in range(96)]

        def ecalls(window):
            cluster = small_cluster(2, batch_window=window)
            cluster.load(pairs)
            stats = cluster.stats()
            cluster.execute(ops)
            return stats.report()["cluster"]["ecalls"]

        assert ecalls(4) > ecalls(96)


class TestClusterStats:
    def test_window_excludes_load_phase(self):
        cluster = small_cluster(2)
        cluster.load(kv(i) for i in range(100))
        stats = cluster.stats()           # baseline after load
        assert stats.total_ops() == 0
        cluster.execute([protocol.get(kv(0)[0])])
        assert stats.total_ops() == 1
        stats.rebaseline()
        assert stats.total_ops() == 0

    def test_aggregate_uses_critical_path(self):
        cluster = small_cluster(2, batch_window=4)
        cluster.load(kv(i) for i in range(64))
        stats = cluster.stats()
        cluster.execute([protocol.get(kv(i)[0]) for i in range(64)])
        assert stats.cycles_max() <= stats.cycles_sum()
        hz = cluster.shard_list()[0].store.enclave.platform.cpu_hz
        expected = hz * stats.total_ops() / stats.cycles_max()
        assert stats.aggregate_throughput() == pytest.approx(expected)

    def test_report_shape(self):
        cluster = small_cluster(2)
        cluster.load(kv(i) for i in range(32))
        stats = cluster.stats()
        cluster.execute([protocol.get(kv(i)[0]) for i in range(32)])
        report = stats.report()
        assert set(report["shards"]) == set(cluster.shards)
        cluster_row = report["cluster"]
        assert cluster_row["n_shards"] == 2
        assert cluster_row["keys"] == 32
        assert cluster_row["window_ops"] == 32
        assert 0.0 < cluster_row["parallel_efficiency"] <= 1.0
        shares = stats.ops_share()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_report_layers_are_what_health_reports(self):
        """One source for both views: the report's cluster row carries
        exactly the ``OP_HEALTH`` JSON's overload/tenancy/elastic blocks
        (the report adds only its windowed eviction-denial count)."""
        cluster = small_cluster(
            2, clock=lambda: 0.0,
            overload=OverloadConfig(),
            tenancy=TenancyConfig(tenants=(
                TenantConfig("whale", rate=4.0, burst=2.0, cache_quota=0.2),
                TenantConfig("minnow"))))
        try:
            cluster.load(kv(i) for i in range(32))
            stats = ClusterStats(cluster.shard_list(),
                                 layers=cluster.layer_stats)
            cluster.execute([protocol.put(*kv(i)) for i in range(4)],
                            tenant="whale")
            cluster.execute([protocol.get(kv(i)[0]) for i in range(8)])
            row = stats.report()["cluster"]
            health = json.loads(cluster.health_response().value)
            assert set(cluster.layer_stats()) == {
                "overload", "tenancy", "elastic"}
            assert row["tenancy"].pop("window_evict_denied") == 0
            for layer in ("overload", "tenancy", "elastic"):
                assert json.loads(json.dumps(row[layer])) == health[layer]
            assert health["tenancy"]["shed"] == {"minnow": 0, "whale": 2}
        finally:
            cluster.close()


def skewed_cluster():
    """4 shards with shard-0 deliberately owning nearly the whole ring."""
    return small_cluster(4, vnodes={"shard-0": 116, "shard-1": 4,
                                    "shard-2": 4, "shard-3": 4})


class TestHotShardBalancer:
    def test_no_move_when_balanced(self):
        cluster = small_cluster(4)
        balancer = HotShardBalancer(cluster, check_every=64,
                                    min_window_ops=32)
        cluster.balancer = balancer
        cluster.load(kv(i) for i in range(256))
        cluster.execute([protocol.get(kv(i % 256)[0]) for i in range(512)])
        assert balancer.total_keys_moved() == 0

    def test_migrates_hot_range_with_values_intact(self):
        cluster = skewed_cluster()
        pairs = [kv(i) for i in range(256)]
        cluster.load(pairs)
        balancer = HotShardBalancer(cluster, check_every=256,
                                    imbalance_threshold=1.3,
                                    min_window_ops=64)
        cluster.balancer = balancer
        hot = cluster.shards["shard-0"]
        assert len(hot.store) > 150  # the skew is real

        for _ in range(6):
            cluster.execute([protocol.get(k) for k, _ in pairs])
        assert balancer.history, "no rebalance round fired"
        report = balancer.history[0]
        assert report.src == "shard-0"
        assert report.keys_moved > 0
        assert report.vnodes_moved > 0
        # Migration was metered on both sides.
        assert report.src_cycles > 0
        assert report.dst_cycles > 0
        # Every key survived the move, readable through the cluster.
        assert cluster.total_keys() == len(pairs)
        for key, value in pairs:
            assert cluster.get(key) == value
        # The hot shard genuinely shed ownership.
        assert len(hot.store) < 150

    def test_rebalance_reduces_straggler_share(self):
        cluster = skewed_cluster()
        pairs = [kv(i) for i in range(256)]
        cluster.load(pairs)
        reads = [protocol.get(k) for k, _ in pairs]

        stats = cluster.stats()
        for _ in range(4):
            cluster.execute(reads)
        share_before = max(stats.ops_share().values())

        balancer = HotShardBalancer(cluster, check_every=256,
                                    imbalance_threshold=1.3,
                                    min_window_ops=64)
        cluster.balancer = balancer
        for _ in range(8):
            cluster.execute(reads)
        stats = cluster.stats()
        for _ in range(4):
            cluster.execute(reads)
        share_after = max(stats.ops_share().values())
        assert share_before > 0.6
        assert share_after < share_before

    def test_threshold_validation(self):
        cluster = small_cluster(2)
        with pytest.raises(ValueError):
            HotShardBalancer(cluster, imbalance_threshold=1.0)
