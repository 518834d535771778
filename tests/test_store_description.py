"""The store's AriaConfig is what every Secure Cache below it reads.

A counter area's cache is built from the config in three places: the
store's constructor, a counter expansion, and restart recovery.  These
tests pin that all three agree with the config the store carries, with
knobs set away from their defaults so a dropped field shows.
"""

import random

import pytest

from repro.cache.policies import LruPolicy, TenantPartition
from repro.cache.secure_cache import ENTRY_METADATA_BYTES
from repro.core.config import AriaConfig
from repro.core.persistence import restore_store, seal_store
from repro.core.store import AriaStore
from repro.core.tenant import tenant_token
from repro.sgx.costs import SgxPlatform

PLATFORM = SgxPlatform(epc_bytes=8 << 20)
#: One cached arity-8 leaf: 8 counters of 16 bytes plus its metadata.
ENTRY = 8 * 16 + ENTRY_METADATA_BYTES
QUOTAS = {tenant_token("minnow"): 0.25, tenant_token("whale"): 0.5}


def make_store(**overrides):
    knobs = dict(n_buckets=64, initial_counters=64, expansion_counters=64,
                 secure_cache_bytes=4 * ENTRY, expansion_cache_bytes=3 * ENTRY)
    knobs.update(overrides)
    return AriaStore(AriaConfig(**knobs), platform=PLATFORM)


def keys(n):
    return [b"key-%04d" % i for i in range(n)]


def cache_knobs(cache):
    return {
        "policy": type(cache._policy),
        "pinned": cache.pinned_levels,
        "window": cache.stats.window,
        "threshold": cache.stats.threshold,
        "patience": cache.stats.patience,
        "capacity": cache._capacity_bytes,
        "max_entries": cache.max_entries,
        "quotas": (cache.tenant_stats() or {}).get("quota_entries"),
    }


class TestRestoredCachesMatch:
    CONFIG = dict(eviction_policy="lru", pin_levels=1,
                  stop_swap_enabled=False, stop_swap_window=512,
                  stop_swap_threshold=0.5, stop_swap_patience=3,
                  tenant_quotas=QUOTAS)

    def _pair(self):
        store = make_store(**self.CONFIG)
        for key in keys(180):
            store.put(key, b"v-" + key)
        revived = restore_store(seal_store(store), store.enclave.untrusted,
                                platform=PLATFORM)
        return store, revived

    def test_every_area_cache_is_rebuilt_from_the_config(self):
        store, revived = self._pair()
        assert store.counters.n_areas == revived.counters.n_areas == 3
        for before, after in zip(store.counters.areas,
                                 revived.counters.areas):
            assert cache_knobs(after.cache) == cache_knobs(before.cache)
        first = cache_knobs(revived.counters.areas[0].cache)
        assert first["policy"] is LruPolicy
        assert first["window"] == 512 and first["patience"] == 3
        assert first["capacity"] == 4 * ENTRY
        assert first["quotas"] == TenantPartition(QUOTAS, 4).quotas
        assert [cache_knobs(a.cache)["capacity"]
                for a in revived.counters.areas[1:]] == [3 * ENTRY] * 2

    def test_a_fixed_read_sequence_costs_the_same(self):
        store, revived = self._pair()
        stream = keys(180)
        random.Random(7).shuffle(stream)
        spent = []
        for target in (store, revived):
            # Every leaf is read once more than any cache holds, so both
            # LRU caches end the warm-up holding the same leaves in the
            # same order, whatever each held before.
            for key in keys(180):
                target.get(key)
            meter = target.enclave.meter
            start = meter.cycles
            for key in stream:
                assert target.get(key) == b"v-" + key
            spent.append(meter.cycles - start)
        assert spent[0] > 0
        assert spent[1] == spent[0]


@pytest.mark.parametrize("before, after", [
    (None, QUOTAS),
    ({tenant_token("minnow"): 0.75}, QUOTAS),
    (QUOTAS, None),
], ids=["arm", "retarget", "disarm"])
def test_expansion_area_partitions_by_the_retargeted_quotas(before, after):
    store = make_store(tenant_quotas=before)
    for key in keys(40):
        store.put(key, b"v")
    store.retarget_tenant_quotas(after)
    for key in keys(100)[40:]:
        store.put(key, b"v")
    assert store.counters.n_areas == 2
    for area in store.counters.areas:
        row = area.cache.tenant_stats()
        if after is None:
            assert row is None
        else:
            assert row["quota_entries"] == TenantPartition(
                after, area.cache.max_entries).quotas
