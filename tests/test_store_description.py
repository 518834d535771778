"""The store's AriaConfig is what every Secure Cache below it reads.

A counter area's cache is built from the config in two places: the
store's constructor and a counter expansion.  These tests pin that an
expansion area agrees with the config the store carries after a live
quota retarget.
"""

import pytest

from repro.cache.policies import TenantPartition
from repro.cache.secure_cache import ENTRY_METADATA_BYTES
from repro.core.config import AriaConfig
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
