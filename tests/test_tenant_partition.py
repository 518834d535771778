"""Tenant namespaces and Secure Cache partitioning, below the cluster.

Three layers, bottom up: the prefix algebra of :mod:`repro.core.tenant`
(hypothesis pins the disjointness property the whole design leans on),
the :class:`~repro.cache.policies.TenantPartition` bookkeeping in
isolation, and a single :class:`~repro.core.store.AriaStore` with quotas
armed — where a whale's cache pressure must not evict a minnow's Merkle
nodes, and an armed-but-anonymous store must stay cycle-identical to an
unarmed one.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cache.policies import TenantPartition
from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.core.tenant import (
    TENANT_PREFIX_LEN,
    owner_token_of,
    prefixed_key,
    strip_prefix,
    tenant_digest,
    tenant_prefix,
    tenant_token,
)
from repro.errors import ConfigurationError
from repro.sgx.costs import SgxPlatform

pytestmark = pytest.mark.tenant

tenant_ids = st.text(min_size=1, max_size=16)
keys = st.binary(min_size=0, max_size=64)


# -- the prefix algebra (hypothesis) ----------------------------------------------


class TestNamespaceDisjointness:
    @given(a=tenant_ids, b=tenant_ids, key=keys)
    @settings(max_examples=300, deadline=None)
    def test_no_key_of_a_lands_in_bs_namespace(self, a, b, key):
        """The load-bearing property: namespaces are disjoint.

        Every prefix has the same length, so the prefix set is
        prefix-free — tenant A's keys can never begin with tenant B's
        prefix, no matter what A appends.
        """
        assume(a != b)
        # Distinct ids with colliding digests are rejected at roster
        # registration (TenancyConfig); within one cluster this holds.
        assume(tenant_digest(a) != tenant_digest(b))
        assert not prefixed_key(a, key).startswith(tenant_prefix(b))

    @given(tenant=tenant_ids, key=keys)
    @settings(max_examples=200, deadline=None)
    def test_prefix_roundtrip_and_attribution(self, tenant, key):
        relocated = prefixed_key(tenant, key)
        assert len(tenant_prefix(tenant)) == TENANT_PREFIX_LEN
        assert relocated.startswith(tenant_prefix(tenant))
        assert owner_token_of(relocated) == tenant_token(tenant)
        assert strip_prefix(relocated) == key

    @given(key=keys)
    @settings(max_examples=200, deadline=None)
    def test_unprefixed_keys_stay_anonymous(self, key):
        assume(not key.startswith(b"t:"))
        assert owner_token_of(key) is None
        assert strip_prefix(key) == key

    def test_marker_lookalike_without_separator_is_anonymous(self):
        # b"t:" + 8 bytes that are NOT followed by b":" is a user key.
        assert owner_token_of(b"t:" + b"x" * 8 + b"y") is None
        assert owner_token_of(b"t:" + b"x" * 7) is None


# -- TenantPartition bookkeeping, in isolation ------------------------------------


class TestTenantPartition:
    def test_quota_floor_is_at_least_one_entry(self):
        part = TenantPartition({"a": 0.001}, max_entries=10)
        assert part.quota_entries("a") == 1
        part = TenantPartition({"a": 0.5}, max_entries=10)
        assert part.quota_entries("a") == 5
        assert part.quota_entries("nobody") is None

    def test_ownership_follows_inserts_and_removals(self):
        part = TenantPartition({"a": 0.5}, max_entries=10)
        part.current_owner = "a"
        part.on_insert((0, 1))
        part.on_insert((0, 2))
        assert part.occupancy() == {"a": 2}
        part.on_remove((0, 1))
        assert part.occupancy() == {"a": 1}
        part.on_remove((0, 1))  # double-remove is a no-op
        assert part.occupancy() == {"a": 1}

    def test_anonymous_inserts_are_never_protected(self):
        part = TenantPartition({"a": 0.5}, max_entries=10)
        part.current_owner = None
        part.on_insert((0, 1))
        assert part.occupancy() == {}
        part.current_owner = "b"
        assert part.protected_keys() == set()

    def test_within_quota_entries_are_protected_from_others(self):
        part = TenantPartition({"a": 0.5}, max_entries=10)
        part.current_owner = "a"
        for i in range(3):
            part.on_insert((0, i))
        # Another tenant's pressure must not touch a's slice...
        part.current_owner = "b"
        assert part.protected_keys() == {(0, 0), (0, 1), (0, 2)}
        # ...but a may always churn its own slice.
        part.current_owner = "a"
        assert part.protected_keys() == set()

    def test_over_quota_tenant_is_fair_game(self):
        part = TenantPartition({"a": 0.2}, max_entries=10)  # quota: 2 entries
        part.current_owner = "a"
        for i in range(3):
            part.on_insert((0, i))
        part.current_owner = "b"
        # a holds 3 > 2: the guarantee is a floor, not a fence.
        assert part.protected_keys() == set()

    def test_unquotad_owner_is_tracked_but_unprotected(self):
        part = TenantPartition({"a": 0.5}, max_entries=10)
        part.current_owner = "b"
        part.on_insert((0, 7))
        assert part.occupancy() == {"b": 1}
        part.current_owner = "a"
        assert part.protected_keys() == set()


# -- one store, quotas armed ------------------------------------------------------


MINNOW = "minnow"
WHALE = "whale"
MINNOW_TOKEN = tenant_token(MINNOW)
WHALE_TOKEN = tenant_token(WHALE)


def make_store(tenant_quotas=None, **overrides):
    defaults = dict(
        initial_counters=1 << 12,
        secure_cache_bytes=1 << 12,   # tiny: eviction pressure is the point
        stop_swap_enabled=False,
        pin_levels=1,
        tenant_quotas=tenant_quotas,
    )
    defaults.update(overrides)
    return AriaStore(AriaConfig(**defaults),
                     platform=SgxPlatform(epc_bytes=16 << 20))


def mk(tenant, i):
    return prefixed_key(tenant, b"key-%04d" % i)


class TestStoreCachePartition:
    def test_whale_cannot_evict_minnows_merkle_nodes(self):
        store = make_store(tenant_quotas={MINNOW_TOKEN: 0.5})
        for i in range(4):
            store.put(mk(MINNOW, i), b"minnow-%d" % i)
        occupancy = store.cache_stats()["tenant_occupancy"]
        minnow_nodes = occupancy.get(MINNOW_TOKEN, 0)
        assert minnow_nodes > 0

        # The whale floods far past the cache capacity.
        for i in range(300):
            store.put(mk(WHALE, i), b"w" * 16)

        after = store.cache_stats()["tenant_occupancy"]
        # Not one of the minnow's within-quota nodes was displaced.
        assert after.get(MINNOW_TOKEN, 0) == minnow_nodes
        for i in range(4):
            assert store.get(mk(MINNOW, i)) == b"minnow-%d" % i

    def test_partitioning_preserves_minnow_cache_locality(self):
        """The fairness payoff, measured in simulated cycles.

        Same workload twice — quotas armed vs unarmed.  After the whale
        flood, the minnow re-reads its keys: with partitioning its Merkle
        nodes are still resident (cheap verified hits); without it the
        whale evicted them (expensive swap-ins).
        """
        def drive(quotas):
            store = make_store(tenant_quotas=quotas)
            for i in range(4):
                store.put(mk(MINNOW, i), b"minnow-%d" % i)
            for i in range(300):
                store.put(mk(WHALE, i), b"w" * 16)
            before = store.enclave.meter.cycles
            for i in range(4):
                assert store.get(mk(MINNOW, i)) == b"minnow-%d" % i
            return store.enclave.meter.cycles - before

        protected = drive({MINNOW_TOKEN: 0.5})
        unprotected = drive(None)
        assert protected < unprotected

    def test_denied_eviction_counts_and_falls_back(self):
        """A full cache of protected entries denies the outsider's
        eviction — counted, charged to the offender, still correct."""
        store = make_store(tenant_quotas={MINNOW_TOKEN: 1.0})
        # The minnow fills the (tiny) cache entirely; at quota 1.0 every
        # one of its entries is protected.
        for i in range(300):
            store.put(mk(MINNOW, i), b"m" * 16)
        stats = store.cache_stats()
        assert stats.get("tenant_evict_denials", 0) == 0
        minnow_nodes = stats["tenant_occupancy"][MINNOW_TOKEN]

        for i in range(50):
            store.put(mk(WHALE, i), b"whale-%d" % i)
        stats = store.cache_stats()
        assert stats["tenant_evict_denials"] > 0
        assert stats["tenant_occupancy"][MINNOW_TOKEN] == minnow_nodes
        events = store.enclave.meter.events
        assert events["tenant_evict_denied"] == stats["tenant_evict_denials"]
        # The per-owner event names the *offender*, not the victim.
        assert events["tenant_evict_denied:%s" % WHALE_TOKEN] > 0
        assert events["tenant_evict_denied:%s" % MINNOW_TOKEN] == 0
        # Denial degrades the whale to the write-through path, never to
        # a wrong answer.
        for i in range(50):
            assert store.get(mk(WHALE, i)) == b"whale-%d" % i
        assert store.get(mk(MINNOW, 7)) == b"m" * 16

    def test_write_back_always_finds_room_for_the_parent(self):
        """A dirty victim's fresh MAC lands in its parent in the EPC.  A
        parent neither pinned nor cached is swapped in, into the slot the
        victim has just left, so no lock and no quota can refuse it — also
        after the partition has been denying another tenant's evictions —
        and it stays dirty until its own write-back carries the MAC up."""
        store = make_store(tenant_quotas={MINNOW_TOKEN: 1.0})
        cache = store.counters.primary_cache()
        write_back = cache._writeback
        swapped_in = []

        def checked(key, data, locked):
            parent = (key[0] + 1, key[1] // cache._tree.layout.arity)
            absent = (parent[0] not in cache.pinned_levels
                      and not cache.is_cached(*parent))
            write_back(key, data, locked)
            if absent:
                assert cache.is_cached(*parent) and parent in cache._dirty
                swapped_in.append(parent)

        cache._writeback = checked
        for i in range(300):
            store.put(mk(MINNOW, i), b"m" * 16)
        for i in range(50):
            store.put(mk(WHALE, i), b"w" * 16)
        assert store.cache_stats()["tenant_evict_denials"] > 0
        swapped_in.clear()
        for i in range(300):                  # the minnow churns its slice
            store.put(mk(MINNOW, i), b"n" * 16)
        assert swapped_in
        for i in range(300):
            assert store.get(mk(MINNOW, i)) == b"n" * 16
        for i in range(50):
            assert store.get(mk(WHALE, i)) == b"w" * 16

    def test_armed_but_anonymous_store_is_cycle_identical(self):
        """Quotas configured + zero tenant traffic == unarmed, bit for bit."""
        def drive(quotas):
            store = make_store(tenant_quotas=quotas)
            for i in range(64):
                store.put(b"key-%04d" % i, b"v-%d" % i)
            values = [store.get(b"key-%04d" % i) for i in range(64)]
            return values, store.enclave.meter.cycles

        plain_values, plain_cycles = drive(None)
        armed_values, armed_cycles = drive({MINNOW_TOKEN: 0.5})
        assert armed_values == plain_values
        assert armed_cycles == plain_cycles

    def test_quota_validation_rejects_bad_fractions(self):
        with pytest.raises(ConfigurationError):
            make_store(tenant_quotas={MINNOW_TOKEN: 0.0})
        with pytest.raises(ConfigurationError):
            make_store(tenant_quotas={MINNOW_TOKEN: 1.5})
        with pytest.raises(ConfigurationError):
            make_store(tenant_quotas={MINNOW_TOKEN: 0.7, WHALE_TOKEN: 0.7})
