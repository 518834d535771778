"""Secure Cache behaviour tests: hits, misses, eviction, pinning, stop-swap."""

import random
from collections import OrderedDict

import pytest

from repro.cache.policies import FifoPolicy, LruPolicy, make_policy
from repro.cache.secure_cache import ENTRY_METADATA_BYTES, SecureCache
from repro.core.config import AriaConfig
from repro.errors import AriaError, ReplayError
from repro.merkle.layout import MerkleLayout
from repro.merkle.tree import MerkleTree
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause


def make_cache(
    n_counters=256,
    arity=4,
    cache_nodes=8,
    pin_levels=1,
    policy="fifo",
    **kwargs,
):
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    layout = MerkleLayout(n_counters, arity)
    with MeterPause(enclave.meter):
        tree = MerkleTree(enclave, layout, rng=random.Random(2))
        cache = SecureCache(
            enclave,
            tree,
            capacity_bytes=cache_nodes * (layout.node_size + ENTRY_METADATA_BYTES),
            config=AriaConfig(eviction_policy=policy, pin_levels=pin_levels,
                              **kwargs),
        )
    return cache, tree, enclave


def counter_value(i):
    return i.to_bytes(16, "little")


class TestReadWrite:
    def test_read_returns_initialized_counter(self):
        cache, tree, _ = make_cache()
        expected = tree.counter_from_node(tree.read_node(0, 0), 0)
        assert cache.read_counter(0) == expected

    def test_write_then_read_roundtrip(self):
        cache, _, _ = make_cache()
        cache.write_counter(5, counter_value(99))
        assert cache.read_counter(5) == counter_value(99)

    def test_increment_counter(self):
        cache, _, _ = make_cache()
        cache.write_counter(7, counter_value(10))
        new = cache.increment_counter(7)
        assert new == counter_value(11)
        assert cache.read_counter(7) == counter_value(11)

    def test_increment_wraps_at_128_bits(self):
        cache, _, _ = make_cache()
        cache.write_counter(0, b"\xff" * 16)
        assert cache.increment_counter(0) == b"\x00" * 16

    def test_write_rejects_wrong_size(self):
        cache, _, _ = make_cache()
        with pytest.raises(Exception):
            cache.write_counter(0, b"short")


class TestHitMiss:
    def test_repeated_access_hits(self):
        cache, _, _ = make_cache(stop_swap_enabled=False)
        cache.read_counter(0)  # miss
        cache.read_counter(0)  # hit (same counter)
        cache.read_counter(1)  # hit (same leaf node)
        assert cache.stats.misses == 1
        assert cache.stats.hits == 2

    def test_hit_is_cheaper_than_miss(self):
        cache, _, enclave = make_cache(stop_swap_enabled=False)
        before = enclave.meter.cycles
        cache.read_counter(0)
        miss_cost = enclave.meter.cycles - before
        before = enclave.meter.cycles
        cache.read_counter(0)
        hit_cost = enclave.meter.cycles - before
        assert hit_cost < miss_cost / 3

    def test_miss_verifies_no_deeper_than_first_pinned_level(self):
        # 256 counters, arity 4 -> levels 0..3.  Pinning top 3 leaves only
        # level 0 unpinned: a miss costs exactly one MAC verification.
        cache, _, enclave = make_cache(pin_levels=3, stop_swap_enabled=False)
        enclave.meter.reset()
        cache.read_counter(64)
        assert enclave.meter.events["mt_verify"] == 1


class TestEviction:
    def test_cache_never_exceeds_capacity(self):
        cache, tree, _ = make_cache(cache_nodes=4, stop_swap_enabled=False)
        for i in range(0, 256, 4):  # touch every leaf node
            cache.read_counter(i)
        assert cache.cached_nodes <= 4

    def test_dirty_eviction_writes_back_and_revalidates(self):
        cache, tree, _ = make_cache(cache_nodes=2, stop_swap_enabled=False)
        cache.write_counter(0, counter_value(1234))
        # Evict leaf 0 by touching many other leaves.
        for i in range(4, 256, 4):
            cache.read_counter(i)
        assert not cache.is_cached(0, 0)
        # Value survives in untrusted memory and still verifies.
        assert cache.read_counter(0) == counter_value(1234)
        assert cache.stats.writebacks >= 1

    def test_clean_eviction_discards_without_writeback(self):
        cache, _, _ = make_cache(cache_nodes=2, stop_swap_enabled=False)
        for i in range(0, 256, 4):
            cache.read_counter(i)  # all clean
        assert cache.stats.clean_discards > 0
        assert cache.stats.writebacks == 0

    def test_swap_out_is_plaintext_no_enc_cost(self):
        cache, _, enclave = make_cache(cache_nodes=2, stop_swap_enabled=False)
        cache.write_counter(0, counter_value(1))
        enclave.meter.reset()
        for i in range(4, 256, 4):
            cache.read_counter(i)
        assert enclave.meter.events["enc_bytes"] == 0

    def test_swap_encrypt_ablation_charges_encryption(self):
        cache, _, enclave = make_cache(
            cache_nodes=2, stop_swap_enabled=False, swap_encrypt=True
        )
        cache.write_counter(0, counter_value(1))
        enclave.meter.reset()
        for i in range(4, 256, 4):
            cache.read_counter(i)
        assert enclave.meter.events["enc_bytes"] > 0

    def test_writeback_clean_ablation_pays_writes(self):
        plain, _, enclave_a = make_cache(cache_nodes=2, stop_swap_enabled=False)
        ewb, _, enclave_b = make_cache(
            cache_nodes=2, stop_swap_enabled=False, writeback_clean=True
        )
        for cache, enclave in ((plain, enclave_a), (ewb, enclave_b)):
            enclave.meter.reset()
            for i in range(0, 256, 4):
                cache.read_counter(i)
        assert enclave_b.meter.cycles > enclave_a.meter.cycles


class TestConsistencyAcrossEvictions:
    def test_many_writes_survive_thrashing(self):
        cache, _, _ = make_cache(cache_nodes=3, stop_swap_enabled=False)
        values = {}
        rng = random.Random(3)
        for _ in range(500):
            cid = rng.randrange(256)
            value = counter_value(rng.randrange(1 << 64))
            cache.write_counter(cid, value)
            values[cid] = value
        for cid, value in values.items():
            assert cache.read_counter(cid) == value

    def test_tamper_detected_after_eviction(self):
        cache, tree, enclave = make_cache(cache_nodes=2, stop_swap_enabled=False)
        cache.write_counter(0, counter_value(42))
        for i in range(4, 256, 4):  # force eviction of leaf 0
            cache.read_counter(i)
        addr = tree.node_addr(0, 0)
        byte = enclave.untrusted.snoop(addr, 1)
        enclave.untrusted.tamper(addr, bytes([byte[0] ^ 1]))
        with pytest.raises(ReplayError):
            cache.read_counter(0)

    def test_replay_of_evicted_node_detected(self):
        cache, tree, enclave = make_cache(cache_nodes=2, stop_swap_enabled=False)
        addr = tree.node_addr(0, 0)
        stale = enclave.untrusted.snoop(addr, tree.layout.node_size)
        cache.write_counter(0, counter_value(42))
        for i in range(4, 256, 4):  # evict leaf 0 (dirty -> written back)
            cache.read_counter(i)
        enclave.untrusted.tamper(addr, stale)  # replay the old, once-valid bytes
        with pytest.raises(ReplayError):
            cache.read_counter(0)


class TestPinning:
    def test_pinned_leaf_level_never_misses(self):
        cache, _, _ = make_cache(n_counters=16, arity=4, pin_levels=3)
        # 16 counters, arity 4 -> levels 0,1 (+root).  pin_levels=3 clamps
        # to all levels, so level 0 is pinned.
        for i in range(16):
            cache.read_counter(i)
        assert cache.stats.misses == 0

    def test_pinned_write_stays_consistent(self):
        cache, _, _ = make_cache(n_counters=16, arity=4, pin_levels=3)
        cache.write_counter(3, counter_value(777))
        assert cache.read_counter(3) == counter_value(777)

    def test_pinned_levels_reserved_in_epc(self):
        cache, tree, enclave = make_cache(pin_levels=2)
        expected = tree.layout.pinned_bytes(2)
        assert enclave.epc.usage_report()["mt_pinned"] == expected


class TestStopSwap:
    def test_uniform_access_triggers_stop_swap(self):
        cache, _, _ = make_cache(
            n_counters=4096,
            arity=4,
            cache_nodes=8,
            pin_levels=1,
            stop_swap_window=256,
        )
        rng = random.Random(4)
        for _ in range(3000):
            cache.read_counter(rng.randrange(4096))
        assert not cache.swapping
        assert cache.cached_nodes == 0

    def test_write_misses_alone_trigger_stop_swap(self):
        """The stop-swap test ends a write miss too: a window of nothing
        but write misses stops swapping before any read."""
        cache, _, _ = make_cache(n_counters=4096, arity=4, cache_nodes=8,
                                 stop_swap_window=32)
        for leaf in range(32):
            assert cache.swapping
            cache.write_counter(4 * leaf, counter_value(leaf))
        assert cache.stats.misses == 32 and not cache.swapping
        assert cache.read_counter(4 * 31) == counter_value(31)

    def test_stop_swap_repurposes_epc_for_pinning(self):
        cache, tree, _ = make_cache(
            n_counters=4096,
            arity=4,
            cache_nodes=64,
            pin_levels=1,
            stop_swap_window=256,
        )
        before_pinned = set(cache.pinned_levels)
        rng = random.Random(5)
        for _ in range(3000):
            cache.read_counter(rng.randrange(4096))
        assert not cache.swapping
        assert set(cache.pinned_levels) > before_pinned

    def test_writes_remain_correct_after_stop_swap(self):
        cache, _, _ = make_cache(
            n_counters=4096, arity=4, cache_nodes=8, stop_swap_window=256
        )
        rng = random.Random(6)
        for _ in range(3000):
            cache.read_counter(rng.randrange(4096))
        assert not cache.swapping
        cache.write_counter(100, counter_value(31337))
        assert cache.read_counter(100) == counter_value(31337)
        # And the value verifies through the untrusted path + pinned layer.
        cache.write_counter(101, counter_value(1))
        assert cache.read_counter(100) == counter_value(31337)

    def test_tampered_top_merkle_node(self):
        """Pinning at stop-swap checks the top level against the EPC root,
        so a top node tampered in untrusted memory never gets pinned."""
        from repro.attacks.primitives import UntrustedAttacker

        cache, tree, enclave = make_cache(n_counters=4096, arity=4,
                                          cache_nodes=64, pin_levels=0)
        assert cache.cached_nodes == 0
        UntrustedAttacker(enclave.untrusted).flip_bit(
            tree.node_addr(tree.layout.top_level, 0))
        # The root check, not a pinned child's check against its parent.
        with pytest.raises(ReplayError, match="root"):
            cache.stop_swapping()

    def test_skewed_access_keeps_swapping(self):
        cache, _, _ = make_cache(
            n_counters=4096, arity=4, cache_nodes=32, stop_swap_window=256
        )
        for _ in range(3000):
            cache.read_counter(7)  # maximally skewed
        assert cache.swapping


def hit(policy, key):
    """What the cache does with a policy on a hit."""
    if policy.on_hit is not None:
        policy.on_hit(key)


class TestPolicies:
    def test_fifo_victim_order(self):
        policy = FifoPolicy(OrderedDict.fromkeys("abc"))
        hit(policy, "a")  # FIFO ignores hits
        assert policy.on_hit is None
        assert policy.victim(set()) == "a"

    def test_lru_victim_order(self):
        policy = LruPolicy(OrderedDict.fromkeys("abc"))
        hit(policy, "a")
        assert policy.victim(set()) == "b"

    def test_locked_keys_skipped(self):
        for cls in (FifoPolicy, LruPolicy):
            policy = cls(OrderedDict.fromkeys("ab"))
            assert policy.victim({"a"}) == "b"
            assert policy.victim({"a", "b"}) is None

    def test_fifo_lazy_removal(self):
        table = OrderedDict.fromkeys("ab")
        policy = FifoPolicy(table)
        del table["a"]
        assert policy.victim(set()) == "b"
        assert len(table) == 1

    @pytest.mark.parametrize("name", ["fifo", "lru", "clock"])
    def test_a_dropped_key_reinserted_is_the_newest(self, name):
        """A key dropped from the table outside ``victim`` and inserted
        again goes to the back, not back to its old place in the order."""
        table = OrderedDict.fromkeys("abc")
        policy = make_policy(name, table)
        del table["a"]
        table["d"] = None
        table["a"] = None
        assert policy.victim(set()) == "b"

    def test_duplicate_insert_rejected(self):
        for name in ("fifo", "lru"):
            cache, tree, _ = make_cache(policy=name)
            node = bytearray(tree.read_node(0, 3))
            cache._insert((0, 3), node, False)
            with pytest.raises(AriaError, match="duplicate insert"):
                cache._insert((0, 3), bytearray(node), False)

    def test_make_policy(self):
        assert make_policy("fifo", OrderedDict()).name == "fifo"
        assert make_policy("lru", OrderedDict()).name == "lru"
        assert make_policy("clock", OrderedDict()).name == "clock"
        with pytest.raises(AriaError):
            make_policy("arc", OrderedDict())

    def test_lru_hits_cost_more_than_fifo_hits(self):
        fifo, _, enclave_f = make_cache(policy="fifo", stop_swap_enabled=False)
        lru, _, enclave_l = make_cache(policy="lru", stop_swap_enabled=False)
        for cache, enclave in ((fifo, enclave_f), (lru, enclave_l)):
            cache.read_counter(0)
            enclave.meter.reset()
            for _ in range(100):
                cache.read_counter(0)
        assert enclave_l.meter.cycles > enclave_f.meter.cycles


class TestVictimOrderInCache:
    """Each policy's order, seen through the cache's counter API.

    512 counters at arity 4 with four levels pinned leave only the 128
    leaves to a three-entry cache.  Leaves 0, 1 and 2 are cached in that
    order, leaf 1 and then leaf 0 are hit, and leaves 3 and 4 miss, each
    evicting one leaf.  The three policies keep three different sets.
    """

    HITS = {
        "read": lambda cache, leaf: cache.read_counter(4 * leaf),
        "write": lambda cache, leaf: cache.write_counter(4 * leaf, bytes(16)),
        "increment": lambda cache, leaf: cache.increment_counter(4 * leaf),
    }

    def resident_after(self, policy, how):
        cache, _, _ = make_cache(n_counters=512, arity=4, cache_nodes=3,
                                 pin_levels=4, policy=policy,
                                 stop_swap_enabled=False)
        for leaf in (0, 1, 2):
            cache.read_counter(4 * leaf)
        misses = cache.stats.misses
        for leaf in (1, 0):
            self.HITS[how](cache, leaf)
        assert cache.stats.misses == misses           # both were hits
        for leaf in (3, 4):
            cache.read_counter(4 * leaf)
        return {leaf for leaf in range(5) if cache.is_cached(0, leaf)}

    @pytest.mark.parametrize("how", sorted(HITS))
    def test_fifo_evicts_the_oldest_leaf_despite_hits(self, how):
        assert self.resident_after("fifo", how) == {2, 3, 4}

    @pytest.mark.parametrize("how", sorted(HITS))
    def test_lru_evicts_the_least_recently_hit_leaf(self, how):
        # The hits leave the order 2, 1, 0: leaf 2 goes, then leaf 1.
        assert self.resident_after("lru", how) == {0, 3, 4}

    @pytest.mark.parametrize("how", sorted(HITS))
    def test_clock_gives_a_hit_leaf_a_second_chance(self, how):
        # Leaves 0 and 1 lose their bits while leaf 2 goes; leaf 0 is then
        # the oldest leaf without one.
        assert self.resident_after("clock", how) == {1, 3, 4}

