"""CLOCK eviction policy tests (extension beyond the paper's FIFO/LRU).

A policy orders the Secure Cache's table (an ``OrderedDict`` the cache
appends to on insert and deletes from on removal); these tests drive a
bare table the same way.
"""

import random
from collections import OrderedDict

import pytest

from repro.cache.policies import ClockPolicy
from repro.cache.secure_cache import ENTRY_METADATA_BYTES, SecureCache
from repro.core.config import AriaConfig
from repro.errors import AriaError
from repro.merkle.layout import MerkleLayout
from repro.merkle.tree import MerkleTree
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause


def clock(*keys):
    table = OrderedDict.fromkeys(keys)
    return ClockPolicy(table), table


def test_unreferenced_entries_evict_in_insertion_order():
    policy, _ = clock("a", "b", "c")
    assert policy.victim(set()) == "a"


def test_referenced_entry_gets_second_chance():
    policy, _ = clock("a", "b", "c")
    policy.on_hit("a")
    assert policy.victim(set()) == "b"  # a's bit is cleared, b claimed


def test_all_referenced_falls_back_to_scan_order():
    policy, _ = clock("a", "b", "c")
    for key in ("a", "b", "c"):
        policy.on_hit(key)
    assert policy.victim(set()) == "a"


def test_locked_keys_survive():
    policy, table = clock("a", "b")
    assert policy.victim({"a"}) == "b"
    assert policy.victim({"a", "b"}) is None
    assert len(table) == 2  # nothing was dropped


def test_lazy_removal():
    policy, table = clock("a", "b", "c")
    del table["a"]
    assert len(table) == 2
    assert policy.victim(set()) == "b"


def test_duplicate_insert_rejected():
    cache, tree = clock_cache()
    node = bytearray(tree.read_node(0, 3))
    cache._insert((0, 3), node, False)
    with pytest.raises(AriaError, match="duplicate insert"):
        cache._insert((0, 3), bytearray(node), False)


def test_hit_cost_between_fifo_and_lru():
    from repro.cache.policies import FifoPolicy, LruPolicy

    assert FifoPolicy.hit_metadata_ops < ClockPolicy.hit_metadata_ops
    assert ClockPolicy.hit_metadata_ops < LruPolicy.hit_metadata_ops


def test_clock_beats_fifo_on_skewed_reference_stream():
    """A hot key referenced between evictions should survive under CLOCK."""
    from repro.cache.policies import FifoPolicy

    def run(cls):
        rng = random.Random(1)
        capacity = 8
        table = OrderedDict()
        policy = cls(table)
        misses = 0
        for _ in range(3000):
            # 50% traffic to one hot key, the rest uniform over 64 cold keys.
            key = "hot" if rng.random() < 0.5 else f"cold{rng.randrange(64)}"
            if key in table:
                if policy.on_hit is not None:
                    policy.on_hit(key)
                continue
            misses += 1
            if len(table) >= capacity:
                del table[policy.victim(set())]
            table[key] = None
        return misses

    assert run(ClockPolicy) < run(FifoPolicy)


def clock_cache():
    """A four-entry CLOCK Secure Cache over 256 counters at arity 4."""
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    layout = MerkleLayout(256, 4)
    with MeterPause(enclave.meter):
        tree = MerkleTree(enclave, layout, rng=random.Random(2))
        cache = SecureCache(
            enclave, tree,
            capacity_bytes=4 * (layout.node_size + ENTRY_METADATA_BYTES),
            config=AriaConfig(eviction_policy="clock", pin_levels=1,
                              stop_swap_enabled=False),
        )
    return cache, tree


def test_works_inside_secure_cache():
    cache, _ = clock_cache()
    values = {}
    rng = random.Random(3)
    for _ in range(400):
        cid = rng.randrange(256)
        value = rng.randrange(1 << 64).to_bytes(16, "little")
        cache.write_counter(cid, value)
        values[cid] = value
    for cid, value in values.items():
        assert cache.read_counter(cid) == value
