"""CLOCK eviction policy tests (extension beyond the paper's FIFO/LRU)."""

import random

import pytest

from repro.cache.policies import ClockPolicy
from repro.errors import AriaError


def test_unreferenced_entries_evict_in_insertion_order():
    policy = ClockPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key)
    assert policy.victim(set()) == "a"


def test_referenced_entry_gets_second_chance():
    policy = ClockPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key)
    policy.on_hit("a")
    assert policy.victim(set()) == "b"  # a's bit is cleared, b claimed


def test_all_referenced_falls_back_to_scan_order():
    policy = ClockPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key)
    for key in ("a", "b", "c"):
        policy.on_hit(key)
    assert policy.victim(set()) == "a"


def test_locked_keys_survive():
    policy = ClockPolicy()
    for key in ("a", "b"):
        policy.on_insert(key)
    assert policy.victim({"a"}) == "b"
    assert policy.victim({"a", "b"}) is None
    assert len(policy) == 2  # nothing was dropped


def test_lazy_removal():
    policy = ClockPolicy()
    for key in ("a", "b", "c"):
        policy.on_insert(key)
    policy.on_remove("a")
    assert len(policy) == 2
    assert policy.victim(set()) == "b"


def test_duplicate_insert_rejected():
    policy = ClockPolicy()
    policy.on_insert("a")
    with pytest.raises(AriaError):
        policy.on_insert("a")


def test_hit_cost_between_fifo_and_lru():
    from repro.cache.policies import FifoPolicy, LruPolicy

    assert FifoPolicy.hit_metadata_ops < ClockPolicy.hit_metadata_ops
    assert ClockPolicy.hit_metadata_ops < LruPolicy.hit_metadata_ops


def test_clock_beats_fifo_on_skewed_reference_stream():
    """A hot key referenced between evictions should survive under CLOCK."""
    from repro.cache.policies import FifoPolicy

    def run(policy):
        rng = random.Random(1)
        capacity = 8
        resident = set()
        misses = 0
        for _ in range(3000):
            # 50% traffic to one hot key, the rest uniform over 64 cold keys.
            key = "hot" if rng.random() < 0.5 else f"cold{rng.randrange(64)}"
            if key in resident:
                policy.on_hit(key)
                continue
            misses += 1
            if len(resident) >= capacity:
                victim = policy.victim(set())
                policy.on_remove(victim)
                resident.discard(victim)
            policy.on_insert(key)
            resident.add(key)
        return misses

    assert run(ClockPolicy()) < run(FifoPolicy())


def test_works_inside_secure_cache():
    import random as rnd

    from repro.cache.secure_cache import ENTRY_METADATA_BYTES, SecureCache
    from repro.core.config import AriaConfig
    from repro.merkle.layout import MerkleLayout
    from repro.merkle.tree import MerkleTree
    from repro.sgx.costs import SgxPlatform
    from repro.sgx.enclave import Enclave
    from repro.sgx.meter import MeterPause

    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    layout = MerkleLayout(256, 4)
    with MeterPause(enclave.meter):
        tree = MerkleTree(enclave, layout, rng=rnd.Random(2))
        cache = SecureCache(
            enclave, tree,
            capacity_bytes=4 * (layout.node_size + ENTRY_METADATA_BYTES),
            config=AriaConfig(eviction_policy="clock", pin_levels=1,
                              stop_swap_enabled=False),
        )
    values = {}
    rng = rnd.Random(3)
    for _ in range(400):
        cid = rng.randrange(256)
        value = rng.randrange(1 << 64).to_bytes(16, "little")
        cache.write_counter(cid, value)
        values[cid] = value
    for cid, value in values.items():
        assert cache.read_counter(cid) == value
