"""The Secure Cache's verified walk, checked against its recursive definition.

``SecureCache._verified_node_bytes`` is an iterative walk (read + MAC
upward to the first EPC-resident ancestor or the root check, then compare
top-down).  Its specification is the recursive definition of Section IV-B —
*verify the parent, then compare against it* — which is kept here, verbatim,
as the reference.  Freshness is a checked property, not a case list: for
random tree shapes, pinning depths, cache residency, dirty bits and
tampering, the two must return the same bytes, leave byte-identical meters
under a non-dyadic cost model (so a reordered charge shows in the last ulp),
and raise the same error naming the same node.

The last section pins the miss path's *Python call budget* with
``sys.setprofile`` — no wall clock — so a helper creeping back into the
per-op path fails here rather than as benchmark drift.
"""

import random
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.secure_cache import ENTRY_METADATA_BYTES, SecureCache
from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import ReplayError
from repro.merkle.layout import MAC_SIZE, MerkleLayout
from repro.merkle.tree import MerkleTree
from repro.sgx.costs import CostModel, SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause

#: Nothing here is a multiple of a power of two: summing the same charges in
#: another order changes the float total.
_NON_DYADIC = CostModel().scaled(
    untrusted_access=101.3, epc_access=203.7, mem_per_byte=0.37,
    mac_base=811.1, mac_per_byte=4.1,
)


def reference_verified_node_bytes(cache, level, index):
    """The recursive definition the iterative walk replaced (kept verbatim)."""
    tree = cache._tree
    layout = tree.layout
    node = tree.read_node(level, index)
    if level == layout.top_level:
        tree.check_against_root(node)
        return node
    computed = tree.node_mac(node)
    parent_level, parent_index, offset = layout.parent_of(level, index)
    parent = cache._trusted_node_view(parent_level, parent_index)
    if parent is None:
        parent = reference_verified_node_bytes(cache, parent_level, parent_index)
    stored = bytes(parent[offset : offset + MAC_SIZE])
    if computed != stored:
        raise ReplayError(
            f"Merkle node (level {level}, index {index}) failed "
            "verification: replay or tampering detected"
        )
    return node


def build(n_counters, arity, pin_levels, cache_nodes=64, costs=_NON_DYADIC):
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20, costs=costs))
    layout = MerkleLayout(n_counters, arity)
    with MeterPause(enclave.meter):
        tree = MerkleTree(enclave, layout, rng=random.Random(2))
        cache = SecureCache(
            enclave, tree,
            capacity_bytes=cache_nodes * (layout.node_size + ENTRY_METADATA_BYTES),
            config=AriaConfig(pin_levels=pin_levels, stop_swap_enabled=False),
        )
    return cache, tree, enclave


def make_resident(cache, tree, level, index, dirty):
    """Cache one node (clean bytes from the intact tree), outside the meter."""
    with MeterPause(cache._enclave.meter):
        cache._insert((level, index), bytearray(tree.read_node(level, index)),
                      dirty)


def flip_byte(enclave, tree, level, index, position, mask):
    addr = tree.node_addr(level, index) + position
    byte = enclave.untrusted.snoop(addr, 1)[0]
    enclave.untrusted.tamper(addr, bytes([byte ^ mask]))


def outcome(walk, cache, level, index):
    try:
        return ("ok", walk(cache, level, index))
    except ReplayError as error:
        return (type(error).__name__, str(error))


@st.composite
def scenarios(draw):
    arity = draw(st.integers(2, 8))
    n_counters = draw(st.integers(1, 700))
    layout = MerkleLayout(n_counters, arity)
    pin_levels = draw(st.integers(0, layout.n_levels))
    level = draw(st.integers(0, layout.top_level))
    index = draw(st.integers(0, layout.nodes_at_level(level) - 1))
    # The path from the start node to the top, as (level, index).
    path = [(level, index)]
    while path[-1][0] < layout.top_level:
        lvl, idx = path[-1]
        path.append((lvl + 1, idx // arity))
    # Residency and dirty bits for the path's ancestors (only those can stop
    # the walk) and for the start node itself (which must not matter).
    resident = [
        (node, draw(st.booleans()))
        for node in path if draw(st.booleans())
    ]
    tampered = draw(st.lists(st.sampled_from(path), max_size=2, unique=True))
    flips = [
        (node, draw(st.integers(0, layout.node_size - 1)),
         draw(st.integers(1, 255)))
        for node in tampered
    ]
    return n_counters, arity, pin_levels, (level, index), resident, flips


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_iterative_walk_equals_recursive_reference(scenario):
    n_counters, arity, pin_levels, (level, index), resident, flips = scenario
    observed = []
    for walk in (SecureCache._verified_node_bytes,
                 reference_verified_node_bytes):
        cache, tree, enclave = build(n_counters, arity, pin_levels)
        for (lvl, idx), dirty in resident:
            if lvl not in cache.pinned_levels:
                make_resident(cache, tree, lvl, idx, dirty)
        for (lvl, idx), position, mask in flips:
            flip_byte(enclave, tree, lvl, idx, position, mask)
        result = outcome(walk, cache, level, index)
        observed.append((result, enclave.meter.cycles,
                         dict(enclave.meter.events)))
    iterative, reference = observed
    assert iterative[0] == reference[0]          # bytes, or error type + text
    assert iterative[1] == reference[1]          # exact float, no tolerance
    assert iterative[2] == reference[2]
    assert iterative[1] > 0                      # the meter was live


class TestCompareOrder:
    """Hand-picked instances of the property, for the reader.

    512 counters at arity 4 make levels 0..4; the walk starts at leaf 5,
    whose path is L1 node 1, L2 node 0, L3 node 0, L4 node 0 (the top).
    """

    def _walks(self, pin_levels, flips):
        for walk in (SecureCache._verified_node_bytes,
                     reference_verified_node_bytes):
            cache, tree, enclave = build(512, 4, pin_levels)
            for level, index, position in flips:
                flip_byte(enclave, tree, level, index, position, 0x10)
            yield outcome(walk, cache, 0, 5), enclave.meter

    def test_two_bad_levels_name_the_upper_one(self):
        # Break the leaf, and break L1 node 1 outside leaf 5's slot (slot 1):
        # both comparisons would fail.
        flips = [(0, 5, 3), (1, 1, 3 * MAC_SIZE)]
        for (kind, text), _ in self._walks(1, flips):
            assert kind == "ReplayError"
            assert "(level 1, index 1)" in text

    def test_bad_top_node_is_a_root_mismatch_before_any_comparison(self):
        flips = [(0, 5, 0), (3, 0, 0), (4, 0, 7)]
        for (kind, text), _ in self._walks(0, flips):
            assert kind == "ReplayError" and "root mismatch" in text

    def test_a_failed_walk_has_paid_for_the_whole_climb(self):
        (first, meter), (second, reference) = self._walks(1, [(0, 5, 3)])
        assert first == second and "(level 0, index 5)" in first[1]
        # pin_levels=1 pins level 4 only: read + MAC levels 0..3, then compare.
        assert meter.events["mt_verify"] == 4
        assert meter.events == reference.events
        assert meter.cycles == reference.cycles


# -- the Python call budget ----------------------------------------------------


def python_calls(thunk) -> int:
    """Python-level function calls made by ``thunk()`` (its own frame
    included; C calls are not counted)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profiler)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


# Measured with one ordered cache table (hits and misses counted in place,
# no FIFO hit hook) and a write path with no uncharged helper between a
# Put's primitives.  The figures after "was" are the counts before the
# write path lost those helpers, before the one table and, where given,
# before the hit and miss paths were flattened.
CACHED_GET_CALLS = 21           # whole store.get; was 21, 23, and 157
CACHED_PUT_CALLS = 33           # whole store.put overwriting a cached key;
                                # was 38, and 44
ABSENT_KEY_PUT_CALLS = 36       # whole store.put of a new key; was 42
CLEAN_VICTIM_MISS_CALLS = 16    # one SecureCache.read_counter; was 16, 21, and 34
DIRTY_VICTIM_MISS_CALLS = 43    # likewise; was 44, 52, and 99


def _leaf_counter(cache, leaf):
    return leaf * cache._tree.layout.arity


class TestCallBudget:
    """Upper bounds, measured on CPython 3.11 at the commit that flattened
    the miss path.  Raise one only for a change that means to add a call to
    the per-op path, and say so; a newer interpreter may come in under."""

    @staticmethod
    def _warm_store():
        config = AriaConfig(n_buckets=64, initial_counters=256,
                            secure_cache_bytes=64 * (8 * 16 + 16),
                            pin_levels=1, seed=3)
        store = AriaStore(config, platform=SgxPlatform(epc_bytes=16 << 20))
        store.put(b"key-1", b"value-1")
        assert store.get(b"key-1") == b"value-1"      # warm: leaf is cached
        return store

    def test_cached_get(self):
        store = self._warm_store()
        hits = store.counters.cache_stats()["hits"]
        assert python_calls(lambda: store.get(b"key-1")) <= CACHED_GET_CALLS
        assert store.counters.cache_stats()["hits"] == hits + 1
        assert store.enclave.meter.events["op_get"] == 2

    def test_cached_put(self):
        store = self._warm_store()
        hits = store.counters.cache_stats()["hits"]
        assert python_calls(
            lambda: store.put(b"key-1", b"value-2")) <= CACHED_PUT_CALLS
        assert store.counters.cache_stats()["hits"] > hits
        assert store.enclave.meter.events["op_put"] == 2
        assert store.get(b"key-1") == b"value-2"

    def test_put_of_an_absent_key(self):
        store = self._warm_store()
        allocs = store.enclave.meter.events["heap_alloc"]
        assert python_calls(
            lambda: store.put(b"key-2", b"value-2")) <= ABSENT_KEY_PUT_CALLS
        assert store.enclave.meter.events["heap_alloc"] == allocs + 1
        assert store.get(b"key-2") == b"value-2"
        assert len(store) == 2

    def test_miss_with_clean_victim(self):
        # 512 counters, arity 4: levels 0..4.  Pinning the top four leaves
        # level 0 to the cache: a miss is read + MAC + pinned-parent compare.
        cache, tree, enclave = build(512, 4, pin_levels=4, cache_nodes=4,
                                     costs=CostModel())
        for leaf in range(4):
            cache.read_counter(_leaf_counter(cache, leaf))   # fill, all clean
        before = dict(enclave.meter.events)
        calls = python_calls(
            lambda: cache.read_counter(_leaf_counter(cache, 9)))
        after = enclave.meter.events
        assert after["cache_miss"] - before["cache_miss"] == 1
        assert after["cache_evict"] - before.get("cache_evict", 0) == 1
        assert after.get("cache_writeback", 0) == 0
        assert after["mt_verify"] - before["mt_verify"] == 1
        assert calls <= CLEAN_VICTIM_MISS_CALLS

    def test_miss_with_dirty_victim_and_parent_swap_in(self):
        # Pinning the top three leaves levels 0 and 1 to the cache.  The
        # FIFO head is a dirty leaf whose parent is not resident: evicting
        # it MACs it, walks the parent in (read + MAC + pinned compare),
        # inserts the parent, updates its slot and writes the leaf out; the
        # parent took the freed slot, so a second (clean) victim goes too.
        cache, tree, enclave = build(512, 4, pin_levels=3, cache_nodes=4,
                                     costs=CostModel())
        cache.write_counter(_leaf_counter(cache, 0), bytes(16))  # dirty head
        for leaf in (20, 40, 60):                 # clean, four distinct parents
            cache.read_counter(_leaf_counter(cache, leaf))
        assert cache.cached_nodes == 4 and not cache.is_cached(1, 0)
        before = dict(enclave.meter.events)
        calls = python_calls(
            lambda: cache.read_counter(_leaf_counter(cache, 100)))
        after = enclave.meter.events
        assert after["cache_miss"] - before["cache_miss"] == 1
        assert after["cache_evict"] - before.get("cache_evict", 0) == 2
        assert after["cache_writeback"] - before.get("cache_writeback", 0) == 1
        # the miss's own two levels, the victim's MAC, the parent's walk
        assert after["mt_verify"] - before["mt_verify"] == 4
        assert cache.is_cached(1, 0) and cache.is_cached(0, 100)
        assert calls <= DIRTY_VICTIM_MISS_CALLS


