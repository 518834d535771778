"""Aria-H's chain walk, counted access by access (Section V-C).

One bucket holds a chain of ``N`` entries.  Every ``read_untrusted`` an
operation makes is recorded and sorted by what it touched: the bucket's head
slot, an entry's 24-byte head (next pointer, key hint, record header), an
entry's sealed record, or an entry's bare next pointer.  The key hint exists
so that a walk skips non-matching entries without touching their records;
these tests pin that, the single walk per Put, the two key hashes per
operation, and that a miss still opens every walked record, so a Fig 7 slot
swap and an unauthorized deletion are still detected.
"""

import collections
import zlib

import pytest

from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import DeletionError, IntegrityError, KeyNotFoundError
from repro.index.hashtable import _ENTRY_HEAD, _ENTRY_PREFIX
from repro.sgx.costs import SgxPlatform

N = 8
VALUE = b"v" * 24


def _store(n_buckets: int) -> AriaStore:
    return AriaStore(
        AriaConfig(index="hash", n_buckets=n_buckets, initial_counters=1 << 10,
                   secure_cache_bytes=1 << 16, pin_levels=1,
                   stop_swap_enabled=False),
        platform=SgxPlatform(epc_bytes=16 << 20),
    )


def _key(i: int) -> bytes:
    return b"key-%04d" % i


def _chain(store: AriaStore, bucket: int = 0) -> list:
    """Entry addresses of one bucket's chain, head first (unmetered)."""
    index = store.index
    memory = store.enclave.untrusted
    addrs = []
    addr = int.from_bytes(memory.read(index._bucket_base + bucket * 8, 8),
                          "little")
    while addr:
        addrs.append(addr)
        addr = int.from_bytes(memory.read(addr, 8), "little")
    return addrs


@pytest.fixture
def chained():
    """A single-bucket store whose chain holds ``_key(0..N-1)`` in order."""
    store = _store(1)
    for i in range(N):
        store.put(_key(i), VALUE)
    assert len(_chain(store)) == N
    return store


def _count(store: AriaStore, op) -> collections.Counter:
    """Run ``op``; classify every untrusted read it made of the index."""
    chain = set(_chain(store))
    slots = {store.index._bucket_base + b * 8
             for b in range(store.index._n_buckets)}
    enclave = store.enclave
    seen = collections.Counter()
    real = enclave.read_untrusted

    def read(addr, size):
        if addr in slots and size == 8:
            seen["slot"] += 1
        elif addr in chain and size == _ENTRY_HEAD.size:
            seen["head"] += 1
        elif addr in chain and size == 8:
            seen["pointer"] += 1
        elif addr - _ENTRY_PREFIX.size in chain:
            seen["record"] += 1
        return real(addr, size)

    enclave.read_untrusted = read
    try:
        op()
    finally:
        del enclave.read_untrusted
    return seen


@pytest.mark.parametrize("depth", range(N))
def test_a_hit_reads_heads_to_its_depth_and_one_record(chained, depth):
    seen = _count(chained, lambda: chained.get(_key(depth)))
    assert seen == {"slot": 1, "head": depth + 1, "record": 1}


def test_a_miss_reads_and_opens_every_walked_record(chained):
    seen = _count(chained, lambda: pytest.raises(KeyNotFoundError,
                                                 chained.get, b"absent"))
    assert seen == {"slot": 1, "head": N, "record": N}
    opened = []
    codec = chained.index._codec
    real_open = codec.open
    codec.open = lambda blob, ad_field: (
        opened.append(ad_field) or real_open(blob, ad_field))
    try:
        for op in (chained.get, chained.delete):
            opened.clear()
            with pytest.raises(KeyNotFoundError):
                op(b"absent")
            # Each record is checked against the slot that points at it.
            slots = [chained.index._bucket_base] + _chain(chained)[:-1]
            assert opened == slots
    finally:
        del codec.open


def test_a_put_that_misses_walks_once():
    store = _store(1)
    for i in range(N):
        seen = _count(store, lambda: store.put(_key(i), VALUE))
        # One walk over the i entries already there; the new entry is
        # linked at the slot that walk ended on.
        assert seen == ({"slot": 1, "head": i} if i else {"slot": 1})
    assert len(_chain(store)) == N
    for i in range(N):
        assert store.get(_key(i)) == VALUE


def test_a_grown_value_is_relinked_without_walking_from_the_head(chained):
    depth = 2
    chain = _chain(chained)
    seen = _count(chained, lambda: chained.put(_key(depth), VALUE * 8))
    # The walk reaches the entry, the splice re-binds its successor, and
    # the tail is found from there: one pointer read per later entry.
    assert seen == {"slot": 1, "head": depth + 2, "record": 2,
                    "pointer": N - depth - 1}
    assert _chain(chained)[:-1] == chain[:depth] + chain[depth + 1:]
    assert chained.get(_key(depth)) == VALUE * 8


def test_every_operation_hashes_its_key_exactly_twice(chained):
    enclave = chained.enclave
    calls = []
    real = enclave.hash_key
    enclave.hash_key = lambda key: calls.append(key) or real(key)
    ops = {
        "get": lambda: chained.get(_key(3)),
        "get-miss": lambda: pytest.raises(KeyNotFoundError, chained.get,
                                          b"absent"),
        "put-new": lambda: chained.put(b"fresh", VALUE),
        "put-same-size": lambda: chained.put(_key(4), VALUE[::-1]),
        "put-grow": lambda: chained.put(_key(5), VALUE * 8),
        "delete": lambda: chained.delete(_key(6)),
    }
    try:
        for name, op in ops.items():
            calls.clear()
            op()
            assert len(calls) == 2, name
    finally:
        del enclave.hash_key


def _two_equal_chains():
    """Two buckets of ``N`` entries each; returns (store, keys by bucket)."""
    store = _store(2)
    by_bucket = {0: [], 1: []}
    i = 0
    while min(len(keys) for keys in by_bucket.values()) < N:
        key = _key(i)
        bucket = store.index._bucket_slot(key)[0]
        if len(by_bucket[bucket]) < N:
            store.put(key, VALUE)
            by_bucket[bucket].append(key)
        i += 1
    return store, by_bucket


@pytest.mark.parametrize("op", ["get", "delete"])
def test_a_swapped_slot_is_caught_by_the_miss_verification(op):
    # Fig 7: equal chain lengths, so the entry count cannot tell; only the
    # records' AdFields can, and the walk itself opens none of them.
    store, by_bucket = _two_equal_chains()
    memory = store.enclave.untrusted
    base = store.index._bucket_base
    head_0, head_1 = memory.read(base, 8), memory.read(base + 8, 8)
    memory.write(base, head_1)
    memory.write(base + 8, head_0)
    with pytest.raises(IntegrityError):
        getattr(store, op)(by_bucket[0][0])


@pytest.mark.parametrize("op", ["get", "delete"])
def test_a_dropped_entry_is_a_deletion(chained, op):
    chain = _chain(chained)
    depth = 3
    # Point the predecessor's next field past the victim's entry.
    chained.enclave.untrusted.write(chain[depth - 1],
                                    chain[depth + 1].to_bytes(8, "little"))
    with pytest.raises(DeletionError):
        getattr(chained, op)(_key(depth))


# -- a key-hint collision ------------------------------------------------------

#: Two keys with one crc32 (0x7b382c37), hence one key hint; found by search.
TWIN, ABSENT_TWIN = b"key-29685295", b"key-32060020"
TWIN_DEPTH = 3


def _twin_key(i: int) -> bytes:
    """Chain keys as long as ``TWIN``, so every entry has one size."""
    return TWIN if i == TWIN_DEPTH else b"key-%08d" % i


@pytest.fixture
def twinned():
    """A one-bucket chain of ``N`` equal-size entries, ``TWIN`` at depth 3."""
    assert TWIN != ABSENT_TWIN and zlib.crc32(TWIN) == zlib.crc32(ABSENT_TWIN)
    store = _store(1)
    for i in range(N):
        store.put(_twin_key(i), VALUE)
    return store


def test_a_miss_past_a_hint_twin_reads_each_record_once(twinned):
    # The walk opens the twin's record at its hint match; the miss
    # verification then opens the other N - 1, not all N again.
    seen = _count(twinned, lambda: pytest.raises(KeyNotFoundError,
                                                 twinned.get, ABSENT_TWIN))
    assert seen == {"slot": 1, "head": N, "record": N}
    opened = []
    codec = twinned.index._codec
    real_open = codec.open
    codec.open = lambda blob, ad_field: (
        opened.append(ad_field) or real_open(blob, ad_field))
    try:
        for op in (twinned.get, twinned.delete):
            opened.clear()
            with pytest.raises(KeyNotFoundError):
                op(ABSENT_TWIN)
            # Every record once, each against the slot that points at it.
            slots = [twinned.index._bucket_base] + _chain(twinned)[:-1]
            assert sorted(opened) == sorted(slots)
            assert opened[0] == slots[TWIN_DEPTH]
    finally:
        del codec.open
    assert twinned.get(TWIN) == VALUE


@pytest.mark.parametrize("depths", [(TWIN_DEPTH - 1, TWIN_DEPTH), (5, 6)],
                         ids=["twin-moved", "others-moved"])
@pytest.mark.parametrize("op", ["get", "delete"])
def test_records_moved_under_foreign_slots_are_caught_past_a_twin(
        twinned, depths, op):
    # The effect of a Fig 7 swap: two records trade places, each now under
    # a slot its AdField does not name.  Either the hint match opens a
    # moved twin, or the miss verification opens a moved record.
    memory = twinned.enclave.untrusted
    chain = _chain(twinned)
    size = _ENTRY_PREFIX.size + len(twinned.index._read_entry(chain[0])[2])
    a, b = (chain[d] + 8 for d in depths)  # keep each entry's next pointer
    body_a, body_b = memory.read(a, size - 8), memory.read(b, size - 8)
    memory.write(a, body_b)
    memory.write(b, body_a)
    with pytest.raises(IntegrityError):
        getattr(twinned, op)(ABSENT_TWIN)


@pytest.mark.parametrize("depth", [TWIN_DEPTH, 5], ids=["twin", "other"])
@pytest.mark.parametrize("op", ["get", "delete"])
def test_a_dropped_entry_past_a_twin_is_a_deletion(twinned, depth, op):
    chain = _chain(twinned)
    twinned.enclave.untrusted.write(chain[depth - 1],
                                    chain[depth + 1].to_bytes(8, "little"))
    with pytest.raises(DeletionError):
        getattr(twinned, op)(ABSENT_TWIN)
