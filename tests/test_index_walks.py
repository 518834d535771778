"""Every index walk is bounded by what the enclave holds (Section V-C).

A walk over untrusted pointers can be checked against two trusted facts:
each Aria-H bucket's entry count and the tree height.  The probe matrix
redirects one pointer and runs each operation under an alarm: every cell
must raise a typed :class:`IntegrityError` (a walk that never ends, or
dies with ``RecursionError``, fails the test instead of hanging the job).

* an Aria-H chain made cyclic (its tail points back at its head);
* each tree's first child pointer aimed at the root;
* a B+-tree next-leaf pointer rewound to the previous leaf.

The charge pin fixes what ``keys()``, ``audit()`` and ``range_scan()``
charge on honest data after a seeded put/delete stream: every migration,
re-sync and durability repair runs ``keys()``.  The constants in
:data:`CHARGES` were produced by running this file as a script
(``PYTHONPATH=src python tests/test_index_walks.py``) before the walks were
bounded; bounding them must not move a cycle.  Two B+-tree constants were
re-pinned once since, when both trees came to share one walk: ``audit``
starts its chain check at the leftmost leaf its structural pass already
read, and ``range_scan`` stops reading its first leaf twice (one node
read fewer each).
"""

import contextlib
import random
import signal

import pytest

from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import IntegrityError
from repro.sgx.costs import SgxPlatform

ALARM_S = 3


def _store(kind: str, **config) -> AriaStore:
    return AriaStore(
        AriaConfig(index=kind, initial_counters=1 << 10,
                   secure_cache_bytes=1 << 16, pin_levels=1,
                   stop_swap_enabled=False, **config),
        platform=SgxPlatform(epc_bytes=16 << 20),
    )


def _key(i: int) -> bytes:
    return b"key-%04d" % i


class _Alarm(Exception):
    pass


@contextlib.contextmanager
def _alarm():
    """Fail, instead of hanging, when the body runs past ``ALARM_S``."""
    def ring(signum, frame):
        raise _Alarm(f"no answer within {ALARM_S} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.alarm(ALARM_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _raises_typed(call) -> IntegrityError:
    """Run ``call`` under an alarm; it must raise an IntegrityError."""
    with _alarm(), pytest.raises(IntegrityError) as caught:
        call()
    return caught.value


# -- Aria-H: a cyclic chain ---------------------------------------------------------


@pytest.fixture
def cyclic_hash():
    """Bucket 0's tail entry points back at its head entry."""
    store = _store("hash", n_buckets=4)
    for i in range(40):
        store.put(_key(i), b"v")
    index = store.index
    memory = store.enclave.untrusted
    head = tail = int.from_bytes(memory.read(index._bucket_base, 8), "little")
    for _ in range(index._counts[0] - 1):
        tail = int.from_bytes(memory.read(tail, 8), "little")
    memory.tamper(tail, head.to_bytes(8, "little"))
    in_bucket = (_key(i) for i in range(2000)
                 if index._bucket_slot(_key(i))[0] == 0)
    store.present = next(in_bucket)
    store.absent = next(k for k in in_bucket if k >= _key(40))
    return store


HASH_CELLS = {
    "get_miss": lambda s: s.get(s.absent),
    "put_new": lambda s: s.put(s.absent, b"v"),
    "keys": lambda s: list(s.keys()),
    "audit": lambda s: s.index.audit(),
    # A value that outgrows its block is re-linked at the chain's tail.
    "put_grow": lambda s: s.put(s.present, b"v" * 200),
}


@pytest.mark.parametrize("op", HASH_CELLS)
def test_cyclic_hash_chain_raises(cyclic_hash, op):
    _raises_typed(lambda: HASH_CELLS[op](cyclic_hash))


def test_cyclic_hash_chain_message_says_so(cyclic_hash):
    error = _raises_typed(lambda: cyclic_hash.get(cyclic_hash.absent))
    assert "longer than" in str(error)


def test_dummy_bucket_reads_stop_on_a_cyclic_chain():
    # A dummy walk verifies nothing, so it stops instead of raising.
    store = _store("hash", n_buckets=2, dummy_bucket_reads=4)
    for i in range(20):
        store.put(_key(i), b"v")
    index = store.index
    memory = store.enclave.untrusted
    for bucket in range(2):
        head = int.from_bytes(memory.read(index._bucket_base + 8 * bucket, 8),
                              "little")
        memory.tamper(head, head.to_bytes(8, "little"))
    with _alarm():
        index._walk_dummy_buckets()


# -- trees: the first child pointer aimed at the root --------------------------------


TREES = pytest.mark.parametrize("kind, order",
                                [("btree", 5), ("bplustree", 4)],
                                ids=["btree", "bplustree"])

TREE_CELLS = {
    "get_miss": lambda s: s.get(b"aaa"),
    "put": lambda s: s.put(b"aaa", b"v"),
    "delete": lambda s: s.delete(_key(0)),
    "keys": lambda s: list(s.keys()),
    "audit": lambda s: s.index.audit(),
}


@TREES
@pytest.mark.parametrize("op", TREE_CELLS)
def test_child_pointer_at_the_root_raises(kind, order, op):
    store = _store(kind, btree_order=order)
    for i in range(120):
        store.put(_key(i), b"v")
    index = store.index
    assert index.height >= 3
    child_slot = index._root + index.HEADER + index._max_keys * 8
    store.enclave.untrusted.tamper(child_slot,
                                   index._root.to_bytes(8, "little"))
    _raises_typed(lambda: TREE_CELLS[op](store))


# -- B+-tree: a rewound next-leaf pointer -------------------------------------------


@pytest.mark.parametrize("op", ["keys", "audit", "range_scan"])
def test_rewound_leaf_chain_raises(op):
    store = _store("bplustree", btree_order=4)
    for i in range(100):
        store.put(_key(i), b"v")
    index = store.index
    first = index._leftmost_leaf()
    second = index._read_node(first.next_leaf)
    store.enclave.untrusted.tamper(second.addr + 8,
                                   first.addr.to_bytes(8, "little"))
    cells = {"keys": lambda: list(store.keys()),
             "audit": index.audit,
             "range_scan": lambda: store.range_scan(_key(0), _key(99))}
    _raises_typed(cells[op])


# -- the charge pin -----------------------------------------------------------------


INDEXES = {
    "hash": dict(n_buckets=16),
    "btree": dict(btree_order=5),
    "bplustree": dict(btree_order=4),
}


def _charges(kind: str) -> dict:
    """Cycles and events of each full walk after a seeded put/delete stream."""
    store = _store(kind, **INDEXES[kind])
    rng = random.Random(34)
    live: set = set()
    for _ in range(600):
        if live and rng.random() < 0.3:
            key = rng.choice(sorted(live))
            store.delete(key)
            live.discard(key)
        else:
            key = _key(rng.randrange(200))
            store.put(key, b"v" * rng.randrange(1, 40))
            live.add(key)
    index = store.index
    walks = {"keys": lambda: sorted(index.keys()) == sorted(live),
             "audit": index.audit}
    if kind != "hash":
        walks["range_scan"] = lambda: len(index.range_scan(_key(40), _key(120)))
    meter = store.enclave.meter
    charges = {}
    for name, walk in walks.items():
        before = meter.snapshot()
        result = walk()
        delta = before.delta(meter.snapshot())
        charges[name] = (result, delta.cycles,
                         {k: n for k, n in sorted(delta.events.items()) if n})
    return charges


CHARGES = {
    "hash": {
        "keys": (True, 194348.5, {
            "cache_hit": 95, "enc_bytes": 2693, "epc_access": 95,
            "mac_bytes": 6113, "mac_ops": 95, "untrusted_access": 206,
        }),
        "audit": (None, 194348.5, {
            "cache_hit": 95, "enc_bytes": 2693, "epc_access": 95,
            "mac_bytes": 6113, "mac_ops": 95, "untrusted_access": 206,
        }),
    },
    "btree": {
        "keys": (True, 197040.5, {
            "cache_hit": 95, "enc_bytes": 2693, "epc_access": 95,
            "mac_bytes": 6113, "mac_ops": 95, "untrusted_access": 227,
        }),
        "audit": (None, 197040.5, {
            "cache_hit": 95, "enc_bytes": 2693, "epc_access": 95,
            "mac_bytes": 6113, "mac_ops": 95, "untrusted_access": 227,
        }),
        "range_scan": (38, 87020.0, {
            "cache_hit": 42, "enc_bytes": 1165, "epc_access": 42,
            "mac_bytes": 2677, "mac_ops": 42, "untrusted_access": 101,
        }),
    },
    "bplustree": {
        "keys": (True, 197788.5, {
            "cache_hit": 95, "enc_bytes": 2693, "epc_access": 95,
            "mac_bytes": 6113, "mac_ops": 95, "untrusted_access": 235,
        }),
        "audit": (None, 286500.5, {
            "cache_hit": 136, "enc_bytes": 3021, "epc_access": 136,
            "mac_bytes": 7917, "mac_ops": 136, "untrusted_access": 415,
        }),
        "range_scan": (38, 94876.5, {
            "cache_hit": 46, "enc_bytes": 1146, "epc_access": 46,
            "mac_bytes": 2802, "mac_ops": 46, "untrusted_access": 115,
        }),
    },
}


@pytest.mark.parametrize("kind", INDEXES)
def test_walk_charges_are_pinned(kind):
    assert _charges(kind) == CHARGES[kind]


if __name__ == "__main__":
    for kind in INDEXES:
        print(f"    {kind!r}: {_charges(kind)!r},")
