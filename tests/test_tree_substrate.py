"""The sealed-tree substrate: node capacity from the order, node bytes."""

import pytest

from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import ConfigurationError
from repro.index import AriaBPlusTreeIndex, AriaBTreeIndex
from repro.index.tree import _Node
from repro.sgx.costs import SgxPlatform


def _build(cls, order):
    store = AriaStore(AriaConfig(initial_counters=256,
                                 secure_cache_bytes=1 << 16, pin_levels=1),
                      platform=SgxPlatform(epc_bytes=16 << 20))
    return cls(store.enclave, store.codec, store.allocator, order=order,
               fetch_counter=store.counters.fetch,
               free_counter=store.counters.free)


@pytest.mark.parametrize("order, max_keys", [(3, 3), (4, 3), (5, 5), (6, 5),
                                             (16, 15)])
def test_btree_rounds_an_even_order_down(order, max_keys):
    # CLRS wants an odd max-key count 2t - 1; the index derives it itself.
    index = _build(AriaBTreeIndex, order)
    assert (index._max_keys, index._t) == (max_keys, (max_keys + 1) // 2)
    for i in range(50):
        index.put(b"k%03d" % i, b"v")
    index.audit()


@pytest.mark.parametrize("cls, order", [(AriaBTreeIndex, 2),
                                        (AriaBPlusTreeIndex, 3)])
def test_too_small_an_order_is_refused(cls, order):
    with pytest.raises(ConfigurationError, match="order"):
        _build(cls, order)


def _slot_by_slot(index, node):
    """Node bytes spelled one pointer at a time (the reference layout)."""
    header = index.HEADER
    raw = bytearray(index._node_size)
    raw[0] = 1 if node.is_leaf else 0
    raw[1:3] = node.n.to_bytes(2, "little")
    if header == 16:
        raw[8:16] = node.next_leaf.to_bytes(8, "little")
    for i, ptr in enumerate(node.entries):
        raw[header + 8 * i : header + 8 * i + 8] = ptr.to_bytes(8, "little")
    cbase = header + index._max_keys * 8
    for i, ptr in enumerate(node.children):
        raw[cbase + 8 * i : cbase + 8 * i + 8] = ptr.to_bytes(8, "little")
    return bytes(raw)


@pytest.mark.parametrize("cls, order", [(AriaBTreeIndex, 5),
                                        (AriaBPlusTreeIndex, 4)])
@pytest.mark.parametrize("n", [0, 1, 4, 5])  # 5 overfills the B+-tree
def test_node_bytes_match_the_slot_by_slot_layout(cls, order, n):
    index = _build(cls, order)
    written = []
    index._enclave.write_untrusted = lambda addr, data: written.append(data)
    for is_leaf in (True, False):
        node = _Node(index._root, is_leaf,
                     [0x1000 + 40 * i for i in range(n)],
                     [] if is_leaf else [0x9000 + 64 * i for i in range(n + 1)],
                     0x7777 if cls is AriaBPlusTreeIndex else 0)
        index._write_node(node)
        reference = _slot_by_slot(index, node)
        assert written.pop() == reference
        if n <= index._max_keys:
            index._enclave.untrusted.write(node.addr, reference)
            back = index._read_node(node.addr)
            assert (back.is_leaf, back.entries, back.children,
                    back.next_leaf) == (is_leaf, node.entries,
                                        node.children, node.next_leaf)


@pytest.mark.parametrize("allocator", ["heap", "ocall"])
@pytest.mark.parametrize("index", ["btree", "bplustree"])
@pytest.mark.parametrize("order", [4, 5, 8])
def test_splits_stay_inside_their_node(index, allocator, order):
    # An OCALL block is exactly the node: nothing past it may be written,
    # so an overfull node must be split before it is written back.
    store = AriaStore(AriaConfig(index=index, allocator=allocator,
                                 btree_order=order, initial_counters=1024,
                                 secure_cache_bytes=1 << 16, pin_levels=1),
                      platform=SgxPlatform(epc_bytes=16 << 20))
    for i in range(400):
        store.put(b"key-%05d" % i, b"v%d" % i)
    store.index.audit()
    assert store.get(b"key-00399") == b"v399"
