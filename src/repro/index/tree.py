"""The sealed-tree substrate under Aria-T and the B+-tree (Sections V-C, VII).

A tree lives entirely in untrusted memory; only the root pointer, the tree
height and the entry count are EPC state.  Node layout::

    is_leaf (1) | n (2) | pad (5) | next_leaf (HEADER - 8)
                | entry_ptrs[max_keys] x 8 | child_ptrs[max_keys + 1] x 8

``HEADER`` is 8 bytes for Aria-T, which has no ``next_leaf``, and 16 for the
B+-tree.  Entries point to sealed records (:mod:`repro.core.record`) in
plaintext-key order; the child area is always reserved, used by internal
nodes only.

**The AdField binding (DESIGN.md deviation 7).**  Each record's AdField is
the address of the node holding its entry pointer.  Swapping entry pointers
between nodes relocates both records under foreign anchors, so both MACs
fail (the Fig 7 attack for trees).  The paper binds to the parent's
child-slot address instead; the node address detects the same cross-node
swaps and forgeries without resealing whole subtrees whenever a child-slot
array shifts.  Neither binding sees an in-node reordering: every walk
catches it (below), a Get or Delete does not (ROADMAP item 4).  Record
replay is caught by the counter freshness the Merkle tree guarantees.

**One walk.**  Each tree yields its opened records in key order through
``_in_order`` (Aria-T: an in-order recursion; the B+-tree: its leaf
chain).  ``keys()``, ``range_scan()`` and the order-and-count part of
``audit()`` are written once here over that walk, which refuses a key not
above its predecessor: a swapped entry or a redirected pointer raises
:class:`DeletionError` instead of returning data out of order.

**Unauthorized-deletion detection.**  The enclave records the height (the
paper's "number of tree nodes from the root to each leaf"); a miss whose
descent did not traverse exactly ``height`` nodes raises
:class:`DeletionError`.  Each tree keeps every leaf at that depth, and
every parent-to-child step of every walk goes through ``_child``, which
refuses a step below it: a child pointer aimed back up the tree raises
instead of looping.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.alloc.heap import Allocator
from repro.core.record import RecordCodec, record_size
from repro.errors import DeletionError, KeyNotFoundError
from repro.index.base import SecureIndex
from repro.sgx.enclave import Enclave

_NULL = 0


class _Node:
    """A parsed tree node; mutated in memory, written back explicitly."""

    __slots__ = ("addr", "is_leaf", "entries", "children", "next_leaf")

    def __init__(self, addr: int, is_leaf: bool, entries: list,
                 children: list, next_leaf: int = _NULL):
        self.addr = addr
        self.is_leaf = is_leaf
        self.entries = entries      # record addresses, plaintext-key order
        self.children = children    # child node addresses (len == entries + 1)
        self.next_leaf = next_leaf

    @property
    def n(self) -> int:
        return len(self.entries)


class SealedTreeIndex(SecureIndex):
    """Node storage, sealed-record helpers and enclave state of a tree."""

    HEADER = 8

    def __init__(self, enclave: Enclave, codec: RecordCodec,
                 allocator: Allocator, *, order: int, fetch_counter: callable,
                 free_counter: callable):
        self._max_keys = max_keys = self._max_keys_for(order)
        self._enclave = enclave
        self._codec = codec
        self._allocator = allocator
        self._fetch_counter = fetch_counter
        self._free_counter = free_counter
        self._children_at = self.HEADER + max_keys * 8
        self._node_size = self._children_at + (max_keys + 1) * 8
        enclave.epc.reserve(self.EPC_CONSUMER, self.epc_bytes())
        self._root = self._alloc_node(is_leaf=True).addr
        self._height = 1
        self._n_entries = 0

    def _max_keys_for(self, order: int) -> int:
        """Validate ``order``; returns the entry capacity of a node."""
        raise NotImplementedError

    # -- node storage -------------------------------------------------------------

    def _alloc_node(self, *, is_leaf: bool) -> _Node:
        node = _Node(self._allocator.alloc(self._node_size), is_leaf, [], [])
        self._write_node(node)
        return node

    def _free_node(self, node: _Node) -> None:
        self._allocator.free(node.addr, self._node_size)

    def _read_node(self, addr: int) -> _Node:
        raw = self._enclave.read_untrusted(addr, self._node_size)
        n = int.from_bytes(raw[1:3], "little")
        if n > self._max_keys:
            raise DeletionError(
                f"{self.name} node at {addr:#x} claims {n} keys: corrupted"
            )
        is_leaf = bool(raw[0])
        entries = list(struct.unpack_from(f"<{n}Q", raw, self.HEADER))
        children = [] if is_leaf else list(
            struct.unpack_from(f"<{n + 1}Q", raw, self._children_at))
        return _Node(addr, is_leaf, entries, children,
                     int.from_bytes(raw[8:self.HEADER], "little"))

    def _write_node(self, node: _Node) -> None:
        # A B+-tree leaf one entry past max_keys (written just before its
        # split) still fits: its last entry lands in the unused child area.
        # An overfull internal node is never written; its split writes it.
        raw = bytearray(self._node_size)
        raw[0] = node.is_leaf
        raw[1:3] = node.n.to_bytes(2, "little")
        raw[8:self.HEADER] = node.next_leaf.to_bytes(self.HEADER - 8, "little")
        raw[self.HEADER:self.HEADER + 8 * node.n] = struct.pack(
            f"<{node.n}Q", *node.entries)
        children = node.children
        raw[self._children_at:self._children_at + 8 * len(children)] = (
            struct.pack(f"<{len(children)}Q", *children))
        self._enclave.write_untrusted(node.addr, bytes(raw))

    def _child(self, node: _Node, index: int, depth: int) -> _Node:
        """The one parent-to-child step: ``node`` sits at ``depth``.

        Raises before reading on a null pointer, or on a step below the
        enclave-held height (a pointer aimed back up the tree).
        """
        child = node.children[index]
        if child == _NULL:
            raise DeletionError(
                f"{self.name} descent hit a null child pointer: index attacked"
            )
        if depth >= self._height:
            raise DeletionError(
                f"{self.name} descent steps below depth {depth} but the "
                f"enclave recorded a height of {self._height}: child pointer "
                "attacked"
            )
        return self._read_node(child)

    def _set_root(self, addr: int, height: int) -> None:
        self._root = addr
        self._enclave.epc_touch(8)
        self._height = height

    # -- sealed records -------------------------------------------------------------

    def _read_record(self, record_addr: int) -> bytes:
        header = self._enclave.read_untrusted(record_addr, 12)
        _, k_len, v_len = self._codec.parse_header(header)
        return self._enclave.read_untrusted(record_addr,
                                            record_size(k_len, v_len))

    def _open(self, record_addr: int, node_addr: int):
        return self._codec.open(self._read_record(record_addr),
                                ad_field=node_addr)

    def _key_of(self, record_addr: int, node_addr: int) -> bytes:
        return self._open(record_addr, node_addr).key

    def _seal_new(self, key: bytes, value: bytes, node_addr: int) -> int:
        """Seal a record under a fresh counter; returns its address."""
        red_ptr = self._fetch_counter()
        blob = self._codec.seal(key, value, red_ptr, ad_field=node_addr)
        record_addr = self._allocator.alloc(len(blob))
        self._enclave.write_untrusted(record_addr, blob)
        return record_addr

    def _move_record(self, record_addr: int, old_node: int,
                     new_node: int) -> None:
        """Re-bind a record to a new containing node (split/borrow/merge)."""
        blob = self._read_record(record_addr)
        self._enclave.write_untrusted(record_addr, self._codec.reseal_ad_field(
            blob, old_ad=old_node, new_ad=new_node))

    def _release(self, record_addr: int) -> None:
        """Free a record's heap block and return its counter."""
        blob = self._read_record(record_addr)
        red_ptr, k_len, v_len = self._codec.parse_header(blob)
        self._allocator.free(record_addr, record_size(k_len, v_len))
        self._free_counter(red_ptr)

    # -- entries ----------------------------------------------------------------------

    def _find(self, node: _Node, key: bytes) -> tuple[int, bool]:
        """Binary search; returns (index, found) — if not found, where the
        key would go.  The child to descend is ``index`` in Aria-T and
        ``index + found`` in the B+-tree, whose equal separator's key sits
        at the right child's start.  Each probe decrypts."""
        lo, hi = 0, node.n
        while lo < hi:
            mid = (lo + hi) // 2
            probe = self._key_of(node.entries[mid], node.addr)
            if probe == key:
                return mid, True
            if probe < key:
                lo = mid + 1
            else:
                hi = mid
        return lo, False

    def _insert_entry(self, node: _Node, index: int, key: bytes,
                      value: bytes) -> None:
        node.entries.insert(index, self._seal_new(key, value, node.addr))
        self._write_node(node)
        self._enclave.epc_touch(8)
        self._n_entries += 1

    def _update_in_place(self, node: _Node, index: int, key: bytes,
                         value: bytes) -> None:
        """Overwrite an existing key, reusing its counter (Section V-D)."""
        old_addr = node.entries[index]
        old_blob = self._read_record(old_addr)
        red_ptr, k_len, v_len = self._codec.parse_header(old_blob)
        new_blob = self._codec.seal(key, value, red_ptr, ad_field=node.addr)
        if len(new_blob) <= self._allocator.block_size_of(
                record_size(k_len, v_len)):
            self._enclave.write_untrusted(old_addr, new_blob)
            return
        new_addr = self._allocator.alloc(len(new_blob))
        self._enclave.write_untrusted(new_addr, new_blob)
        node.entries[index] = new_addr
        self._write_node(node)
        self._allocator.free(old_addr, record_size(k_len, v_len))

    def _release_entry(self, record_addr: int) -> None:
        """Release an unlinked KV record and count it out of the tree."""
        self._release(record_addr)
        self._enclave.epc_touch(8)
        self._n_entries -= 1

    def _miss(self, key: bytes, depth: int) -> None:
        """A key is absent: raise, as a deletion if the descent was short."""
        self._enclave.epc_touch(4)
        if depth != self._height:
            raise DeletionError(
                f"descent traversed {depth} nodes but the enclave recorded a "
                f"height of {self._height}: unauthorized deletion detected"
            )
        raise KeyNotFoundError(key)

    # -- walks ----------------------------------------------------------------------

    def _in_order(self, lo: Optional[bytes] = None) -> Iterator:
        """Opened records in key order; with ``lo``, the walk may skip
        records below it."""
        raise NotImplementedError

    def _ascending(self, lo: Optional[bytes] = None) -> Iterator:
        """``_in_order``, raising on a key not above its predecessor."""
        previous: Optional[bytes] = None
        for opened in self._in_order(lo):
            if previous is not None and opened.key <= previous:
                raise DeletionError(
                    f"{self.name} walk out of order: index attacked")
            previous = opened.key
            yield opened

    def keys(self) -> Iterator[bytes]:
        for opened in self._ascending():
            yield opened.key

    def range_scan(self, lo: bytes, hi: bytes) -> list[tuple[bytes, bytes]]:
        """All (key, value) pairs with lo <= key < hi, in order.

        Range queries are what a tree index exists for (Section III); the
        hash index cannot serve them.
        """
        results = []
        for opened in self._ascending(lo):
            if opened.key >= hi:
                break
            if opened.key >= lo:
                results.append((opened.key, opened.value))
        return results

    def audit(self) -> None:
        """Verified full walk: keys ascend and number the enclave's count."""
        count = sum(1 for _ in self._ascending())
        if count != self._n_entries:
            raise DeletionError(
                f"tree holds {count} entries but the enclave recorded "
                f"{self._n_entries}"
            )

    # -- enclave state --------------------------------------------------------------

    def __len__(self) -> int:
        return self._n_entries

    def epc_bytes(self) -> int:
        return 8 + 4 + 8  # root pointer, height, entry count

    @property
    def height(self) -> int:
        return self._height
