"""Aria-B+: the B+-tree index the paper leaves as future work (Section VII).

    "Aria can also support B+-tree-based index by encrypting key and value
    respectively.  We leave it our future work to incorporate B+-tree into
    Aria."

This module incorporates it on the substrate of :mod:`repro.index.tree`
(node layout, AdField binding, height check).  The difference from Aria-T:

* **Leaves** hold the sealed KV records; **internal nodes** hold *separator
  records* that seal only a key — so a descent decrypts short separators
  instead of full KV records (the "encrypting key and value respectively"
  idea), and all data sits at one uniform depth.
* **Leaf chaining**: each leaf carries a next-leaf pointer, so range scans
  walk the leaf level without re-descending: the chain is this tree's
  ``_in_order`` walk.  The chain pointer is untrusted; every walk verifies
  each record against its containing leaf (AdField) and the substrate's
  ascending check spans the hops — a redirected pointer fails a MAC,
  breaks the order or revisits a leaf, and the audit also matches the
  chain against the tree's leaf level.

Separator records use the same counter + CMAC machinery as KV records (a
separator owns its own RedPtr), so the Merkle tree/Secure Cache protect them
identically.  Separators are *copies* of keys (classic B+-tree): deleting a
KV pair does not need to touch separators.

Deletion is leaf-local (lazy): entries leave their leaf, but the tree skeleton
only shrinks when the root empties.  The enclave-held height therefore stays
an exact invariant for the truncated-descent check, and the audit verifies
global counts.  (Production B+-trees routinely defer structural shrink the
same way.)
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ConfigurationError, DeletionError
from repro.index.tree import _NULL, SealedTreeIndex, _Node


class AriaBPlusTreeIndex(SealedTreeIndex):
    """B+-tree over sealed records with sealed separators and leaf links."""

    name = "bplustree"
    EPC_CONSUMER = "bplustree_index"
    HEADER = 16

    def _max_keys_for(self, order: int) -> int:
        if order < 4:
            raise ConfigurationError(f"b+tree order must be >= 4, got {order}")
        return order

    # -- search -------------------------------------------------------------------------

    def _path_to_leaf(self, key: bytes) -> list:
        """Nodes from the root to the leaf responsible for ``key``."""
        path = [self._read_node(self._root)]
        while not path[-1].is_leaf:
            index, found = self._find(path[-1], key)
            path.append(self._child(path[-1], index + found, len(path)))
        return path

    def get(self, key: bytes) -> bytes:
        path = self._path_to_leaf(key)
        leaf = path[-1]
        index, found = self._find(leaf, key)
        if not found:
            self._miss(key, len(path))
        return self._open(leaf.entries[index], leaf.addr).value

    # -- insertion ----------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        path = self._path_to_leaf(key)
        leaf = path[-1]
        index, found = self._find(leaf, key)
        if found:
            self._update_in_place(leaf, index, key, value)
            return
        self._insert_entry(leaf, index, key, value)
        if leaf.n > self._max_keys:
            self._split_up(path)

    def _split_up(self, path: list) -> None:
        """Split overfull nodes along the insertion path, bottom-up."""
        for level in range(len(path) - 1, -1, -1):
            node = path[level]
            if node.n <= self._max_keys:
                break
            separator_key, new_node = self._split_node(node)
            if level == 0:
                new_root = self._alloc_node(is_leaf=False)
                new_root.children = [node.addr, new_node.addr]
                new_root.entries = [
                    self._seal_new(separator_key, b"", new_root.addr)
                ]
                self._write_node(new_root)
                self._set_root(new_root.addr, self._height + 1)
            else:
                parent = path[level - 1]
                index = parent.children.index(node.addr)
                parent.children.insert(index + 1, new_node.addr)
                parent.entries.insert(
                    index, self._seal_new(separator_key, b"", parent.addr)
                )
                if parent.n <= self._max_keys:  # else its own split writes it
                    self._write_node(parent)

    def _split_node(self, node: _Node) -> tuple[bytes, _Node]:
        """Split one overfull node; returns (separator key, right sibling)."""
        half = node.n // 2
        right = self._alloc_node(is_leaf=node.is_leaf)
        if node.is_leaf:
            # Copy-up: the separator is a *copy* of the right half's first key.
            moving = node.entries[half:]
            for record_addr in moving:
                self._move_record(record_addr, node.addr, right.addr)
            right.entries = moving
            node.entries = node.entries[:half]
            right.next_leaf = node.next_leaf
            node.next_leaf = right.addr
            separator_key = self._key_of(right.entries[0], right.addr)
        else:
            # Move-up: the median separator leaves this level entirely.
            median = node.entries[half]
            separator_key = self._key_of(median, node.addr)
            moving = node.entries[half + 1 :]
            for sep_addr in moving:
                self._move_record(sep_addr, node.addr, right.addr)
            right.entries = moving
            right.children = node.children[half + 1 :]
            node.entries = node.entries[:half]
            node.children = node.children[: half + 1]
            self._release(median)  # the key text moved up as a fresh copy
        self._write_node(node)
        self._write_node(right)
        return separator_key, right

    # -- deletion (leaf-local) -------------------------------------------------------------

    def delete(self, key: bytes) -> None:
        path = self._path_to_leaf(key)
        leaf = path[-1]
        index, found = self._find(leaf, key)
        if not found:
            self._miss(key, len(path))
        record_addr = leaf.entries.pop(index)
        self._write_node(leaf)
        self._release_entry(record_addr)
        if self._n_entries == 0 and self._height > 1:
            # Reset the skeleton once every entry is gone.
            self._free_subtree(self._read_node(self._root), 1)
            self._set_root(self._alloc_node(is_leaf=True).addr, 1)

    def _free_subtree(self, node: _Node, depth: int) -> None:
        if not node.is_leaf:
            for sep_addr in node.entries:
                self._release(sep_addr)
            for i in range(len(node.children)):
                self._free_subtree(self._child(node, i, depth), depth + 1)
        self._free_node(node)

    # -- the leaf chain: the walk and the audit ------------------------------------

    def _chain(self, leaf: _Node, limit: Optional[int] = None
               ) -> Iterator[_Node]:
        """Leaves along the next-leaf chain, starting with ``leaf``.

        The chain pointer is untrusted: a hop to a node that is not a leaf,
        back to a leaf already visited, or past ``limit`` leaves raises.
        """
        seen = set()
        while True:
            if not leaf.is_leaf or leaf.addr in seen or len(seen) == limit:
                raise DeletionError(
                    "leaf chain loops or leaves the tree: next-leaf pointer "
                    "attacked")
            seen.add(leaf.addr)
            yield leaf
            if leaf.next_leaf == _NULL:
                return
            leaf = self._read_node(leaf.next_leaf)

    def _in_order(self, lo: Optional[bytes] = None) -> Iterator:
        """The leaf chain's records, from the leftmost leaf or from the
        leaf a descent for ``lo`` reaches."""
        start = (self._leftmost_leaf() if lo is None
                 else self._path_to_leaf(lo)[-1])
        for leaf in self._chain(start):
            for record_addr in leaf.entries:
                yield self._open(record_addr, leaf.addr)

    def _leftmost_leaf(self) -> _Node:
        node, depth = self._read_node(self._root), 1
        while not node.is_leaf:
            node = self._child(node, 0, depth)
            depth += 1
        return node

    def audit(self) -> None:
        """Depth, separator order and chain coverage, then the shared
        order-and-count walk."""
        leaves: list = []
        self._audit_node(self._read_node(self._root), 1, leaves)
        # The leaf chain must visit exactly the audited leaves, in order.
        chained = self._chain(leaves[0], limit=len(leaves))
        if [leaf.addr for leaf in chained] != [leaf.addr for leaf in leaves]:
            raise DeletionError("leaf chain does not match the tree structure")
        super().audit()

    def _audit_node(self, node: _Node, depth: int, leaves: list) -> None:
        if node.is_leaf:
            if depth != self._height:
                raise DeletionError("leaf at wrong depth")
            leaves.append(node)
            return
        separators = [self._key_of(s, node.addr) for s in node.entries]
        if separators != sorted(separators):
            raise DeletionError("separators out of order")
        for i in range(len(node.children)):
            self._audit_node(self._child(node, i, depth), depth + 1, leaves)
