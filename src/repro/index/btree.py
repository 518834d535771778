"""Aria-T: B-tree index over sealed records (paper Section V-C).

Node layout, the containing-node AdField and the height check live in
:mod:`repro.index.tree`.  Every comparison during a descent must verify and
*decrypt* a record — the paper's explanation for Aria-T being an order of
magnitude slower than Aria-H, which skips decryption via key hints.
Deletion uses the full CLRS algorithm (borrow / merge) so the tree stays
uniformly ``height`` deep at all times.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import ConfigurationError, DeletionError
from repro.index.tree import SealedTreeIndex, _Node


class AriaBTreeIndex(SealedTreeIndex):
    """CLRS B-tree of minimum degree ``t`` over sealed records."""

    name = "btree"
    EPC_CONSUMER = "btree_index"

    def _max_keys_for(self, order: int) -> int:
        if order < 3:
            raise ConfigurationError(f"btree order must be >= 3, got {order}")
        self._t = (order + 1) // 2  # minimum degree; an even order rounds down
        return 2 * self._t - 1      # CLRS wants an odd max-key count

    # -- lookup and insertion ---------------------------------------------------------

    def get(self, key: bytes) -> bytes:
        node, depth = self._read_node(self._root), 1
        while True:
            index, found = self._find(node, key)
            if found:
                return self._open(node.entries[index], node.addr).value
            if node.is_leaf:
                self._miss(key, depth)
            node = self._child(node, index, depth)
            depth += 1

    def put(self, key: bytes, value: bytes) -> None:
        root = self._read_node(self._root)
        if root.n == self._max_keys:
            new_root = self._alloc_node(is_leaf=False)
            new_root.children = [root.addr]
            self._split_child(new_root, 0, root)
            self._set_root(new_root.addr, self._height + 1)
            root = new_root
        self._insert_nonfull(root, key, value, 1)

    def _insert_nonfull(self, node: _Node, key: bytes, value: bytes,
                        depth: int) -> None:
        index, found = self._find(node, key)
        if found:
            self._update_in_place(node, index, key, value)
            return
        if node.is_leaf:
            self._insert_entry(node, index, key, value)
            return
        child = self._child(node, index, depth)
        if child.n == self._max_keys:
            self._split_child(node, index, child)
            # The promoted median may change which side the key belongs to.
            median_key = self._key_of(node.entries[index], node.addr)
            if key == median_key:
                self._update_in_place(node, index, key, value)
                return
            if key > median_key:
                index += 1
            child = self._child(node, index, depth)
        self._insert_nonfull(child, key, value, depth + 1)

    def _split_child(self, parent: _Node, index: int, child: _Node) -> None:
        """Split a full child; the median entry rises into the parent."""
        t = self._t
        sibling = self._alloc_node(is_leaf=child.is_leaf)
        # Upper t-1 entries move to the sibling (re-bound to the new node).
        moving = child.entries[t:]
        for record_addr in moving:
            self._move_record(record_addr, child.addr, sibling.addr)
        sibling.entries = moving
        median = child.entries[t - 1]
        self._move_record(median, child.addr, parent.addr)
        child.entries = child.entries[: t - 1]
        if not child.is_leaf:
            sibling.children = child.children[t:]
            child.children = child.children[:t]
        parent.entries.insert(index, median)
        parent.children.insert(index + 1, sibling.addr)
        self._write_node(child)
        self._write_node(sibling)
        self._write_node(parent)

    # -- deletion (full CLRS: borrow / merge keeps the height uniform) -------------

    def delete(self, key: bytes) -> None:
        root = self._read_node(self._root)
        removed_addr, _ = self._delete_from(root, key, depth=1)
        self._release_entry(removed_addr)
        root = self._read_node(self._root)
        if root.n == 0 and not root.is_leaf:
            # Shrink: the root's only child becomes the new root.
            self._set_root(root.children[0], self._height - 1)
            self._free_node(root)

    def _delete_from(self, node: _Node, key: bytes,
                     depth: int) -> tuple[int, int]:
        """Unlink ``key``'s entry from the subtree rooted at ``node``.

        Returns (record address, address of the node it was removed from).
        The caller decides whether to release the record — the pred/succ
        replacement path re-binds it into an internal slot instead.
        """
        index, found = self._find(node, key)
        if found:
            if node.is_leaf:
                record_addr = node.entries.pop(index)
                self._write_node(node)
                return record_addr, node.addr
            return self._delete_internal(node, index, depth)
        if node.is_leaf:
            self._miss(key, depth)
        child = self._child(node, index, depth)
        if child.n < self._t:
            child, index = self._fortify_child(node, index, child, depth)
        return self._delete_from(child, key, depth + 1)

    def _delete_internal(self, node: _Node, index: int,
                         depth: int) -> tuple[int, int]:
        """CLRS cases 2a/2b/2c for a key found in an internal node."""
        t = self._t
        victim_addr = node.entries[index]
        left = self._child(node, index, depth)
        if left.n >= t:
            repl_key = self._extreme_key(left, depth + 1, rightmost=True)
            repl_addr, repl_node = self._delete_from(left, repl_key, depth + 1)
        else:
            right = self._child(node, index + 1, depth)
            if right.n >= t:
                repl_key = self._extreme_key(right, depth + 1, rightmost=False)
                repl_addr, repl_node = self._delete_from(right, repl_key,
                                                         depth + 1)
            else:
                # Both neighbours minimal: merge around the key, recurse.
                victim_key = self._key_of(victim_addr, node.addr)
                merged = self._merge_children(node, index, left, right)
                return self._delete_from(merged, victim_key, depth + 1)
        # Install the replacement in our slot, bound to this node.
        self._move_record(repl_addr, repl_node, node.addr)
        node = self._read_node(node.addr)  # children may have restructured
        node.entries[index] = repl_addr
        self._write_node(node)
        return victim_addr, node.addr

    def _extreme_key(self, node: _Node, depth: int, *,
                     rightmost: bool) -> bytes:
        """Plaintext key of a subtree's rightmost/leftmost record."""
        while not node.is_leaf:
            node = self._child(node, -1 if rightmost else 0, depth)
            depth += 1
        if node.n == 0:
            raise DeletionError("empty leaf on extreme path: index corrupted")
        return self._key_of(node.entries[-1 if rightmost else 0], node.addr)

    def _fortify_child(self, parent: _Node, index: int, child: _Node,
                       depth: int) -> tuple[_Node, int]:
        """Ensure ``child`` has >= t keys by borrowing or merging (CLRS);
        each sibling is read at most once."""
        t = self._t
        left = None
        if index > 0:
            left = self._child(parent, index - 1, depth)
            if left.n >= t:
                self._borrow(parent, index, child, left, from_left=True)
                return child, index
        if index < parent.n:
            right = self._child(parent, index + 1, depth)
            if right.n >= t:
                self._borrow(parent, index, child, right, from_left=False)
                return child, index
        if left is not None:
            index -= 1
            return self._merge_children(parent, index, left, child), index
        return self._merge_children(parent, index, child, right), index

    def _borrow(self, parent: _Node, index: int, child: _Node,
                sibling: _Node, *, from_left: bool) -> None:
        """Rotate one entry: the parent's separator drops into ``child``
        and the sibling's nearest entry rises to replace it."""
        slot, near = (index - 1, -1) if from_left else (index, 0)
        separator = parent.entries[slot]
        self._move_record(separator, parent.addr, child.addr)
        child.entries.insert(0 if from_left else child.n, separator)
        rising = sibling.entries.pop(near)
        self._move_record(rising, sibling.addr, parent.addr)
        parent.entries[slot] = rising
        if not child.is_leaf:
            child.children.insert(0 if from_left else len(child.children),
                                  sibling.children.pop(near))
        self._write_node(sibling)
        self._write_node(child)
        self._write_node(parent)

    def _merge_children(self, parent: _Node, index: int, left: _Node,
                        right: _Node) -> _Node:
        """Fold parent.entries[index] and the right child into the left."""
        separator = parent.entries.pop(index)
        parent.children.pop(index + 1)
        self._move_record(separator, parent.addr, left.addr)
        left.entries.append(separator)
        for record_addr in right.entries:
            self._move_record(record_addr, right.addr, left.addr)
        left.entries.extend(right.entries)
        if not left.is_leaf:
            left.children.extend(right.children)
        self._write_node(left)
        self._write_node(parent)
        self._free_node(right)
        return left

    # -- the walk ---------------------------------------------------------------------

    def _in_order(self, lo: Optional[bytes] = None) -> Iterator:
        yield from self._walk(self._read_node(self._root), 1, lo)

    def _walk(self, node: _Node, depth: int, lo: Optional[bytes]) -> Iterator:
        if node.is_leaf and depth != self._height:
            raise DeletionError("leaf at wrong depth: height invariant broken")
        for i, record_addr in enumerate(node.entries):
            opened = self._open(record_addr, node.addr)
            # Child i holds keys below entry i: enter it only if it can
            # hold a key at or above lo.
            if not node.is_leaf and (lo is None or opened.key > lo):
                yield from self._walk(self._child(node, i, depth), depth + 1,
                                      lo)
            yield opened
        if not node.is_leaf:
            yield from self._walk(self._child(node, -1, depth), depth + 1, lo)
