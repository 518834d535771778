"""Flat n-ary Merkle tree layout (paper Section IV-D, Fig 5).

The tree protects the per-KV encryption counters:

* **Level 0** holds the counters themselves, packed ``arity`` per node
  (node size = ``arity * 16`` bytes — the "input length m" of Fig 5).
* **Level i > 0** holds 16-byte MACs, one per child node, again ``arity``
  per node.
* The level with a single node is the **top level**; its MAC is the root,
  which always stays in the EPC.

All levels live in *continuous* untrusted memory (one region per level), so
a node's address is pure arithmetic on its index — no pointers to chase,
which is what lets the paper claim hardware-prefetch friendliness.

Increasing ``arity`` flattens the tree (fewer verification steps) but makes
each MAC input longer and each swap-in copy bigger — the trade-off Fig 15
sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError

COUNTER_SIZE = 16
MAC_SIZE = 16


@dataclass(frozen=True)
class MerkleLayout:
    """Pure geometry: node counts, sizes and parent/child arithmetic.

    Identity is ``(n_counters, arity)``; everything else is derived from
    those two once, at construction, because the Secure Cache's miss path
    asks for it several times per op (ARCHITECTURE "Host-time hot path").
    """

    n_counters: int
    arity: int
    #: Bytes per node — the MAC input length m of Fig 5.
    node_size: int = field(init=False, repr=False, compare=False)
    #: Number of node levels (the top level has exactly one node).
    n_levels: int = field(init=False, repr=False, compare=False)
    top_level: int = field(init=False, repr=False, compare=False)
    #: Nodes per level, leaf first (level 0 = counter blocks).
    level_counts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.arity < 2:
            raise ConfigurationError(f"Merkle arity must be >= 2, got {self.arity}")
        if self.n_counters < 1:
            raise ConfigurationError(
                f"need at least one counter, got {self.n_counters}"
            )
        counts = []
        count = self.n_counters
        while True:
            count = -(-count // self.arity)  # ceil division
            counts.append(count)
            if count == 1:
                break
        store = object.__setattr__  # the dataclass is frozen
        store(self, "node_size", self.arity * COUNTER_SIZE)  # MACs are 16 B too
        store(self, "n_levels", len(counts))
        store(self, "top_level", len(counts) - 1)
        store(self, "level_counts", tuple(counts))

    def _check_level(self, level: int) -> None:
        # A negative level must not wrap around ``level_counts`` to the top.
        if not 0 <= level < self.n_levels:
            raise IndexError(
                f"level {level} out of range [0, {self.n_levels})")

    def nodes_at_level(self, level: int) -> int:
        """Number of nodes at ``level`` (level 0 = counter blocks)."""
        self._check_level(level)
        return self.level_counts[level]

    def level_bytes(self, level: int) -> int:
        """Total bytes occupied by one level's node array."""
        self._check_level(level)
        return self.level_counts[level] * self.node_size

    def level_sizes(self) -> list[int]:
        """Bytes per level, leaf first — Section IV-E's pinning budget table."""
        return [count * self.node_size for count in self.level_counts]

    def total_bytes(self) -> int:
        """Total untrusted bytes for the whole tree (Section VI-D4 analysis)."""
        return sum(self.level_sizes())

    # -- address arithmetic ------------------------------------------------------

    def counter_slot(self, counter_id: int) -> tuple[int, int]:
        """Map a counter id to (leaf node index, byte offset inside node)."""
        if not 0 <= counter_id < self.n_counters:
            raise IndexError(f"counter id {counter_id} out of range")
        node, slot = divmod(counter_id, self.arity)
        return node, slot * COUNTER_SIZE

    def parent_of(self, level: int, index: int) -> tuple[int, int, int]:
        """Return (parent level, parent index, byte offset of our MAC slot)."""
        self._check_level(level)
        if level == self.top_level:
            raise IndexError(f"level {level} node has no parent node (root above)")
        parent_index, slot = divmod(index, self.arity)
        return level + 1, parent_index, slot * MAC_SIZE

    def children_of(self, level: int, index: int) -> range:
        """Child node indices at ``level - 1`` covered by this node."""
        self._check_level(level)
        if level == 0:
            raise IndexError("level-0 nodes have counters, not child nodes")
        first = index * self.arity
        last = min(first + self.arity, self.level_counts[level - 1])
        return range(first, last)

    def pinned_bytes(self, pin_levels: int) -> int:
        """EPC bytes needed to pin the top ``pin_levels`` node levels."""
        if pin_levels < 0 or pin_levels > self.n_levels:
            raise ConfigurationError(
                f"pin_levels must be in [0, {self.n_levels}], got {pin_levels}"
            )
        first = self.n_levels - pin_levels
        return sum(self.level_counts[first:]) * self.node_size

    def pinned_level_set(self, pin_levels: int) -> frozenset:
        """The set of levels covered when pinning the top ``pin_levels``."""
        top = self.top_level
        return frozenset(top - i for i in range(min(pin_levels, self.n_levels)))
