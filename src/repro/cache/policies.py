"""Eviction policies for Secure Cache (paper Section IV-E, Fig 12).

The paper's observation (citing "It's time to revisit LRU vs. FIFO"): when
the cache is large and lives in the EPC — where memory operations are more
expensive than in regular DRAM — the *hit penalty* of maintaining recency
metadata dominates.  FIFO touches nothing on a hit; LRU pays list surgery in
EPC on every hit.  Each policy reports its per-hit EPC metadata accesses so
the enclave can charge them (that is how "+FIFO beats +HeapAlloc/LRU" in
Fig 12 materializes).

A policy keeps no list of its own: it reads, and may reorder, the Secure
Cache's one table — an ``OrderedDict`` of the resident nodes, to which the
cache appends on insert and from which it deletes on removal.  That order is
the whole state of FIFO and LRU, and CLOCK adds only its reference bits.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import AbstractSet, Callable, Hashable, Optional

from repro.errors import AriaError

Key = Hashable


class EvictionPolicy:
    """Victim order over the cache's table; reports the hit penalty.

    ``on_hit`` is what a hit calls with the key, or ``None`` when a hit
    leaves the order alone.  The base order is the table's own: oldest
    first.
    """

    name = "abstract"
    #: EPC memory operations performed on a cache hit (charged by the cache).
    hit_metadata_ops = 0

    def __init__(self, table: OrderedDict) -> None:
        self._table = table
        self.on_hit: Optional[Callable[[Key], None]] = None

    def victim(self, locked: AbstractSet[Key]) -> Optional[Key]:
        """The first key in table order not in ``locked`` (None if none).

        ``locked`` is only tested for membership, never copied: the cache
        builds it once per eviction.
        """
        for key in self._table:
            if key not in locked:
                return key
        return None


class FifoPolicy(EvictionPolicy):
    """First-in first-out: zero metadata work on hits (Aria's choice)."""

    name = "fifo"


class LruPolicy(EvictionPolicy):
    """Least-recently-used: list surgery in the EPC on every hit.

    ``hit_metadata_ops = 3`` models the doubly-linked-list unlink/relink
    (predecessor, successor, and head pointer updates), each an EPC access.
    A hit moves its key to the back of the table.
    """

    name = "lru"
    hit_metadata_ops = 3

    def __init__(self, table: OrderedDict) -> None:
        super().__init__(table)
        self.on_hit = table.move_to_end


class ClockPolicy(EvictionPolicy):
    """CLOCK (second chance): one reference-bit write per hit.

    The midpoint between FIFO (free hits, no recency) and LRU (full recency,
    three EPC list operations per hit): a hit sets one bit, and the victim
    scan gives referenced entries a second chance.  Included as an extension
    ablation — the paper compares only FIFO and LRU.  The table's order is
    the clock's ring; the scan rotates what it passes over to the back.
    """

    name = "clock"
    hit_metadata_ops = 1

    def __init__(self, table: OrderedDict) -> None:
        super().__init__(table)
        self._referenced: set = set()
        self.on_hit = self._referenced.add

    def victim(self, locked: AbstractSet[Key]) -> Optional[Key]:
        table = self._table
        referenced = self._referenced
        # Bound the scan: each entry is visited at most twice (once to
        # clear its bit, once to claim it).
        for _ in range(2 * len(table) + 1):
            key = next(iter(table), None)
            if key is None:
                return None
            if key in locked:
                table.move_to_end(key)
            elif key in referenced:
                referenced.discard(key)
                table.move_to_end(key)
            else:
                return key
        return None


class TenantPartition:
    """Per-tenant occupancy bookkeeping for a partitioned Secure Cache.

    The multi-tenant front door (ARCHITECTURE §16) turns cache occupancy
    into a per-principal resource: each tenant with a quota is guaranteed
    ``max(1, int(max_entries * fraction))`` entries that *other* tenants'
    misses cannot evict.  The mechanism is deliberately thin — the
    partition does not choose victims, it computes the set of **protected
    keys** that gets unioned into the eviction policy's ``locked`` set, so
    every policy (FIFO/LRU/CLOCK) honors quotas without knowing they
    exist.

    Ownership is attributed per insert: the entry belongs to whichever
    tenant's operation caused it to be cached (``current_owner``, set by
    the store before each op).  Anonymous inserts (owner ``None``) are
    never protected.  A tenant *over* its quota is fair game for everyone
    — the guarantee is a floor, not a fence, so idle capacity still flows
    to whoever is hot.
    """

    def __init__(self, quotas: dict, max_entries: int):
        self._quota_entries = {
            owner: max(1, int(max_entries * fraction))
            for owner, fraction in quotas.items()
        }
        self._owner_of: dict = {}
        self._owner_keys: dict = {}
        self.current_owner: "str | None" = None

    def quota_entries(self, owner: str) -> Optional[int]:
        return self._quota_entries.get(owner)

    def retarget(self, quotas: dict, max_entries: int) -> None:
        """Adopt a new quota map live (roster/topology re-partitioning).

        Only the guaranteed-floor table is rebuilt; ownership attribution
        (``_owner_of``/``_owner_keys``) survives, so entries cached under
        the old roster keep their owners — a departed tenant's entries
        simply lose their floor and become ordinary eviction candidates.
        """
        self._quota_entries = {
            owner: max(1, int(max_entries * fraction))
            for owner, fraction in quotas.items()
        }

    @property
    def quotas(self) -> dict:
        """Owner token -> guaranteed entry count (a copy)."""
        return dict(self._quota_entries)

    def on_insert(self, key: Key) -> None:
        owner = self.current_owner
        if owner is None:
            return
        self._owner_of[key] = owner
        self._owner_keys.setdefault(owner, set()).add(key)

    def on_remove(self, key: Key) -> None:
        owner = self._owner_of.pop(key, None)
        if owner is not None:
            self._owner_keys[owner].discard(key)

    def occupancy(self) -> dict:
        """Live entry count per owner token (empty owners omitted)."""
        return {owner: len(keys)
                for owner, keys in self._owner_keys.items() if keys}

    def protected_keys(self) -> set:
        """Keys the *current* owner's eviction pressure must not touch.

        A tenant's entries are protected while it holds no more than its
        quota; its own evictions are never blocked by its own quota (a
        tenant may always churn its own slice).
        """
        current = self.current_owner
        protected: set = set()
        for owner, quota in self._quota_entries.items():
            if owner == current:
                continue
            keys = self._owner_keys.get(owner)
            if keys and len(keys) <= quota:
                protected |= keys
        return protected


_POLICIES = {"fifo": FifoPolicy, "lru": LruPolicy, "clock": ClockPolicy}


def make_policy(name: str, table: OrderedDict) -> EvictionPolicy:
    """The policy called ``name``, ordering ``table``."""
    try:
        return _POLICIES[name](table)
    except KeyError:
        raise AriaError(
            f"unknown eviction policy {name!r}; choose from {sorted(_POLICIES)}"
        ) from None
