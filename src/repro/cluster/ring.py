"""Consistent-hash request routing across shards (the cluster front door).

Classic Karger-style ring with virtual nodes: every shard owns ``vnodes``
points on a 64-bit circle, and a key is served by the owner of the first
point at or after the key's hash.  Properties the cluster relies on (and
``tests/test_cluster_ring.py`` verifies):

* **Deterministic** — placement is a pure function of the shard ids and
  vnode counts (``blake2b``, never Python's salted ``hash``), so every
  front door, and every restart, routes identically.
* **Balanced** — with >= 128 vnodes per shard the max/min key-load ratio
  stays small even though individual arcs vary wildly.
* **Minimal remap** — adding a shard moves only the keys that fall into
  the new shard's arcs (~``1/(N+1)`` of them); no key moves between two
  surviving shards.

The balancer reshapes load by *moving vnodes between shards*
(:meth:`HashRing.move_vnodes`): reassigning an arc from a hot shard to a
cold one is exactly a key-range migration, and only keys in the moved
arcs change owner.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, Iterable, List, Mapping, Union

# Tenant key namespaces (ARCHITECTURE §16): the front door relocates every
# tenant's keys behind a fixed-length prefix *before* they reach the ring,
# so one consistent-hash circle serves disjoint per-tenant namespaces —
# re-exported here because prefixing is part of the routing contract.
from repro.core.tenant import (  # noqa: F401  (re-exports)
    TENANT_PREFIX_LEN,
    owner_token_of,
    prefixed_key,
    strip_prefix,
    tenant_prefix,
    tenant_token,
)


def ring_hash(data: bytes) -> int:
    """The ring's 64-bit position hash (stable across processes)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(),
                          "big")


#: Vnode counts: one int for all shards, or an explicit per-shard mapping
#: (the benchmarks use a skewed mapping to stage a hot shard on purpose).
VnodeSpec = Union[int, Mapping[str, int]]

DEFAULT_VNODES = 128

#: Keys :meth:`HashRing.route` remembers between ring changes; past it the
#: memo starts over, so it never holds more than this many keys.
ROUTE_MEMO_KEYS = 1 << 14


class HashRing:
    """Consistent-hash ring mapping keys to shard ids."""

    def __init__(self, shard_ids: Iterable[str], *,
                 vnodes: VnodeSpec = DEFAULT_VNODES):
        self._owner: Dict[int, str] = {}       # point -> shard id
        self._points: List[int] = []           # sorted ring positions
        self._owners: List[str] = []           # parallel to _points
        shard_ids = list(shard_ids)
        if not shard_ids:
            raise ValueError("a ring needs at least one shard")
        if len(set(shard_ids)) != len(shard_ids):
            raise ValueError("duplicate shard ids")
        for shard_id in shard_ids:
            self.add_shard(shard_id, vnodes=self._count_for(shard_id, vnodes))

    @staticmethod
    def _count_for(shard_id: str, vnodes: VnodeSpec) -> int:
        if isinstance(vnodes, int):
            return vnodes
        return vnodes[shard_id]

    # -- membership -------------------------------------------------------------

    def add_shard(self, shard_id: str, *, vnodes: int = DEFAULT_VNODES) -> None:
        """Claim ``vnodes`` new points for ``shard_id`` (minimal remap)."""
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        if any(owner == shard_id for owner in self._owner.values()):
            raise ValueError(f"shard {shard_id!r} already on the ring")
        for i in range(vnodes):
            point = ring_hash(b"%s#%d" % (shard_id.encode(), i))
            # 64-bit collisions are ~impossible, but placement must stay
            # deterministic even then: probe with a replica suffix.
            probe = 0
            while point in self._owner:
                probe += 1
                point = ring_hash(b"%s#%d/%d" % (shard_id.encode(), i, probe))
            self._owner[point] = shard_id
        self._rebuild()

    def remove_shard(self, shard_id: str) -> None:
        points = [p for p, owner in self._owner.items() if owner == shard_id]
        if not points:
            raise KeyError(shard_id)
        if len(points) == len(self._owner):
            raise ValueError("cannot remove the last shard")
        for point in points:
            del self._owner[point]
        self._rebuild()

    def move_vnodes(self, src: str, dst: str, count: int) -> int:
        """Reassign up to ``count`` of ``src``'s vnodes to ``dst``.

        Moves the lowest-positioned vnodes first (deterministic), and
        returns how many actually moved.  Keys in the moved arcs — and only
        those — now route to ``dst``; the caller (the balancer) is
        responsible for migrating the data itself.
        """
        if src == dst:
            return 0
        if dst not in self.shards():
            raise KeyError(dst)
        src_points = sorted(p for p, owner in self._owner.items()
                            if owner == src)
        if not src_points:
            raise KeyError(src)
        # Never strip a shard bare: it must keep at least one vnode so the
        # ring stays total over its members.
        movable = src_points[: max(0, min(count, len(src_points) - 1))]
        for point in movable:
            self._owner[point] = dst
        if movable:
            self._rebuild()
        return len(movable)

    def copy(self) -> "HashRing":
        """An independent clone with identical point ownership.

        Point-for-point, not count-for-count: vnodes moved by
        :meth:`move_vnodes` keep their (reassigned) positions, so a clone
        routes every key exactly like the original.  The reconfiguration
        engine plans against a clone (the *target* ring) while the
        original keeps serving, then swaps atomically at cutover.
        """
        clone = HashRing.__new__(HashRing)
        clone._owner = dict(self._owner)
        clone._rebuild()
        return clone

    # -- routing ----------------------------------------------------------------

    def route(self, key: bytes) -> str:
        """The shard id serving ``key``.

        A key routed since the ring last changed is one dict read: the
        hash and the search run once per key, not once per request.
        """
        shard_id = self._routes.get(key)
        if shard_id is None:
            if len(self._routes) >= ROUTE_MEMO_KEYS:
                self._routes.clear()
            # Past the last point wraps to the first: it owns the top arc.
            shard_id = self._routes[key] = self._owners[bisect.bisect_right(
                self._points, ring_hash(key)) % len(self._points)]
        return shard_id

    # -- introspection ----------------------------------------------------------

    def shards(self) -> List[str]:
        """Member shard ids, sorted."""
        return sorted(set(self._owner.values()))

    def vnode_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for owner in self._owner.values():
            counts[owner] = counts.get(owner, 0) + 1
        return counts

    def __len__(self) -> int:
        return len(self._points)

    def _rebuild(self) -> None:
        """Every change of ownership ends here, so the route memo is
        dropped here too."""
        self._points = sorted(self._owner)
        self._owners = [self._owner[p] for p in self._points]
        self._routes: Dict[bytes, str] = {}
