"""The redirection layer and counter-area management (paper Section V-C).

Aria decouples security metadata from the index: every KV pair owns a
**redirection pointer** (RedPtr) naming one encryption counter; the counters
are what the Merkle tree + Secure Cache protect.  This module manages the
counter space:

* A **circular buffer in untrusted memory** records the ids of free counters
  (free-list content is cheap, bulky and non-secret — perfect for untrusted
  memory), with its head/tail cursors in the EPC.
* A **bitmap in the EPC** records true occupancy.  A fetched "free" counter
  whose bitmap bit is already set means the untrusted buffer was attacked
  (:class:`repro.errors.CounterReuseError`).
* When a counter area is exhausted, a **new Merkle tree** is built over a
  fresh counter area (MT expansion, Section V-A) and ids continue in a new range.

RedPtr encoding: ``area_index * area_capacity_stride + local_counter_id``.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from typing import Optional

from repro.cache.secure_cache import SecureCache
from repro.core.config import AriaConfig
from repro.errors import CapacityError, CounterReuseError, IntegrityError
from repro.merkle.layout import MerkleLayout
from repro.merkle.tree import MerkleTree
from repro.sgx.enclave import Enclave

_ID_BYTES = 8
#: Stride between area id ranges (supports areas up to 2^40 counters).
_AREA_STRIDE = 1 << 40


@dataclass
class _CounterArea:
    """One counter region: its Merkle tree, Secure Cache, and free bookkeeping."""

    tree: MerkleTree
    cache: SecureCache
    capacity: int
    ring_addr: int                 # untrusted circular buffer of free ids
    bitmap: bytearray              # EPC-resident occupancy bitmap
    head: int = 0                  # EPC-resident cursors
    tail: int = 0
    n_free: int = 0


class CounterManager:
    """Fetches, verifies, increments and frees encryption counters."""

    EPC_CONSUMER = "counter_bitmap"

    def __init__(self, enclave: Enclave, config: AriaConfig):
        """Build the first counter area.

        ``config`` is the store's own object: each area's Secure Cache,
        expansion areas included, reads its knobs from it when built.
        """
        self._enclave = enclave
        self._config = config
        self._rng = random.Random(config.seed)
        self._areas: list[_CounterArea] = []
        self._add_area(config.initial_counters, config.secure_cache_bytes)

    # -- area management ---------------------------------------------------------

    def _add_area(self, n_counters: int, cache_bytes: int) -> None:
        """Build a fresh counter area: new MT + Secure Cache + free ring."""
        layout = MerkleLayout(n_counters=n_counters,
                              arity=self._config.merkle_arity)
        tree = MerkleTree(self._enclave, layout, rng=self._rng)
        cache = SecureCache(self._enclave, tree, capacity_bytes=cache_bytes,
                            config=self._config)
        ring_addr = self._enclave.untrusted.alloc(n_counters * _ID_BYTES)
        bitmap = bytearray((n_counters + 7) // 8)
        self._enclave.epc.reserve(self.EPC_CONSUMER, len(bitmap))
        area = _CounterArea(
            tree=tree,
            cache=cache,
            capacity=n_counters,
            ring_addr=ring_addr,
            bitmap=bitmap,
            n_free=n_counters,
        )
        # Seed the ring with every local id, in order: one write of the
        # packed little-endian ids, not one per counter.
        self._enclave.untrusted.write(
            ring_addr, struct.pack(f"<{n_counters}Q", *range(n_counters)))
        area.tail = 0  # next pop position
        area.head = 0  # next push position (ring full at start)
        self._areas.append(area)
        self._enclave.meter.count("mt_expansion")

    def _split(self, red_ptr: int) -> tuple[_CounterArea, int]:
        area_index, local_id = divmod(red_ptr, _AREA_STRIDE)
        if area_index >= len(self._areas):
            raise IntegrityError(f"RedPtr {red_ptr:#x} names a nonexistent area")
        area = self._areas[area_index]
        if local_id >= area.capacity:
            raise IntegrityError(f"RedPtr {red_ptr:#x} out of area range")
        return area, local_id

    @property
    def n_areas(self) -> int:
        return len(self._areas)

    @property
    def areas(self) -> list:
        """The underlying areas (read-only use: stats, attack fixtures)."""
        return self._areas

    # -- fetch / free --------------------------------------------------------------

    def fetch(self) -> int:
        """Pop a free counter id; expands with a new MT when exhausted."""
        area_index = None
        for i, area in enumerate(self._areas):
            if area.n_free:
                area_index = i
                break
        if area_index is None:
            config = self._config
            self._add_area(
                config.expansion_counters or config.initial_counters,
                config.expansion_cache_bytes or config.secure_cache_bytes)
            area_index = len(self._areas) - 1
        area = self._areas[area_index]
        # Pop from the untrusted ring at the head cursor.
        self._enclave.epc_touch(8)  # head cursor
        local_id = int.from_bytes(
            self._enclave.read_untrusted(
                area.ring_addr + area.tail * _ID_BYTES, _ID_BYTES
            ),
            "little",
        )
        if local_id >= area.capacity:
            raise CounterReuseError(
                f"free ring returned invalid counter id {local_id}"
            )
        self._enclave.epc_touch(1)  # bitmap check
        if area.bitmap[local_id >> 3] & (1 << (local_id & 7)):
            raise CounterReuseError(
                f"free ring returned in-use counter {local_id}: attack detected"
            )
        area.bitmap[local_id >> 3] |= 1 << (local_id & 7)
        area.tail = (area.tail + 1) % area.capacity
        area.n_free -= 1
        return area_index * _AREA_STRIDE + local_id

    def free(self, red_ptr: int) -> None:
        """Return a counter to its area's free ring."""
        area, local_id = self._split(red_ptr)
        byte_index, bit = divmod(local_id, 8)
        self._enclave.epc_touch(1)
        if not area.bitmap[byte_index] & (1 << bit):
            raise CounterReuseError(f"freeing counter {local_id} that is not in use")
        area.bitmap[byte_index] &= ~(1 << bit)
        if area.n_free >= area.capacity:
            raise CapacityError("counter free ring overflow")
        self._enclave.epc_touch(8)  # tail cursor
        self._enclave.write_untrusted(
            area.ring_addr + area.head * _ID_BYTES,
            local_id.to_bytes(_ID_BYTES, "little"),
        )
        area.head = (area.head + 1) % area.capacity
        area.n_free += 1

    def is_used(self, red_ptr: int) -> bool:
        area, local_id = self._split(red_ptr)
        byte_index, bit = divmod(local_id, 8)
        return bool(area.bitmap[byte_index] & (1 << bit))

    # -- counter access (verified through the Secure Cache) --------------------------

    def set_tenant_owner(self, owner: Optional[str]) -> None:
        """Attribute subsequent cache activity to a tenant owner token.

        The store calls this at the top of every op (only when tenancy is
        armed); every area's Secure Cache shares the same owner context.
        """
        for area in self._areas:
            area.cache.set_owner(owner)

    def retarget_tenant_quotas(self) -> None:
        """Re-partition every area's Secure Cache for the config's quota map.

        The store updates ``config.tenant_quotas`` first; expansion areas
        built later read the same field.
        """
        for area in self._areas:
            area.cache.retarget_quotas(self._config.tenant_quotas)

    # ``read_counter`` and ``increment_counter`` spell ``_split`` inline
    # (same two checks): every Get and every Put passes through one of them.

    def read_counter(self, red_ptr: int) -> bytes:
        area_index = red_ptr // _AREA_STRIDE
        if area_index >= len(self._areas):
            raise IntegrityError(f"RedPtr {red_ptr:#x} names a nonexistent area")
        area = self._areas[area_index]
        local_id = red_ptr % _AREA_STRIDE
        if local_id >= area.capacity:
            raise IntegrityError(f"RedPtr {red_ptr:#x} out of area range")
        return area.cache.read_counter(local_id)

    def increment_counter(self, red_ptr: int) -> bytes:
        area_index = red_ptr // _AREA_STRIDE
        if area_index >= len(self._areas):
            raise IntegrityError(f"RedPtr {red_ptr:#x} names a nonexistent area")
        area = self._areas[area_index]
        local_id = red_ptr % _AREA_STRIDE
        if local_id >= area.capacity:
            raise IntegrityError(f"RedPtr {red_ptr:#x} out of area range")
        return area.cache.increment_counter(local_id)

    # -- reporting ----------------------------------------------------------------------

    def cache_stats(self) -> dict:
        """Aggregated Secure Cache statistics across areas."""
        totals: dict = {"hits": 0, "misses": 0, "evictions": 0,
                        "writebacks": 0, "clean_discards": 0}
        for area in self._areas:
            stats = area.cache.stats
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["evictions"] += stats.evictions
            totals["writebacks"] += stats.writebacks
            totals["clean_discards"] += stats.clean_discards
        accesses = totals["hits"] + totals["misses"]
        totals["hit_ratio"] = totals["hits"] / accesses if accesses else 0.0
        # Tenancy rows only when armed: an unarmed store's report stays
        # byte-identical to the pre-tenancy shape.
        tenant_rows = [
            row for row in
            (area.cache.tenant_stats() for area in self._areas)
            if row is not None
        ]
        if tenant_rows:
            occupancy: dict = {}
            for row in tenant_rows:
                for owner, count in row["occupancy"].items():
                    occupancy[owner] = occupancy.get(owner, 0) + count
            totals["tenant_evict_denials"] = sum(
                row["denials"] for row in tenant_rows)
            totals["tenant_occupancy"] = occupancy
        return totals

    def reset_stats(self) -> None:
        """Zero every area's cache counters (between load and run phases)."""
        for area in self._areas:
            area.cache.stats.reset_counts()

    def primary_cache(self) -> SecureCache:
        return self._areas[0].cache
