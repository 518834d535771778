"""Secure Cache: software-managed, fine-grained MT-node caching in the EPC.

This is the paper's core contribution (Section IV).  Instead of hardware secure
paging (4 KB pages mixing hot and cold metadata) or ShieldStore's per-bucket
trees (bucket-granularity verification on every request), Secure Cache tracks
*individual Merkle-tree nodes*:

* **Hit path** — if the leaf node holding a counter is cached (or its level is
  pinned), the counter is trusted immediately: KV-pair-granularity protection
  with zero MT verification.
* **Caching (miss path)** — the node is read from untrusted memory and
  verified along its path *up to the first cached/pinned ancestor* (or the
  EPC-resident root), then inserted.  Only the requested node is inserted;
  ancestors are verified transiently (Section IV-B's walkthrough).
* **Eviction** — a victim chosen by the policy (FIFO by default) is written
  back only if dirty: its fresh MAC is propagated into its parent (swapping
  the parent in if needed, exactly as Section IV-B describes), and the node body
  returns to untrusted memory **in plaintext** (semantic-aware optimization:
  integrity suffices for metadata, skip the encryption SGX paging would
  force).  Clean victims are discarded with no write-back at all (the second
  optimization — impossible with SGX's EWB).
* **Level pinning** — the top-k levels live permanently in the EPC, bounding
  the worst-case verification depth at O(h-k-1) (Section IV-E).
* **Stop-swap** — when the windowed hit ratio drops below 70 % (uniform
  workloads), swapping stops: the cache flushes, its EPC space is repurposed
  to pin as many upper levels as fit, and every access verifies the leaf
  against the pinned layer transiently.

The invariant behind the proof sketch (Section IV-B): *the newest information of
every leaf always resides in at least one EPC-resident node* — a cached
dirty node, a pinned node holding its fresh MAC, or the root.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Optional

from repro.errors import AriaError, ConfigurationError, ReplayError
from repro.merkle.layout import COUNTER_SIZE, MAC_SIZE
from repro.merkle.tree import MerkleTree
from repro.cache.policies import EvictionPolicy, TenantPartition, make_policy
from repro.cache.stats import CacheStats
from repro.sgx.enclave import Enclave

if TYPE_CHECKING:
    from repro.core.config import AriaConfig

#: Modeled per-entry cache metadata resident in EPC: an 8-byte packed
#: (level, index) key, a FIFO queue slot, and the dirty bit.  Bigger MT
#: nodes amortize this better — the space-utilization effect that makes
#: throughput rise with arity in Fig 15.
ENTRY_METADATA_BYTES = 16

NodeKey = tuple  # (level, index)


class SecureCache:
    """EPC-resident cache of Merkle-tree nodes with verified swap-in/out."""

    EPC_CACHE = "secure_cache"
    EPC_PINNED = "mt_pinned"

    def __init__(
        self,
        enclave: Enclave,
        tree: MerkleTree,
        *,
        capacity_bytes: int,
        config: "AriaConfig",
    ):
        # Every knob is the store's AriaConfig field of the same meaning,
        # read once here; only ``retarget_quotas`` changes one later.
        self._enclave = enclave
        self._tree = tree
        layout = tree.layout
        # Geometry the miss path needs several times per op, read once.
        self._n_counters = layout.n_counters
        self._arity = layout.arity
        self._node_size = layout.node_size
        self._top_level = layout.top_level
        pin_levels = min(config.pin_levels, layout.n_levels)
        self._pinned_levels = layout.pinned_level_set(pin_levels)
        self._capacity_bytes = capacity_bytes
        self._entry_footprint = layout.node_size + ENTRY_METADATA_BYTES
        self.max_entries = max(0, capacity_bytes // self._entry_footprint)
        # The one table: resident node -> its EPC bytes, in the order the
        # policy evicts (appended on insert).  Dirty nodes are also in
        # ``_dirty``.
        self._table: OrderedDict[NodeKey, bytearray] = OrderedDict()
        self._dirty: set[NodeKey] = set()
        self._policy: EvictionPolicy = make_policy(config.eviction_policy,
                                                   self._table)
        self._on_hit = self._policy.on_hit
        # Hit penalty: the policy's EPC metadata operations (Section IV-E).
        # Policy and cost model are fixed for the cache's life.
        self._hit_cost = (self._policy.hit_metadata_ops
                          * enclave.costs.access_cost(16, in_epc=True))
        self.stats = CacheStats(window=config.stop_swap_window,
                                threshold=config.stop_swap_threshold,
                                patience=config.stop_swap_patience)
        self._stop_swap_enabled = config.stop_swap_enabled
        self._swap_encrypt = config.swap_encrypt
        self._writeback_clean = config.writeback_clean
        # Multi-tenant partitioning (ARCHITECTURE §16): armed only when the
        # config carries quotas, so single-tenant stores pay nothing — not
        # even a branch on the insert fast path beyond one None check.
        quotas = config.tenant_quotas
        self._partition = (TenantPartition(quotas, self.max_entries)
                           if quotas else None)
        self.tenant_denials = 0
        self.swapping = self.max_entries > 0

        enclave.epc.reserve(self.EPC_CACHE, capacity_bytes)
        pinned_bytes = layout.pinned_bytes(pin_levels)
        enclave.epc.reserve(self.EPC_PINNED, pinned_bytes)
        self._pinned_reserved = pinned_bytes
        self._pinned: dict[int, list[bytearray]] = {}
        self._pin_levels_now(self._pinned_levels)

    # -- properties -----------------------------------------------------------

    @property
    def pinned_levels(self) -> frozenset:
        return frozenset(self._pinned_levels)

    @property
    def cached_nodes(self) -> int:
        return len(self._table)

    def is_cached(self, level: int, index: int) -> bool:
        return (level, index) in self._table

    def set_owner(self, owner: Optional[str]) -> None:
        """Attribute subsequent inserts/evictions to a tenant owner token.

        No-op unless the cache was built with ``tenant_quotas`` — the
        store calls this before every op, so the unarmed path must stay
        free.
        """
        if self._partition is not None:
            self._partition.current_owner = owner

    def retarget_quotas(self, quotas: Optional[dict]) -> None:
        """Re-partition live for a new quota map (§16's follow-on).

        ``None``/empty disarms; a map arms (or re-arms) with floors
        recomputed against this cache's entry capacity.  Cached entries
        and their ownership attribution survive either way.
        """
        if not quotas:
            self._partition = None
            return
        if self._partition is None:
            self._partition = TenantPartition(quotas, self.max_entries)
        else:
            self._partition.retarget(quotas, self.max_entries)

    # -- pinning ----------------------------------------------------------------

    def _pin_levels_now(self, levels: frozenset) -> None:
        """Load the given levels into the EPC, verified top-down.

        The top level checks against the root; every lower pinned node checks
        against its (already pinned) parent, so a tampered tree cannot sneak
        into the pinned store.
        """
        tree = self._tree
        arity = self._arity
        for level in sorted(levels, reverse=True):
            nodes: list[bytearray] = []
            for index in range(tree.layout.nodes_at_level(level)):
                node = tree.read_node(level, index)
                if level == self._top_level:
                    tree.check_against_root(node)
                else:
                    parent = self._trusted_node_view(level + 1, index // arity)
                    if parent is None:
                        # Parent level not pinned: fall back to path verify.
                        self._verified_node_bytes(level, index)
                    else:
                        offset = index % arity * MAC_SIZE
                        if tree.node_mac(node) != parent[offset : offset + MAC_SIZE]:
                            raise ReplayError(
                                f"pinned node (level {level}, {index}) failed "
                                "verification during pinning"
                            )
                nodes.append(bytearray(node))
            self._pinned[level] = nodes

    # -- trusted node lookup -------------------------------------------------------

    def _trusted_node_view(self, level: int, index: int) -> Optional[bytearray]:
        """Return EPC-resident bytes for a node, or None if not resident.

        Does not update policy metadata — used for ancestor lookups during
        verification, where the paper stops the walk at the first cached node.
        """
        if level in self._pinned:
            self._enclave.epc_touch(MAC_SIZE)
            return self._pinned[level][index]
        data = self._table.get((level, index))
        if data is not None:
            self._enclave.epc_touch(MAC_SIZE)
        return data

    # -- transient verification (Section IV-B caching walkthrough) ----------------------

    # Everything from here to ``increment_counter`` is the miss path: a
    # uniform or write-heavy request runs it about once per op, so it is
    # written the way the hit path is (ARCHITECTURE "Host-time hot path"):
    # geometry from the constants bound in ``__init__``, parent arithmetic
    # and the EPC-residency lookup spelled inline (``_trusted_node_view``
    # stays the definition), events counted in place.  What the paper
    # counts is still *called*, one at a time and in program order:
    # ``MerkleTree.read_node/write_node/node_mac`` and ``Enclave.epc_touch``.

    def _verified_node_bytes(self, level: int, index: int) -> bytes:
        """Read a node from untrusted memory, verified up to the first
        EPC-resident ancestor (cached, pinned, or the root).

        One walk, two phases.  *Up*: read and MAC each node until an
        EPC-resident ancestor — or the root check — vouches for the chain.
        *Down*: compare each computed MAC with its parent's slot, topmost
        first.  That is the order the recursive definition (verify the
        parent, then compare against it) charges, compares and raises in:
        when two levels are bad, the error names the upper one.
        """
        tree = self._tree
        top_level = self._top_level
        node = tree.read_node(level, index)
        if level == top_level:
            tree.check_against_root(node)
            return node
        arity = self._arity
        pinned = self._pinned
        table = self._table
        unverified = []  # (level, index, computed MAC, bytes), leaf-most first
        while True:
            unverified.append((level, index, tree.node_mac(node), node))
            level += 1
            index //= arity
            if level in pinned:
                self._enclave.epc_touch(MAC_SIZE)
                parent = pinned[level][index]
                break
            parent = table.get((level, index))
            if parent is not None:
                self._enclave.epc_touch(MAC_SIZE)
                break
            node = tree.read_node(level, index)
            if level == top_level:
                tree.check_against_root(node)
                parent = node
                break
        for level, index, computed, node in reversed(unverified):
            offset = index % arity * MAC_SIZE
            if computed != parent[offset : offset + MAC_SIZE]:
                raise ReplayError(
                    f"Merkle node (level {level}, index {index}) failed "
                    "verification: replay or tampering detected"
                )
            parent = node
        return node

    # -- insertion and eviction -------------------------------------------------------

    def _insert(self, key: NodeKey, data: bytearray, dirty: bool,
                locked: Optional[frozenset] = None) -> Optional[bytearray]:
        """Place a verified node into the cache, evicting as needed.

        ``locked`` holds the keys of the evictions this insert is nested in
        (``None`` at the top of an op).  Returns the resident bytes, or None
        if no victim could be freed (tiny caches).
        """
        table = self._table
        if key in table:
            raise AriaError(f"duplicate insert of {key!r}")
        if len(table) >= self.max_entries:
            # The locked set exists only when an eviction actually happens.
            locked = frozenset((key,)) if locked is None else locked | {key}
            while True:
                if not self._evict_one(locked):
                    return None
                if key in table:
                    # A nested eviction inserted this very node (e.g. two
                    # dirty leaves sharing a parent).  The nested copy is
                    # fresher — it already absorbed the sibling's MAC — so
                    # use it as-is.
                    return table[key]
                if len(table) < self.max_entries:
                    break
        table[key] = data
        if dirty:
            self._dirty.add(key)
        if self._partition is not None:
            self._partition.on_insert(key)
        self._enclave.epc_touch(self._node_size)
        return data

    def _evict_one(self, locked: frozenset, *, partition: bool = True) -> bool:
        """Evict one victim; returns False if everything is locked.

        With tenancy armed, other tenants' within-quota entries join the
        locked set (see :class:`~repro.cache.policies.TenantPartition`);
        an eviction that fails *because of that protection* is counted as
        a denial — the caller falls back to the untrusted write-through
        path, so the over-quota tenant pays the slowdown, not the victim.
        ``partition=False`` bypasses protection for whole-cache flushes
        (stop-swap), which are not cross-tenant pressure.
        """
        meter = self._enclave.meter
        if partition and self._partition is not None:
            protected = self._partition.protected_keys()
            victim = self._policy.victim(
                locked | protected if protected else locked)
            if victim is None and protected:
                self.tenant_denials += 1
                meter.count("tenant_evict_denied")
                owner = self._partition.current_owner
                if owner is not None:
                    meter.count(f"tenant_evict_denied:{owner}")
                return False
        else:
            victim = self._policy.victim(locked)
        if victim is None:
            return False
        data = self._table.pop(victim)
        if self._partition is not None:
            self._partition.on_remove(victim)
        self.stats.evictions += 1
        if meter.enabled:
            meter.events["cache_evict"] += 1
        dirty = self._dirty
        if victim in dirty:
            dirty.remove(victim)
            self._writeback(victim, data, locked)
        else:
            # Clean discard: no write-back at all.  SGX's EWB cannot do this
            # (Section IV-C); the ablation flag restores EWB-like behaviour.
            self.stats.clean_discards += 1
            if self._writeback_clean:
                body = bytes(data)
                if self._swap_encrypt:  # charged as in ``_writeback``
                    meter.charge_event("enc_bytes",
                                       self._enclave.costs.enc_cost(len(body)),
                                       len(body))
                self._tree.write_node(victim[0], victim[1], body)
        return True

    def _writeback(self, key: NodeKey, data: bytearray,
                   locked: frozenset) -> None:
        """Propagate a dirty victim's MAC to its parent, then write it out."""
        level, index = key
        tree = self._tree
        enclave = self._enclave
        body = bytes(data)  # the one copy: MAC input and write-out
        new_mac = tree.node_mac(body)
        if level == self._top_level:
            tree.set_root(new_mac)
        else:
            parent_level = level + 1
            parent_index = index // self._arity
            offset = index % self._arity * MAC_SIZE
            if parent_level in self._pinned:
                enclave.epc_touch(MAC_SIZE)
                parent = self._pinned[parent_level][parent_index]
            else:
                parent_key = (parent_level, parent_index)
                parent = self._table.get(parent_key)
                if parent is not None:
                    enclave.epc_touch(MAC_SIZE)
                else:
                    # Paper path: swap the parent in, then update the cached
                    # copy.  The victim has just left the table, so the
                    # parent takes its slot without an eviction: no lock
                    # and no tenant quota can refuse it.
                    parent = self._insert(
                        parent_key,
                        bytearray(self._verified_node_bytes(parent_level,
                                                            parent_index)),
                        False, locked | {key})
                self._dirty.add(parent_key)
            parent[offset : offset + MAC_SIZE] = new_mac
            enclave.epc_touch(MAC_SIZE)
        meter = enclave.meter
        if self._swap_encrypt:
            # Ablation: charge the encryption SGX paging would have forced.
            meter.charge_event("enc_bytes", enclave.costs.enc_cost(len(body)),
                               len(body))
        tree.write_node(level, index, body)  # plaintext by default
        self.stats.writebacks += 1
        if meter.enabled:
            meter.events["cache_writeback"] += 1

    def _propagate_mac_untrusted(self, level: int, index: int,
                                 slot_offset: int, child_mac: bytes) -> None:
        """Update an *uncached* ancestor chain in untrusted memory.

        Verifies each node before modifying it, updates the child-MAC slot,
        writes it back, and climbs until an EPC-resident node (pinned,
        cached, or the root) absorbs the change.
        """
        tree = self._tree
        arity = self._arity
        while True:
            resident = self._trusted_node_view(level, index)
            if resident is not None:
                resident[slot_offset : slot_offset + MAC_SIZE] = child_mac
                if (level, index) in self._table:
                    self._dirty.add((level, index))
                self._enclave.epc_touch(MAC_SIZE)
                return
            node = bytearray(self._verified_node_bytes(level, index))
            node[slot_offset : slot_offset + MAC_SIZE] = child_mac
            body = bytes(node)
            tree.write_node(level, index, body)
            child_mac = tree.node_mac(body)
            if level == self._top_level:
                tree.set_root(child_mac)
                return
            slot_offset = index % arity * MAC_SIZE
            level += 1
            index //= arity

    # -- the counter API used by Aria -----------------------------------------------

    # ``read_counter`` runs once per Get and twice per Put; its branches
    # (and ``write_counter``'s) are therefore written flat: slot arithmetic
    # with ``MerkleLayout.counter_slot``'s range check inline, and the
    # bookkeeping — ``CacheStats.record_hit``/``record_miss`` done in place,
    # ``cache_hit``/``cache_miss`` event, hit penalty, the policy's hit
    # hook (FIFO has none), EPC touch, in that order — without helper
    # calls.  A miss ends with the stop-swap test, spelled inline.

    def read_counter(self, counter_id: int) -> bytes:
        """Return the verified 16-byte counter for ``counter_id``."""
        if not 0 <= counter_id < self._n_counters:
            raise IndexError(f"counter id {counter_id} out of range")
        leaf_index = counter_id // self._arity
        offset = counter_id % self._arity * COUNTER_SIZE
        enclave = self._enclave
        if 0 in self._pinned:
            enclave.epc_touch(COUNTER_SIZE)
            node = self._pinned[0][leaf_index]
        else:
            key = (0, leaf_index)
            node = self._table.get(key)
            meter = enclave.meter
            stats = self.stats
            if node is not None:
                stats.hits += 1
                stats.window_left -= 1
                if not stats.window_left:
                    stats.close_window()
                if meter.enabled:
                    meter.events["cache_hit"] += 1
                    if self._hit_cost:
                        meter.cycles += self._hit_cost
                if self._on_hit is not None:
                    self._on_hit(key)
                enclave.epc_touch(COUNTER_SIZE)
            else:
                stats.misses += 1
                stats.window_left -= 1
                if not stats.window_left:
                    stats.close_window()
                if meter.enabled:
                    meter.events["cache_miss"] += 1
                node = self._verified_node_bytes(0, leaf_index)
                if self.swapping:
                    self._insert(key, bytearray(node), False)
                if (stats.stop_swap_recommended and self.swapping
                        and self._stop_swap_enabled):
                    self.stop_swapping()
        return bytes(node[offset : offset + COUNTER_SIZE])

    def write_counter(self, counter_id: int, value: bytes) -> None:
        """Store a new counter value, keeping the MT consistent."""
        if len(value) != COUNTER_SIZE:
            raise ConfigurationError(f"counter must be {COUNTER_SIZE} bytes")
        if not 0 <= counter_id < self._n_counters:
            raise IndexError(f"counter id {counter_id} out of range")
        leaf_index = counter_id // self._arity
        offset = counter_id % self._arity * COUNTER_SIZE
        enclave = self._enclave
        if 0 in self._pinned:
            node = self._pinned[0][leaf_index]
            node[offset : offset + COUNTER_SIZE] = value
            enclave.epc_touch(COUNTER_SIZE)
            return
        key = (0, leaf_index)
        node = self._table.get(key)
        meter = enclave.meter
        stats = self.stats
        if node is not None:
            stats.hits += 1
            stats.window_left -= 1
            if not stats.window_left:
                stats.close_window()
            if meter.enabled:
                meter.events["cache_hit"] += 1
                if self._hit_cost:
                    meter.cycles += self._hit_cost
            if self._on_hit is not None:
                self._on_hit(key)
            node[offset : offset + COUNTER_SIZE] = value
            self._dirty.add(key)
            enclave.epc_touch(COUNTER_SIZE)
            return
        stats.misses += 1
        stats.window_left -= 1
        if not stats.window_left:
            stats.close_window()
        if meter.enabled:
            meter.events["cache_miss"] += 1
        node = bytearray(self._verified_node_bytes(0, leaf_index))
        node[offset : offset + COUNTER_SIZE] = value
        if not (self.swapping and self._insert(key, node, True) is not None):
            # Not cacheable: write through untrusted memory and propagate
            # the MAC.
            tree = self._tree
            body = bytes(node)
            tree.write_node(0, leaf_index, body)
            new_mac = tree.node_mac(body)
            if self._top_level == 0:
                tree.set_root(new_mac)
            else:
                self._propagate_mac_untrusted(
                    1, leaf_index // self._arity,
                    leaf_index % self._arity * MAC_SIZE, new_mac)
        if (stats.stop_swap_recommended and self.swapping
                and self._stop_swap_enabled):
            self.stop_swapping()

    def increment_counter(self, counter_id: int) -> bytes:
        """Verify, increment, and store a counter; returns the new value.

        This is the pre-encryption step of every Put (Section V-D step 3).
        By definition it is ``read_counter`` then ``write_counter``.  A Put
        has just opened the record it overwrites, so the leaf is nearly
        always cached and both halves hit: that branch does the two hits'
        bookkeeping in place, in the same order.
        """
        if not 0 <= counter_id < self._n_counters:
            raise IndexError(f"counter id {counter_id} out of range")
        key = (0, counter_id // self._arity)
        data = self._table.get(key)
        if data is None:  # leaf level pinned, or a miss
            current = self.read_counter(counter_id)
            new_value = ((int.from_bytes(current, "little") + 1)
                         % (1 << 128)).to_bytes(COUNTER_SIZE, "little")
            self.write_counter(counter_id, new_value)
            return new_value
        offset = counter_id % self._arity * COUNTER_SIZE
        end = offset + COUNTER_SIZE
        enclave = self._enclave
        meter = enclave.meter
        stats = self.stats
        on_hit = self._on_hit
        stats.hits += 1  # the read
        stats.window_left -= 1
        if not stats.window_left:
            stats.close_window()
        if meter.enabled:
            meter.events["cache_hit"] += 1
            if self._hit_cost:
                meter.cycles += self._hit_cost
        if on_hit is not None:
            on_hit(key)
        enclave.epc_touch(COUNTER_SIZE)
        new_value = ((int.from_bytes(data[offset:end], "little") + 1)
                     % (1 << 128)).to_bytes(COUNTER_SIZE, "little")
        stats.hits += 1  # the write
        stats.window_left -= 1
        if not stats.window_left:
            stats.close_window()
        if meter.enabled:
            meter.events["cache_hit"] += 1
            if self._hit_cost:
                meter.cycles += self._hit_cost
        if on_hit is not None:
            on_hit(key)
        data[offset:end] = new_value
        self._dirty.add(key)
        enclave.epc_touch(COUNTER_SIZE)
        return new_value

    def verify_leaf(self, leaf_index: int) -> None:
        """Audit helper: check one leaf node's integrity without caching it.

        EPC-resident copies (cached or pinned) are authoritative by
        construction; everything else is verified along the Merkle path.
        """
        if 0 in self._pinned or (0, leaf_index) in self._table:
            return
        self._verified_node_bytes(0, leaf_index)

    # -- stop-swap (Section IV-E) ----------------------------------------------------------

    def stop_swapping(self) -> None:
        """Flush the cache and repurpose its EPC space for level pinning."""
        if not self.swapping:
            return
        while self._table:
            # A stop-swap flush empties the whole cache; tenant protection
            # does not apply (this is repurposing, not cross-tenant
            # pressure).
            if not self._evict_one(frozenset(), partition=False):
                break
        self.swapping = False
        # Pin as many additional upper levels as the freed space allows.
        layout = self._tree.layout
        budget = self._capacity_bytes + self._pinned_reserved
        best_pin = len(self._pinned_levels)
        for pin in range(len(self._pinned_levels) + 1, layout.n_levels + 1):
            if layout.pinned_bytes(pin) <= budget:
                best_pin = pin
            else:
                break
        new_levels = layout.pinned_level_set(best_pin)
        extra = new_levels - self._pinned_levels
        if extra:
            # Repurpose the cache reservation for the new pinned levels.
            extra_bytes = layout.pinned_bytes(best_pin) - self._pinned_reserved
            self._enclave.epc.release(self.EPC_CACHE, min(extra_bytes,
                                                          self._capacity_bytes))
            self._enclave.epc.reserve(self.EPC_PINNED, extra_bytes)
            self._pinned_reserved += extra_bytes
            self._pin_levels_now(frozenset(extra))
            self._pinned_levels = new_levels
        self._enclave.meter.count("stop_swap")

    # -- reporting -------------------------------------------------------------------

    def tenant_stats(self) -> Optional[dict]:
        """Partition counters, or ``None`` when tenancy is unarmed.

        Returning ``None`` (rather than an all-zeros row) keeps unarmed
        stores' reports byte-identical to pre-tenancy behaviour.
        """
        if self._partition is None:
            return None
        return {
            "denials": self.tenant_denials,
            "occupancy": self._partition.occupancy(),
            "quota_entries": self._partition.quotas,
        }
