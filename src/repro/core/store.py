"""AriaStore: the public facade of the secure KV store (paper Section V).

Wires together the enclave simulator, the user-space heap allocator, the
counter manager (redirection layer + Merkle trees + Secure Caches), the
record codec, and one of the three index schemes.  The Put/Get walkthroughs of
Section V-D happen across these components:

Put(key, value):
  1. index lookup finds the slot serving the operation,
  2. a RedPtr is created (or reused) and its counter verified by Secure
     Cache, then incremented,
  3. key||value is CTR-encrypted under the counter,
  4. a MAC is computed over (RedPtr, counter, ciphertext, AdField),
  5. the record goes to a heap-allocator block and the index is updated.

Get(key): index traversal -> counter fetch via RedPtr (Secure Cache
verifies) -> MAC check -> decrypt -> plaintext key comparison.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.alloc.heap import HeapAllocator, OcallAllocator
from repro.core.config import AriaConfig
from repro.core.counters import CounterManager
from repro.core.record import RecordCodec
from repro.crypto.keys import KeyMaterial
from repro.index import SealedTreeIndex, make_index
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause


class AriaStore:
    """A secure in-memory KV store with Secure Cache (the paper's Aria)."""

    def __init__(
        self,
        config: Optional[AriaConfig] = None,
        *,
        platform: Optional[SgxPlatform] = None,
        enclave: Optional[Enclave] = None,
    ):
        config = self.config = config or AriaConfig()
        self.enclave = enclave or Enclave(
            platform or SgxPlatform(),
            keys=KeyMaterial.from_seed(config.seed),
            crypto_backend=config.crypto_backend,
        )
        # Setup (tree initialization, pinning) is excluded from metering,
        # matching the paper's steady-state measurements.
        with MeterPause(self.enclave.meter):
            self.counters = CounterManager(self.enclave, config)
            self.codec = RecordCodec(self.enclave, self.counters)
            if config.allocator == "heap":
                self.allocator = HeapAllocator(
                    self.enclave, chunk_size=config.heap_chunk_bytes)
            else:
                self.allocator = OcallAllocator(self.enclave)
            self.index = make_index(
                config.index, self.enclave, self.codec, self.allocator,
                self.counters, n_buckets=config.n_buckets,
                order=config.btree_order,
                dummy_bucket_reads=config.dummy_bucket_reads)
        # Armed only when the config carries cache quotas; the unarmed op
        # path is untouched (no owner parsing, no extra calls).
        self._tenant_armed = config.tenant_quotas is not None

    # -- public KV API ----------------------------------------------------------

    def _set_owner_from_key(self, key: bytes) -> None:
        """Attribute this op's cache activity to the key's tenant owner.

        The owner token is purely syntactic (the digest embedded in a
        tenant-prefixed key, :func:`repro.core.tenant.owner_token_of`), so
        the shard needs no tenant roster — the front door already
        authenticated the principal and prefixed the key.
        """
        from repro.core.tenant import owner_token_of
        self.counters.set_tenant_owner(owner_token_of(key))

    def retarget_tenant_quotas(self, quotas: "dict | None") -> None:
        """Adopt a new tenant quota map live (§16's follow-on).

        Re-partitions every Secure Cache in place — cached entries and
        their ownership survive — and updates the config so spawn-spec
        rebuilds carry the new roster forward.
        ``None`` disarms partitioning entirely.
        """
        self.config.tenant_quotas = dict(quotas) if quotas else None
        self.counters.retarget_tenant_quotas()
        self._tenant_armed = self.config.tenant_quotas is not None

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update a KV pair (Section V-D Put walkthrough)."""
        if self._tenant_armed:
            self._set_owner_from_key(key)
        self.index.put(key, value)
        # Counted in place, as every ``Enclave`` primitive counts its events.
        meter = self.enclave.meter
        if meter.enabled:
            meter.events["op_put"] += 1

    def get(self, key: bytes) -> bytes:
        """Fetch and verify a KV pair (Section V-D Get walkthrough)."""
        if self._tenant_armed:
            self._set_owner_from_key(key)
        value = self.index.get(key)
        meter = self.enclave.meter
        if meter.enabled:
            meter.events["op_get"] += 1
        return value

    def delete(self, key: bytes) -> None:
        """Remove a KV pair; its counter returns to the free ring."""
        if self._tenant_armed:
            self._set_owner_from_key(key)
        self.index.delete(key)
        meter = self.enclave.meter
        if meter.enabled:
            meter.events["op_delete"] += 1

    def __len__(self) -> int:
        return len(self.index)

    def __contains__(self, key: bytes) -> bool:
        from repro.errors import KeyNotFoundError

        try:
            self.index.get(key)
            return True
        except KeyNotFoundError:
            return False

    def keys(self) -> Iterator[bytes]:
        return self.index.keys()

    def range_scan(self, lo: bytes, hi: bytes):
        """Ordered range query — tree indexes only (Section III's motivation)."""
        if not isinstance(self.index, SealedTreeIndex):
            raise TypeError("range_scan requires a tree index (btree or "
                            "bplustree)")
        return self.index.range_scan(lo, hi)

    def items(self) -> Iterator[tuple]:
        """Iterate all (key, value) pairs, each verified and decrypted."""
        for key in list(self.index.keys()):
            yield key, self.index.get(key)

    def values(self) -> Iterator[bytes]:
        for _, value in self.items():
            yield value

    def __iter__(self) -> Iterator[bytes]:
        return self.index.keys()

    # -- auditing -------------------------------------------------------------------

    def audit(self) -> None:
        """Full integrity check of everything in untrusted memory.

        Verifies (1) the index structure — chain/tree shape, per-bucket
        counts or uniform depth, every record's MAC and AdField binding —
        and (2) every Merkle-tree node of every counter area against the
        path to its EPC-resident anchor.  Raises IntegrityError/ReplayError/
        DeletionError on the first inconsistency; an fsck for the paranoid.
        """
        self.index.audit()
        for area in self.counters.areas:
            layout = area.tree.layout
            for leaf in range(layout.nodes_at_level(0)):
                area.cache.verify_leaf(leaf)

    # -- bulk load (unmetered, like the paper's setup phase) -----------------------

    def load(self, pairs) -> None:
        """Insert many pairs without charging cycles (experiment setup)."""
        with MeterPause(self.enclave.meter):
            for key, value in pairs:
                if self._tenant_armed:
                    self._set_owner_from_key(key)
                self.index.put(key, value)

    # -- reporting -------------------------------------------------------------------

    def cache_stats(self) -> dict:
        return self.counters.cache_stats()

    def epc_report(self) -> dict:
        """Per-consumer EPC occupation (Table I's usability column)."""
        return self.enclave.epc.usage_report()

    def memory_report(self) -> dict:
        """Security/index/allocator metadata footprint (Section VI-D4).

        Per-KV security metadata: a 16-byte counter, a 16-byte MAC and an
        8-byte RedPtr, plus the Merkle tree above the counters.
        """
        per_key_security = 16 + 16 + 8
        mt_bytes = sum(
            area.tree.layout.total_bytes() for area in self.counters.areas
        )
        return {
            "per_key_security_bytes": per_key_security,
            "merkle_tree_bytes": mt_bytes,
            "untrusted_bytes": self.enclave.untrusted.allocated_bytes,
            "epc_bytes": self.enclave.epc.used,
            "epc_by_consumer": self.enclave.epc.usage_report(),
        }

