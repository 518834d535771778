"""Aria-H: chained hash table over sealed records (paper Section V-C).

Layout in untrusted memory::

    bucket array:  n_buckets x 8-byte head pointers
    entry:         next_ptr (8) | key_hint (4) | sealed record (...)

* The **key hint** is a hash of the plaintext key stored per entry, so chain
  traversal skips non-matching entries without decrypting them (the paper
  credits this for the ~10x gap between Aria-H and Aria-T).  A walk reads
  each entry's 24-byte head (next_ptr, key_hint, record header) and reads
  the sealed record only on a hint match, or when a Get/Delete miss
  verifies the chain.
* **Index protection**: each record's AdField is the address of the pointer
  slot that points at its entry — the bucket head slot for the first entry,
  the predecessor's ``next`` field otherwise.  Swapping two slot pointers
  (Fig 7) relocates records under foreign AdFields and both MACs fail.
* **Unauthorized-deletion detection**: the enclave keeps a per-bucket entry
  count; a miss whose traversal saw fewer entries than the count recorded in
  the EPC raises :class:`DeletionError` instead of KeyNotFoundError.  The
  count also bounds every walk: a chain longer than it (a cyclic or spliced
  next pointer) raises :class:`DeletionError` after that many hops.

Inserts append at the chain tail so existing entries keep their AdFields;
deletes splice and re-bind the successor's record to its new pointer slot.
Every operation walks its chain once and hashes its key twice (bucket + key
hint): a Put that misses links its entry at the slot the walk ended on.
"""

from __future__ import annotations

import struct
from typing import Iterator

from repro.alloc.heap import Allocator
from repro.core.record import HEADER, RecordCodec, record_size
from repro.errors import DeletionError, KeyNotFoundError
from repro.index.base import SecureIndex
from repro.sgx.enclave import Enclave

_ENTRY_PREFIX = struct.Struct("<QI")  # next_ptr, key_hint
#: Entry prefix + record header, read in one access when walking a chain.
_ENTRY_HEAD = struct.Struct(_ENTRY_PREFIX.format + HEADER.format.lstrip("<"))
_EMPTY_RECORD_SIZE = record_size(0, 0)
_NULL = 0
#: Bytes of EPC charged per bucket for the entry count (Section V-C).
_COUNT_BYTES = 1


class AriaHashIndex(SecureIndex):
    """Chained hashing with key hints and tail insertion."""

    name = "hash"
    EPC_CONSUMER = "hash_index"

    def __init__(
        self,
        enclave: Enclave,
        codec: RecordCodec,
        allocator: Allocator,
        *,
        n_buckets: int,
        fetch_counter: callable,
        free_counter: callable,
        dummy_bucket_reads: int = 0,
    ):
        self._enclave = enclave
        self._codec = codec
        self._allocator = allocator
        self._n_buckets = n_buckets
        self._fetch_counter = fetch_counter
        self._free_counter = free_counter
        # Section VII mitigation sketch: per operation, also walk this many
        # pseudo-randomly chosen buckets so an observer of untrusted-memory
        # reads cannot attribute request frequency to one bucket.  This
        # blurs frequencies; it is NOT ORAM (orderings and co-access
        # patterns still leak) and is off by default, as in the paper.
        self._dummy_bucket_reads = dummy_bucket_reads
        self._dummy_state = 0x9E3779B97F4A7C15
        # Bucket head array lives in untrusted memory; the array *entrance*
        # (its base address) is EPC state, so the enclave always finds it.
        self._bucket_base = enclave.untrusted.alloc(n_buckets * 8)
        # Per-bucket entry counts: trusted metadata in the EPC.
        self._counts = [0] * n_buckets
        enclave.epc.reserve(self.EPC_CONSUMER, n_buckets * _COUNT_BYTES + 8)
        self._n_entries = 0

    # -- helpers -------------------------------------------------------------------

    def _bucket_slot(self, key: bytes) -> tuple[int, int, int]:
        """Where a key's chain starts: (bucket, head slot address, key hint).

        The attack scenarios aim with it; a lookup derives these in its walk.
        """
        digest = self._enclave.hash_key(key)
        bucket = digest % self._n_buckets
        return bucket, self._bucket_base + bucket * 8, digest & 0xFFFFFFFF

    def _read_ptr(self, slot_addr: int) -> int:
        return int.from_bytes(self._enclave.read_untrusted(slot_addr, 8), "little")

    def _read_entry(self, entry_addr: int) -> tuple[int, int, bytes]:
        """Read one entry; returns (next_ptr, hint, record blob)."""
        read = self._enclave.read_untrusted
        next_ptr, hint, _, k_len, v_len = _ENTRY_HEAD.unpack(
            read(entry_addr, _ENTRY_HEAD.size)
        )
        blob = read(entry_addr + _ENTRY_PREFIX.size, record_size(k_len, v_len))
        return next_ptr, hint, blob

    # -- chain walk ---------------------------------------------------------------------

    def _walk(self, key: bytes, verify_miss: bool):
        """Walk the key's chain once.

        Returns ``(bucket, hint, slot_addr, entry_addr, next_ptr, blob,
        opened)``.  ``slot_addr`` is the address of the pointer that
        references ``entry_addr`` — exactly the entry's AdField.  Each walked
        entry costs one read of its head (``_ENTRY_HEAD``); its sealed record
        is read only when the key hint matches.

        On a miss with ``verify_miss`` (the Get/Delete path), the whole
        walked chain is verified before concluding the key is absent: each
        entry's record is read once (the walk already opened those whose hint
        matched) and its MAC binds it to the slot that pointed at it
        (AdField), so a chain redirected to hide a key — the Fig 7 slot
        swap — raises :class:`IntegrityError` instead of lying with
        KeyNotFoundError.  A chain shorter than the enclave-recorded entry
        count raises :class:`DeletionError`, and so does a longer one: the
        walk stops after that many hops, so a cyclic chain cannot hold it.
        Put's miss skips the verification — an insert does not assert
        absence to a client, and the entry it adds is bound to wherever the
        chain tail really is — and returns ``entry_addr`` ``_NULL`` with
        ``slot_addr`` the tail slot.
        """
        enclave = self._enclave
        read = enclave.read_untrusted
        # A lookup is priced at two key hashes (bucket + key hint); one
        # digest serves both, the second is still charged.
        digest = enclave.hash_key(key)
        enclave.hash_key(key)
        bucket = digest % self._n_buckets
        want_hint = digest & 0xFFFFFFFF
        slot_addr = self._bucket_base + bucket * 8
        entry_addr = int.from_bytes(read(slot_addr, 8), "little")
        recorded = self._counts[bucket]
        unopened = []  # filled only for a miss that verifies the chain
        walked = recorded
        for hops in range(recorded):
            if entry_addr == _NULL:
                walked = hops
                break
            next_ptr, hint, _, k_len, v_len = _ENTRY_HEAD.unpack(
                read(entry_addr, _ENTRY_HEAD.size)
            )
            size = _EMPTY_RECORD_SIZE + k_len + v_len
            if hint == want_hint:
                blob = read(entry_addr + _ENTRY_PREFIX.size, size)
                opened = self._codec.open(blob, slot_addr)
                if enclave.compare(opened.key, key):
                    return (bucket, want_hint, slot_addr, entry_addr,
                            next_ptr, blob, opened)
            elif verify_miss:
                unopened.append((slot_addr, entry_addr, size))
            slot_addr = entry_addr  # next field sits at offset 0
            entry_addr = next_ptr
        if entry_addr != _NULL:
            raise self._too_long(bucket)
        enclave.epc_touch(_COUNT_BYTES)
        if walked != recorded:
            raise DeletionError(
                f"bucket {bucket} has {walked} entries but the enclave "
                f"recorded {recorded}: unauthorized deletion detected"
            )
        if not verify_miss:
            return bucket, want_hint, slot_addr, _NULL, _NULL, None, None
        for slot_addr, entry_addr, size in unopened:
            self._codec.open(read(entry_addr + _ENTRY_PREFIX.size, size),
                             ad_field=slot_addr)
        raise KeyNotFoundError(key)

    def _too_long(self, bucket: int) -> DeletionError:
        return DeletionError(
            f"bucket {bucket}'s chain is longer than the "
            f"{self._counts[bucket]} entries the enclave recorded: chain "
            "pointer attacked (cyclic or spliced chain)"
        )

    def _find(self, key: bytes):
        """Locate a present key; returns (slot_addr, entry_addr, next_ptr,
        blob, opened) — the attack scenarios aim with it."""
        return self._walk(key, True)[2:]

    def _walk_dummy_buckets(self) -> None:
        """Read the chains of pseudo-random buckets (frequency blurring)."""
        for _ in range(self._dummy_bucket_reads):
            # xorshift PRG inside the enclave; the observer cannot predict
            # or distinguish dummy bucket choices from real ones.
            self._dummy_state ^= (self._dummy_state << 13) & (2**64 - 1)
            self._dummy_state ^= self._dummy_state >> 7
            self._dummy_state ^= (self._dummy_state << 17) & (2**64 - 1)
            bucket = self._dummy_state % self._n_buckets
            entry_addr = self._read_ptr(self._bucket_base + bucket * 8)
            for _ in range(self._counts[bucket]):  # a dummy read never raises
                if entry_addr == _NULL:
                    break
                prefix = self._enclave.read_untrusted(
                    entry_addr, _ENTRY_PREFIX.size
                )
                entry_addr, _ = _ENTRY_PREFIX.unpack_from(prefix)

    # -- public operations -----------------------------------------------------------------

    def get(self, key: bytes) -> bytes:
        value = self._walk(key, True)[6].value
        if self._dummy_bucket_reads:
            self._walk_dummy_buckets()
        return value

    def put(self, key: bytes, value: bytes) -> None:
        bucket, hint, slot_addr, entry_addr, next_ptr, blob, opened = (
            self._walk(key, False))
        if entry_addr == _NULL:
            # The miss ended at the chain's tail slot: the new entry goes there.
            self._append(slot_addr, key, value, self._fetch_counter(), hint)
            self._enclave.epc_touch(_COUNT_BYTES)
            self._counts[bucket] += 1
            self._n_entries += 1
        elif (_ENTRY_PREFIX.size + _EMPTY_RECORD_SIZE + len(key) + len(value)
              <= self._allocator.block_size_of(_ENTRY_PREFIX.size + len(blob))):
            # Re-seal under the key's own counter (Section V-D step 2) in
            # its block: the AdField, ``slot_addr``, is unchanged.
            self._enclave.write_untrusted(entry_addr, _ENTRY_PREFIX.pack(
                next_ptr, hint) + self._codec.seal(
                    key, value, opened.red_ptr, ad_field=slot_addr))
        else:
            self._update_existing(bucket, key, value, hint, slot_addr,
                                  entry_addr, next_ptr, blob, opened.red_ptr)

    def delete(self, key: bytes) -> None:
        bucket, _, slot_addr, entry_addr, next_ptr, blob, opened = (
            self._walk(key, True))
        self._splice_out(key, slot_addr, entry_addr, next_ptr, blob)
        self._free_counter(opened.red_ptr)
        self._enclave.epc_touch(_COUNT_BYTES)
        self._counts[bucket] -= 1
        self._n_entries -= 1

    # -- internals -----------------------------------------------------------------------------

    def _append(self, tail_slot: int, key: bytes, value: bytes, red_ptr: int,
                hint: int) -> None:
        """Seal a record bound to ``tail_slot`` and link its entry there."""
        entry = _ENTRY_PREFIX.pack(_NULL, hint) + self._codec.seal(
            key, value, red_ptr, ad_field=tail_slot)
        entry_addr = self._allocator.alloc(len(entry))
        self._enclave.write_untrusted(entry_addr, entry)
        self._enclave.write_untrusted(tail_slot, entry_addr.to_bytes(8, "little"))

    def _update_existing(self, bucket: int, key: bytes, value: bytes,
                         hint: int, slot_addr: int, entry_addr: int,
                         next_ptr: int, old_blob: bytes, red_ptr: int) -> None:
        """Re-seal a key whose grown value outgrew its block, reusing its
        counter (Section V-D step 2): splice the old entry out, then
        re-insert at the tail, walking on from the slot that now points past
        the old entry."""
        self._splice_out(key, slot_addr, entry_addr, next_ptr, old_blob)
        tail_slot, entry_addr = slot_addr, next_ptr
        for _ in range(self._counts[bucket]):
            if entry_addr == _NULL:
                break
            tail_slot, entry_addr = entry_addr, self._read_ptr(entry_addr)
        if entry_addr != _NULL:
            raise self._too_long(bucket)
        self._append(tail_slot, key, value, red_ptr, hint)

    def _splice_out(self, key: bytes, slot_addr: int, entry_addr: int,
                    next_ptr: int, blob: bytes) -> None:
        """Unlink an entry; re-bind the successor to its new pointer slot."""
        self._enclave.write_untrusted(slot_addr, next_ptr.to_bytes(8, "little"))
        if next_ptr != _NULL:
            succ_next, succ_hint, succ_blob = self._read_entry(next_ptr)
            rebound = self._codec.reseal_ad_field(
                succ_blob, old_ad=entry_addr, new_ad=slot_addr
            )
            self._enclave.write_untrusted(
                next_ptr, _ENTRY_PREFIX.pack(succ_next, succ_hint) + rebound)
        self._allocator.free(entry_addr, _ENTRY_PREFIX.size + len(blob))

    # -- iteration / audit ---------------------------------------------------------------------

    def __len__(self) -> int:
        return self._n_entries

    def keys(self) -> Iterator[bytes]:
        """Every key, each record opened against the slot that points at
        it; a chain longer or shorter than its recorded count raises."""
        for bucket in range(self._n_buckets):
            slot_addr = self._bucket_base + bucket * 8
            entry_addr = self._read_ptr(slot_addr)
            for walked in range(self._counts[bucket]):
                if entry_addr == _NULL:
                    raise DeletionError(
                        f"bucket {bucket}: {walked} entries, recorded "
                        f"{self._counts[bucket]}")
                next_ptr, _, blob = self._read_entry(entry_addr)
                yield self._codec.open(blob, ad_field=slot_addr).key
                slot_addr, entry_addr = entry_addr, next_ptr
            if entry_addr != _NULL:
                raise self._too_long(bucket)

    def audit(self) -> None:
        """Full verified scan; checks every bucket count (DeletionError on lie)."""
        for _ in self.keys():
            pass

    def epc_bytes(self) -> int:
        return self._n_buckets * _COUNT_BYTES + 8
