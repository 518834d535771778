"""Aria w/o Cache (paper Fig 1(b)): all counters inside the enclave heap.

The intuitive design the paper motivates against: per-KV encryption counters
live in EPC memory, so they are always trusted — no Merkle tree needed.  KV
pairs and their MACs stay in untrusted memory (any tampering mismatches the
MAC recomputed from the trusted counter).  The catch: the counter array
scales with the keyspace, and once it exceeds the EPC, **hardware secure
paging** kicks in at 4 KB granularity (hotness-aware via CLOCK, but a page
mixes the counters of hot and cold keys — Section III).

Implementation: the counters sit in a :class:`PagedEnclaveHeap`; every
counter access touches its 16-byte slot, which faults and swaps when the
page is not resident.  Everything else reuses Aria's record codec, heap
allocator and index implementations — the schemes differ only in how the
counter is protected, exactly as in the paper.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.alloc.heap import HeapAllocator
from repro.core.record import RecordCodec
from repro.crypto.keys import KeyMaterial
from repro.errors import CapacityError, CounterReuseError, IntegrityError
from repro.index import make_index
from repro.sgx.costs import PAGE_SIZE, SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause

COUNTER_SIZE = 16


class PagedCounterManager:
    """Counters in the paged enclave heap; same surface as CounterManager."""

    def __init__(self, enclave: Enclave, *, initial_counters: int):
        if enclave.paged_heap is None:
            raise CapacityError("Aria w/o Cache needs a paged enclave heap")
        self._enclave = enclave
        self._capacity = initial_counters
        self._base = enclave.paged_heap.alloc(initial_counters * COUNTER_SIZE)
        # Actual values (conceptually the paged heap's contents).
        self._values = [i.to_bytes(COUNTER_SIZE, "little")
                        for i in range(1, initial_counters + 1)]
        self._free = list(range(initial_counters - 1, -1, -1))
        self._used = bytearray(initial_counters)

    def _touch(self, counter_id: int, write: bool = False) -> None:
        self._enclave.paged_heap.touch(
            self._base + counter_id * COUNTER_SIZE, COUNTER_SIZE, write=write
        )

    def fetch(self) -> int:
        if not self._free:
            raise CapacityError("counter area exhausted (no expansion in "
                                "the Aria w/o Cache baseline)")
        counter_id = self._free.pop()
        if self._used[counter_id]:
            raise CounterReuseError(f"counter {counter_id} already in use")
        self._used[counter_id] = 1
        return counter_id

    def free(self, counter_id: int) -> None:
        if not self._used[counter_id]:
            raise CounterReuseError(f"counter {counter_id} is not in use")
        self._used[counter_id] = 0
        self._free.append(counter_id)

    def read_counter(self, counter_id: int) -> bytes:
        if not 0 <= counter_id < self._capacity:
            raise IntegrityError(f"counter id {counter_id} out of range")
        self._touch(counter_id)
        return self._values[counter_id]

    def increment_counter(self, counter_id: int) -> bytes:
        current = int.from_bytes(self.read_counter(counter_id), "little")
        value = ((current + 1) % (1 << 128)).to_bytes(COUNTER_SIZE, "little")
        self._touch(counter_id, write=True)
        self._values[counter_id] = value
        return value

    def cache_stats(self) -> dict:
        return {"hits": 0, "misses": 0, "hit_ratio": 0.0,
                "page_swaps": self._enclave.meter.events["page_swap"]}


class AriaNoCacheStore:
    """The Aria-w/o-Cache scheme over any of the three indexes."""

    name = "aria_nocache"

    def __init__(
        self,
        *,
        initial_counters: int,
        index: str = "hash",
        n_buckets: int = 4096,
        btree_order: int = 15,
        platform: Optional[SgxPlatform] = None,
        seed: int = 0,
    ):
        platform = platform or SgxPlatform()
        # Reserve a sliver of the EPC for non-counter metadata; the rest
        # backs the paged heap holding the counters.
        metadata_bytes = n_buckets * 2 + max(4096, platform.epc_bytes // 64)
        heap_pages = max(1, (platform.epc_bytes - metadata_bytes) // PAGE_SIZE)
        self.enclave = Enclave(
            platform,
            keys=KeyMaterial.from_seed(seed),
            paged_heap_pages=heap_pages,
        )
        self.counters = PagedCounterManager(
            self.enclave, initial_counters=initial_counters
        )
        self.codec = RecordCodec(self.enclave, self.counters)
        # Scale the chunk size with the EPC so chunk bitmaps fit the
        # metadata sliver at any experiment scale.
        chunk = max(4096, min(4 * 1024 * 1024, platform.epc_bytes // 16))
        with MeterPause(self.enclave.meter):
            self.allocator = HeapAllocator(self.enclave, chunk_size=chunk)
        self.index = make_index(index, self.enclave, self.codec,
                                self.allocator, self.counters,
                                n_buckets=n_buckets, order=btree_order)

    def put(self, key: bytes, value: bytes) -> None:
        self.index.put(key, value)
        self.enclave.meter.count("op_put")

    def get(self, key: bytes) -> bytes:
        value = self.index.get(key)
        self.enclave.meter.count("op_get")
        return value

    def delete(self, key: bytes) -> None:
        self.index.delete(key)
        self.enclave.meter.count("op_delete")

    def __len__(self) -> int:
        return len(self.index)

    def keys(self) -> Iterator[bytes]:
        return self.index.keys()

    def load(self, pairs) -> None:
        with MeterPause(self.enclave.meter):
            for key, value in pairs:
                self.index.put(key, value)
        self.enclave.paged_heap.prefault()

    def cache_stats(self) -> dict:
        return self.counters.cache_stats()

    def epc_report(self) -> dict:
        return self.enclave.epc.usage_report()
