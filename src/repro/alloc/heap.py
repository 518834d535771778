"""User-space heap allocator for untrusted memory (paper Section V-B).

Calling ``malloc``/``free`` from inside an enclave needs an OCALL per call —
about 10 000 cycles.  Aria instead manages untrusted memory itself:

* The untrusted pool is cut into 4 MB **chunks**; each chunk is cut into
  equal-size **blocks** (one size class per chunk).
* A **bitmap** per chunk lives in the EPC (it is allocator metadata an
  attacker must not corrupt) and tracks used/free blocks.
* The **free list** lives in untrusted memory to save EPC: we thread it
  through the free blocks themselves (the first 8 bytes of a free block hold
  the address of the next free block), with only the per-class head pointer
  in the EPC.  Because the list is untrusted, every pop is cross-checked
  against the bitmap; a mismatch means the free list was attacked.
* Chunks are 4 MB-aligned in spirit: block offsets are computed directly
  from ``addr - chunk_base``, so the bitmap update is O(1).
* Requests larger than a chunk get dedicated contiguous chunks.

``OcallAllocator`` provides the naive alternative (one OCALL per allocation)
used by the AriaBase configuration in the Fig 12 ablation.
"""

from __future__ import annotations

import struct
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.errors import AllocationError, IntegrityError
from repro.sgx.enclave import Enclave

DEFAULT_CHUNK_SIZE = 4 * 1024 * 1024
_MIN_BLOCK = 32
_PTR_SIZE = 8
_NULL = 0


def _size_class(size: int) -> int:
    """Round a request up to the next power-of-two block size (>= 32 B)."""
    return max(_MIN_BLOCK, 1 << (size - 1).bit_length())


@dataclass
class _Chunk:
    """One chunk: a run of equal-size blocks plus its EPC-resident bitmap."""

    base: int
    block_size: int
    n_blocks: int
    bitmap: bytearray = field(default_factory=bytearray)

    def __post_init__(self) -> None:
        if not self.bitmap:
            self.bitmap = bytearray((self.n_blocks + 7) // 8)


class Allocator:
    """Common interface for the two allocation strategies."""

    def alloc(self, size: int) -> int:
        raise NotImplementedError

    def free(self, addr: int, size: int) -> None:
        raise NotImplementedError

    def block_size_of(self, size: int) -> int:
        """Usable bytes of the block a request of ``size`` receives."""
        return size


class HeapAllocator(Allocator):
    """Aria's OCALL-free user-space allocator over untrusted memory."""

    EPC_CONSUMER = "heap_allocator"

    def __init__(self, enclave: Enclave, chunk_size: int = DEFAULT_CHUNK_SIZE):
        if chunk_size < _MIN_BLOCK:
            raise AllocationError(f"chunk size {chunk_size} too small")
        self._enclave = enclave
        self._chunk_size = chunk_size
        # Per-size-class free list head (EPC-resident pointer).
        self._free_heads: dict[int, int] = {}
        # Chunks sorted by base address, for O(log n) address->chunk lookup.
        self._chunk_bases: list[int] = []
        self._chunks: list[_Chunk] = []

    # -- internals ------------------------------------------------------------

    def _grow_class(self, block_size: int) -> None:
        """Carve a fresh chunk into ``block_size`` blocks and free-list them."""
        n_blocks = self._chunk_size // block_size
        base = self._enclave.untrusted.alloc(n_blocks * block_size)
        chunk = _Chunk(base=base, block_size=block_size, n_blocks=n_blocks)
        # The bitmap is allocator metadata stored in the EPC.
        self._enclave.epc.reserve(self.EPC_CONSUMER, len(chunk.bitmap))
        index = bisect_right(self._chunk_bases, base)
        self._chunk_bases.insert(index, base)
        self._chunks.insert(index, chunk)
        # Thread all blocks onto the class free list (each block's first 8
        # bytes name the next block, the last block's the previous head) in
        # one write of the whole zeroed chunk, charged as one stream.
        links = struct.pack(
            f"<{n_blocks}Q",
            *range(base + block_size, base + n_blocks * block_size, block_size),
            self._free_heads.get(block_size, _NULL))
        blocks = bytearray(n_blocks * block_size)
        memoryview(blocks).cast("Q")[::block_size // _PTR_SIZE] = (
            memoryview(links).cast("Q"))
        self._enclave.untrusted.write(base, blocks)
        self._enclave.meter.charge_event(
            "untrusted_access",
            self._enclave.costs.access_cost(n_blocks * _PTR_SIZE, in_epc=False),
        )
        self._free_heads[block_size] = base

    def _chunk_for(self, addr: int) -> tuple[_Chunk, int]:
        """The chunk owning ``addr`` and the index of the block it starts."""
        index = bisect_right(self._chunk_bases, addr) - 1
        if index < 0:
            raise AllocationError(f"address {addr:#x} not owned by the allocator")
        chunk = self._chunks[index]
        if addr >= chunk.base + chunk.n_blocks * chunk.block_size:
            raise AllocationError(f"address {addr:#x} not owned by the allocator")
        block, remainder = divmod(addr - chunk.base, chunk.block_size)
        if remainder:
            raise AllocationError(f"address {addr:#x} is not a block boundary")
        return chunk, block

    # -- public API -------------------------------------------------------------

    def alloc(self, size: int) -> int:
        """Allocate a block that fits ``size`` bytes; no OCALL involved."""
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        if size > self._chunk_size:
            # Large allocation: dedicated contiguous region (paper Section V-B).
            return self._enclave.untrusted.alloc(size)
        block_size = _size_class(size)
        if self._free_heads.get(block_size, _NULL) == _NULL:
            self._grow_class(block_size)
        head = self._free_heads[block_size]
        # Pop from the untrusted free list: read the next pointer.
        next_ptr = int.from_bytes(
            self._enclave.read_untrusted(head, _PTR_SIZE), "little"
        )
        # Cross-check with the trusted bitmap before handing the block out.
        chunk, index = self._chunk_for(head)
        self._enclave.epc_touch(1)  # bitmap bit test+set
        if chunk.bitmap[index >> 3] & (1 << (index & 7)):
            raise IntegrityError(
                "heap free list returned an in-use block: allocator under attack"
            )
        chunk.bitmap[index >> 3] |= 1 << (index & 7)
        self._free_heads[block_size] = next_ptr
        self._enclave.meter.count("heap_alloc")
        return head

    def free(self, addr: int, size: int) -> None:
        """Return a block to its size-class free list."""
        if size > self._chunk_size:
            # Dedicated regions are not recycled in this reproduction.
            return
        chunk, index = self._chunk_for(addr)
        self._enclave.epc_touch(1)
        if not chunk.bitmap[index >> 3] & (1 << (index & 7)):
            raise IntegrityError(f"double free of block {addr:#x}")
        chunk.bitmap[index >> 3] &= ~(1 << (index & 7))
        head = self._free_heads.get(chunk.block_size, _NULL)
        self._enclave.write_untrusted(addr, head.to_bytes(_PTR_SIZE, "little"))
        self._free_heads[chunk.block_size] = addr
        self._enclave.meter.count("heap_free")

    #: The size class a request lands in: a Put that overwrites asks
    #: whether its new entry still fits the old one's block.
    block_size_of = staticmethod(_size_class)


class OcallAllocator(Allocator):
    """Naive allocator: one OCALL per malloc/free (AriaBase in Fig 12).

    The untrusted side services the allocation; the enclave pays the boundary
    crossing every time.  Used only to quantify the HeapAlloc optimization.
    """

    def __init__(self, enclave: Enclave):
        self._enclave = enclave

    def alloc(self, size: int) -> int:
        if size <= 0:
            raise AllocationError(f"allocation size must be positive, got {size}")
        self._enclave.ocall()
        return self._enclave.untrusted.alloc(size)

    def free(self, addr: int, size: int) -> None:
        self._enclave.ocall()
