"""Byte-addressable untrusted memory.

Everything Aria keeps outside the enclave — KV records, Merkle-tree node
arrays, the counter area, hash buckets, B-tree nodes, the allocator free list
— lives in one of these regions.  Addresses are plain integers; pointer
fields serialized into records are 8-byte little-endian addresses into this
space, which is what makes the Fig 7 pointer-swap attack expressible.

The attacker interface (:meth:`UntrustedMemory.tamper`) mutates bytes without
any cycle charge and without the enclave's involvement, modelling a malicious
OS/hypervisor with full control of regular DRAM.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import AriaError

#: Address 0 is reserved as the null pointer.
NULL = 0


class UntrustedMemory:
    """A growing address space of allocated regions (bump allocator).

    ``alloc`` returns stable integer addresses.  Reads and writes may cross
    region boundaries only if the caller allocated them contiguously, which
    the bump allocator guarantees never happens — each region is isolated,
    and out-of-range accesses raise, catching address-arithmetic bugs early.
    """

    __slots__ = ("_bases", "_regions", "_views", "_next")

    def __init__(self) -> None:
        self._bases: list[int] = []
        self._regions: list[bytearray] = []
        #: One ``memoryview`` per region (regions are never resized): a read
        #: slices the view and copies once, where slicing the ``bytearray``
        #: and converting would copy twice.
        self._views: list[memoryview] = []
        self._next = 64  # small guard gap so that address 0 stays invalid

    # A ``memoryview`` can be neither copied nor pickled, and the views are
    # derived state: a copy (the rollback attacker's snapshot of all
    # untrusted memory) carries the regions and rebuilds them.

    def __getstate__(self) -> tuple:
        return self._bases, self._regions, self._next

    def __setstate__(self, state: tuple) -> None:
        self._bases, self._regions, self._next = state
        self._views = [memoryview(region) for region in self._regions]

    @property
    def allocated_bytes(self) -> int:
        return sum(len(r) for r in self._regions)

    def alloc(self, size: int) -> int:
        """Allocate ``size`` zeroed bytes; returns the base address."""
        if size <= 0:
            raise AriaError(f"allocation size must be positive, got {size}")
        base = self._next
        self._bases.append(base)
        region = bytearray(size)
        self._regions.append(region)
        self._views.append(memoryview(region))
        self._next = base + size + 64  # guard gap between regions
        return base

    # ``read`` and ``write`` run several times per simulated op, so each
    # locates its region inline (one bisect, both bounds checks) instead of
    # through a shared helper: one Python call per access.

    def read(self, addr: int, size: int) -> bytes:
        idx = bisect_right(self._bases, addr) - 1
        if idx < 0:
            raise AriaError(f"invalid untrusted address {addr:#x}")
        view = self._views[idx]
        offset = addr - self._bases[idx]
        end = offset + size
        if end > len(view):
            raise AriaError(
                f"untrusted access [{addr:#x}, +{size}) crosses region bounds"
            )
        return view[offset:end].tobytes()

    def write(self, addr: int, data: bytes) -> None:
        idx = bisect_right(self._bases, addr) - 1
        if idx < 0:
            raise AriaError(f"invalid untrusted address {addr:#x}")
        region = self._regions[idx]
        offset = addr - self._bases[idx]
        end = offset + len(data)
        if end > len(region):
            raise AriaError(
                f"untrusted access [{addr:#x}, +{len(data)}) crosses region "
                "bounds"
            )
        region[offset:end] = data

    # -- attacker interface -------------------------------------------------

    def tamper(self, addr: int, data: bytes) -> None:
        """Adversarially overwrite bytes (no enclave involvement, no cost)."""
        self.write(addr, data)

    def snoop(self, addr: int, size: int) -> bytes:
        """Adversarially read bytes (ciphertext is all an attacker sees)."""
        return self.read(addr, size)
