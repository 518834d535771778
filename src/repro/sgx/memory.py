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

import mmap
from typing import Iterator

from repro.errors import AriaError

#: Address 0 is reserved as the null pointer.
NULL = 0

#: Addresses are indexed in granules of ``1 << GRANULE_BITS`` bytes — the
#: size of the guard gap after every region, so no granule holds two
#: region starts.
GRANULE_BITS = 6
_GUARD = 1 << GRANULE_BITS
_INITIAL_ARENA = 1 << 16


def _anonymous_map(length: int) -> mmap.mmap:
    # Private: a shared anonymous map is a fixed-size shmem object, which
    # ``resize`` cannot grow, and a forked worker must not share it.
    return mmap.mmap(-1, length, flags=mmap.MAP_PRIVATE)


class UntrustedMemory:
    """A growing address space of allocated regions (bump allocator).

    ``alloc`` returns stable integer addresses.  Reads and writes may cross
    region boundaries only if the caller allocated them contiguously, which
    the bump allocator guarantees never happens — each region is isolated,
    and out-of-range accesses raise, catching address-arithmetic bugs early.

    All regions live in one anonymous ``mmap`` arena at their own
    addresses, guard gaps included, grown in place by doubling.  ``_owner``
    maps each granule to the last region starting at or before the
    granule's end; it is an index built at ``alloc``, and nothing is
    remembered from one access to the next.
    """

    __slots__ = ("_arena", "_starts", "_ends", "_owner", "_next")

    def __init__(self) -> None:
        self._arena = _anonymous_map(_INITIAL_ARENA)
        self._starts: list[int] = []
        self._ends: list[int] = []
        # Granule 0 holds no region; 0 there sends every lookup in it to
        # region 0's bounds check, which it fails.
        self._owner: list[int] = [0]
        self._next = _GUARD  # small guard gap so that address 0 stays invalid

    # An ``mmap`` can be neither copied nor pickled, and the granule table
    # is derived state: a copy (the rollback attacker's snapshot of all
    # untrusted memory) carries the bytes and the bounds and rebuilds both.

    def __getstate__(self) -> tuple:
        return self._arena[:self._next], self._starts, self._ends, self._next

    def __setstate__(self, state: tuple) -> None:
        contents, starts, ends, self._next = state
        self._arena = _anonymous_map(max(_INITIAL_ARENA, len(contents)))
        self._arena[:len(contents)] = contents
        self._starts, self._ends, self._owner = [], [], [0]
        for base, end in zip(starts, ends):
            self._add_region(base, end)

    @property
    def allocated_bytes(self) -> int:
        return sum(self._ends) - sum(self._starts)

    def regions(self) -> Iterator[tuple[int, bytes]]:
        """Every region as ``(base address, its bytes)``, in address order."""
        for base, end in zip(self._starts, self._ends):
            yield base, self._arena[base:end]

    def alloc(self, size: int) -> int:
        """Allocate ``size`` zeroed bytes; returns the base address."""
        if size <= 0:
            raise AriaError(f"allocation size must be positive, got {size}")
        base = self._next
        self._next = base + size + _GUARD  # guard gap between regions
        if self._next > len(self._arena):
            length = len(self._arena)
            while length < self._next:
                length *= 2
            self._arena.resize(length)  # Linux mremap: no copy
        self._add_region(base, base + size)
        return base

    def _add_region(self, base: int, end: int) -> None:
        """Record region ``[base, end)`` and claim its granules, from the
        one its base falls in through its trailing guard gap."""
        index = len(self._starts)
        self._starts.append(base)
        self._ends.append(end)
        first = base >> GRANULE_BITS
        last = (end + _GUARD - 1) >> GRANULE_BITS
        self._owner[first:] = [index] * (last + 1 - first)

    def _refusal(self, addr: int, size: int) -> AriaError:
        """The error for an access no region contains: ``addr`` lies below
        every region, or the access runs past the end of the last region
        starting at or before ``addr``."""
        starts = self._starts
        if addr < 0 or not starts:
            return AriaError(f"invalid untrusted address {addr:#x}")
        granule = addr >> GRANULE_BITS
        index = (self._owner[granule] if granule < len(self._owner)
                 else len(starts) - 1)
        if starts[index] > addr:
            index -= 1  # the granule's own region starts after addr
        if index < 0:
            return AriaError(f"invalid untrusted address {addr:#x}")
        return AriaError(
            f"untrusted access [{addr:#x}, +{size}) crosses region bounds")

    # ``read`` and ``write`` run several times per simulated op, so each
    # does its lookup inline: one table index, one bounds check, one slice.
    # An ``IndexError`` means the address is off the table (or no region
    # exists yet); both fall through to the refusal.

    def read(self, addr: int, size: int) -> bytes:
        try:
            index = self._owner[addr >> GRANULE_BITS]
            end = addr + size
            if self._starts[index] <= addr and end <= self._ends[index]:
                return self._arena[addr:end]
        except IndexError:
            pass
        raise self._refusal(addr, size)

    def write(self, addr: int, data: bytes) -> None:
        end = addr + len(data)
        try:
            index = self._owner[addr >> GRANULE_BITS]
            if self._starts[index] <= addr and end <= self._ends[index]:
                self._arena[addr:end] = data
                return
        except IndexError:
            pass
        raise self._refusal(addr, len(data))

    # -- attacker interface -------------------------------------------------

    def tamper(self, addr: int, data: bytes) -> None:
        """Adversarially overwrite bytes (no enclave involvement, no cost)."""
        self.write(addr, data)

    def snoop(self, addr: int, size: int) -> bytes:
        """Adversarially read bytes (ciphertext is all an attacker sees)."""
        return self.read(addr, size)
