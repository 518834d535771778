"""Hardware secure paging simulator (the SGX EWB/ELDU path).

Baseline (whole KV store in the enclave) and Aria w/o Cache (all counters in
the enclave) rely on this mechanism when their enclave heap outgrows the EPC.
Properties reproduced from the paper:

* 4 KB granularity — a page holds security metadata of hot *and* cold KV
  pairs, so evicting one page can hurt a hot key (Section III).
* Hotness-aware victim selection — the OS uses an approximate-LRU (CLOCK)
  scan over reference bits, which is why Aria-w/o-Cache tracks skew well
  while its working set fits (Fig 2).
* An EPC miss costs a secure page swap (~40 K cycles: context switch, copy,
  decrypt, integrity-tree update), and EWB always encrypts and writes back
  the victim regardless of dirtiness (Section IV-C).

The data itself stays accessible (paging is transparent to enclave code);
only costs and residency are simulated.
"""

from __future__ import annotations

from repro.errors import AriaError
from repro.sgx.costs import PAGE_SIZE, CostModel
from repro.sgx.meter import CycleMeter


class PagedEnclaveHeap:
    """A virtual enclave heap backed by a fixed number of resident EPC pages.

    ``alloc`` hands out virtual addresses (bump allocation).  ``touch`` walks
    the pages an access covers; non-resident pages charge a page swap and
    evict a CLOCK victim (charging its mandatory encrypted write-back).
    """

    def __init__(self, epc_pages: int, costs: CostModel, meter: CycleMeter):
        if epc_pages <= 0:
            raise AriaError(f"EPC must hold at least one page, got {epc_pages}")
        self._epc_pages = epc_pages
        self._costs = costs
        self._meter = meter
        self._next_addr = PAGE_SIZE  # page 0 reserved (null)
        self._resident: dict[int, bool] = {}  # page number -> reference bit
        self._clock_ring: list[int] = []
        self._clock_hand = 0
        self._total_pages = 0

    @property
    def resident_pages(self) -> int:
        return len(self._resident)

    def alloc(self, size: int) -> int:
        """Allocate ``size`` bytes of enclave-virtual memory; returns address."""
        if size <= 0:
            raise AriaError(f"allocation size must be positive, got {size}")
        addr = self._next_addr
        self._next_addr += size
        new_last_page = (self._next_addr - 1) // PAGE_SIZE
        self._total_pages = new_last_page  # pages 1..new_last_page
        return addr

    def _evict_one(self) -> None:
        """CLOCK: advance the hand, clearing reference bits, evict first 0."""
        if not self._clock_ring:
            raise AriaError("eviction requested from an empty EPC")
        while True:
            if self._clock_hand >= len(self._clock_ring):
                self._clock_hand = 0
            page = self._clock_ring[self._clock_hand]
            if page not in self._resident:
                # Stale ring entry from a prior eviction; drop it.
                self._clock_ring.pop(self._clock_hand)
                continue
            if self._resident[page]:
                self._resident[page] = False
                self._clock_hand += 1
                continue
            # Victim found: EWB always encrypts and writes the page back.
            del self._resident[page]
            self._clock_ring.pop(self._clock_hand)
            self._meter.charge_event("page_writeback", self._costs.page_writeback)
            return

    def touch(self, addr: int, size: int = 1, *, write: bool = False) -> int:
        """Access ``[addr, addr+size)``; returns the number of page faults."""
        if size <= 0:
            raise AriaError(f"touch size must be positive, got {size}")
        first = addr // PAGE_SIZE
        last = (addr + size - 1) // PAGE_SIZE
        faults = 0
        for page in range(first, last + 1):
            if page in self._resident:
                self._resident[page] = True
            else:
                faults += 1
                if len(self._resident) >= self._epc_pages:
                    self._evict_one()
                self._resident[page] = True
                self._clock_ring.append(page)
                self._meter.charge_event("page_swap", self._costs.page_swap)
        # The access itself: one EPC hit plus streaming bytes.
        self._meter.charge_event(
            "epc_access", self._costs.access_cost(size, in_epc=True)
        )
        return faults

    def prefault(self) -> None:
        """Mark the first ``epc_pages`` pages resident without charging.

        Used after the (unmetered) load phase so the run phase starts from a
        warm EPC, as the paper's steady-state measurements do.
        """
        self._resident.clear()
        self._clock_ring.clear()
        self._clock_hand = 0
        for page in range(1, min(self._total_pages, self._epc_pages) + 1):
            self._resident[page] = True
            self._clock_ring.append(page)
