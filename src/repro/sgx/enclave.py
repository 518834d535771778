"""The enclave facade: the trusted side of the simulator.

An :class:`Enclave` bundles the pieces every secure-KV design needs:

* a cycle meter and cost model,
* an EPC byte budget (software-managed structures reserve here),
* optionally a paged enclave heap (for designs that rely on hardware secure
  paging: Baseline and Aria w/o Cache),
* the untrusted memory space,
* session keys and a crypto backend.

All code paths that "run inside the enclave" go through these methods so
costs are charged uniformly: a read of untrusted memory pays the untrusted
access cost, a MAC pays per-byte crypto cost plus the copy of its input into
the enclave, an OCALL pays the boundary-crossing cost, and so on.
"""

from __future__ import annotations

import zlib
from typing import Optional

from repro.crypto.backend import CryptoBackend, get_backend
from repro.crypto.keys import KeyMaterial
from repro.errors import IntegrityError
from repro.sgx.costs import CACHELINE, PAGE_SIZE, CostModel, SgxPlatform
from repro.sgx.epc import EpcBudget
from repro.sgx.memory import UntrustedMemory
from repro.sgx.meter import CycleMeter
from repro.sgx.paging import PagedEnclaveHeap

#: ``IntegrityError`` text for a failed MAC check, given what it protects.
MAC_MISMATCH = "MAC mismatch on {}: untrusted data modified"


class Enclave:
    """Trusted execution context with cycle-accurate cost accounting."""

    def __init__(
        self,
        platform: Optional[SgxPlatform] = None,
        *,
        keys: Optional[KeyMaterial] = None,
        crypto_backend: str = "fast",
        paged_heap_pages: Optional[int] = None,
    ):
        self.platform = platform or SgxPlatform()
        self.costs: CostModel = self.platform.costs
        self.meter = CycleMeter()
        self.epc = EpcBudget(capacity=self.platform.epc_bytes)
        self.untrusted = UntrustedMemory()
        self.keys = keys or KeyMaterial.from_seed(0)
        self.crypto: CryptoBackend = get_backend(crypto_backend)
        # The enclave owns its two keys for life: their schedules are
        # absorbed here, once (``CryptoBackend.prepare``).
        self._mac_key = self.crypto.prepare(self.keys.mac_key)
        self._encryption_key = self.crypto.prepare(self.keys.encryption_key)
        self.paged_heap: Optional[PagedEnclaveHeap] = None
        if paged_heap_pages is not None:
            self.paged_heap = PagedEnclaveHeap(paged_heap_pages, self.costs, self.meter)
            # The paged heap consumes the whole EPC budget it was given.
            self.epc.reserve("paged_heap", paged_heap_pages * PAGE_SIZE)

    # Every primitive below is a *leaf*: one ``meter.enabled`` test, one
    # ``meter.cycles += <linear cost>``, one ``meter.events[...] += n``,
    # then the work — spelled inline rather than through
    # ``CostModel.access_cost/mac_cost/enc_cost`` and
    # ``CycleMeter.charge/count/charge_event``, which remain the public
    # definition (tests pin the two spellings together).  A cached Get fires
    # ~20 of these, so a primitive that is three Python calls deep makes the
    # host spend most of its time on plumbing the paper does not model.
    # ``self.costs`` and ``self.meter`` are bound once in ``__init__`` and
    # never reassigned.  Each cost is computed whole and added to
    # ``meter.cycles`` in one step, in program order: the total is a float
    # and its last ulp depends on the association under scaled cost models.

    # -- boundary crossings --------------------------------------------------

    def ecall(self) -> None:
        """Enter the enclave (client request dispatch)."""
        meter = self.meter
        if meter.enabled:
            meter.cycles += self.costs.ecall
            meter.events["ecall"] += 1

    def ocall(self) -> None:
        """Exit the enclave (e.g. an untrusted malloc without Aria's allocator)."""
        meter = self.meter
        if meter.enabled:
            meter.cycles += self.costs.ocall
            meter.events["ocall"] += 1

    # -- untrusted memory traffic ---------------------------------------------

    def read_untrusted(self, addr: int, size: int) -> bytes:
        """Dependent load from untrusted memory into enclave registers/stack."""
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            cost = costs.untrusted_access
            if size > CACHELINE:  # bytes past the first line stream
                cost += (size - CACHELINE) * costs.mem_per_byte
            meter.cycles += cost
            meter.events["untrusted_access"] += 1
        return self.untrusted.read(addr, size)

    def write_untrusted(self, addr: int, data: bytes) -> None:
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            size = len(data)
            cost = costs.untrusted_access
            if size > CACHELINE:  # bytes past the first line stream
                cost += (size - CACHELINE) * costs.mem_per_byte
            meter.cycles += cost
            meter.events["untrusted_access"] += 1
        self.untrusted.write(addr, data)

    # -- EPC-resident data traffic ---------------------------------------------

    def epc_touch(self, nbytes: int = 8) -> None:
        """One access to software-managed EPC data (Secure Cache, bitmaps...)."""
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            cost = costs.epc_access
            if nbytes > CACHELINE:  # bytes past the first line stream
                cost += (nbytes - CACHELINE) * costs.mem_per_byte
            meter.cycles += cost
            meter.events["epc_access"] += 1

    def epc_copy_in(self, nbytes: int) -> None:
        """Copy ``nbytes`` from untrusted memory into the EPC (node swap-in)."""
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            stream = (nbytes - CACHELINE) * costs.mem_per_byte \
                if nbytes > CACHELINE else 0.0
            meter.cycles += costs.untrusted_access + stream
            meter.events["untrusted_access"] += 1
            meter.cycles += costs.epc_access + stream
            meter.events["epc_access"] += 1

    # -- crypto (all executed inside the enclave) -------------------------------

    def mac(self, message: bytes) -> bytes:
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            size = len(message)
            meter.cycles += costs.mac_base + size * costs.mac_per_byte
            events = meter.events
            events["mac_bytes"] += size
            events["mac_ops"] += 1
        return self.crypto.mac(self._mac_key, message)

    def mac_verify(self, message: bytes, tag: bytes) -> bool:
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            size = len(message)
            meter.cycles += costs.mac_base + size * costs.mac_per_byte
            events = meter.events
            events["mac_bytes"] += size
            events["mac_ops"] += 1
        return self.crypto.mac_verify(self._mac_key, message, tag)

    def require_mac(self, message: bytes, tag: bytes, what: str) -> None:
        """Verify or raise :class:`IntegrityError` naming the protected object."""
        if not self.mac_verify(message, tag):
            raise IntegrityError(MAC_MISMATCH.format(what))

    def encrypt(self, counter: bytes, plaintext: bytes) -> bytes:
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            size = len(plaintext)
            meter.cycles += costs.enc_base + size * costs.enc_per_byte
            meter.events["enc_bytes"] += size
        return self.crypto.encrypt(self._encryption_key, counter, plaintext)

    def decrypt(self, counter: bytes, ciphertext: bytes) -> bytes:
        meter = self.meter
        if meter.enabled:
            costs = self.costs
            size = len(ciphertext)
            meter.cycles += costs.enc_base + size * costs.enc_per_byte
            meter.events["enc_bytes"] += size
        return self.crypto.decrypt(self._encryption_key, counter, ciphertext)

    # -- misc in-enclave work ----------------------------------------------------

    def hash_key(self, key: bytes) -> int:
        """Bucket hash / key-hint hash computed inside the enclave."""
        meter = self.meter
        if meter.enabled:
            meter.cycles += self.costs.hash_compute
        return zlib.crc32(key)

    def compare(self, a: bytes, b: bytes) -> bool:
        meter = self.meter
        if meter.enabled:
            len_a, len_b = len(a), len(b)
            meter.cycles += self.costs.compare_per_byte * (
                len_a if len_a > len_b else len_b)
        return a == b

    def work(self, cycles: float) -> None:
        """Charge generic in-enclave bookkeeping cycles."""
        meter = self.meter
        if meter.enabled:
            meter.cycles += cycles

    # -- reporting ----------------------------------------------------------------

    def throughput(self, ops: int, snapshot_before=None) -> float:
        """Ops/s given cycles charged since ``snapshot_before`` (or since 0)."""
        cycles = self.meter.cycles
        if snapshot_before is not None:
            cycles -= snapshot_before.cycles
        if cycles <= 0 or ops <= 0:
            return 0.0
        return self.platform.cpu_hz * ops / cycles
