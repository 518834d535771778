"""Merkle tree storage: continuous untrusted node arrays plus the EPC root.

:class:`MerkleTree` owns the bytes.  Verification policy (stop at the first
cached ancestor, caching, eviction) lives in
:mod:`repro.cache.secure_cache`; what lives here is everything that is true
regardless of caching:

* one continuous untrusted region per level (Fig 5's memory layout),
* the 16-byte root MAC pinned in the EPC,
* node read/write with cycle charging,
* MAC computation over a node (always done inside the enclave, so swapping a
  node in pays the untrusted->EPC copy),
* the secure initialization of Section IV-B: random counters, then MACs computed
  bottom-up inside the enclave until the root is produced.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.errors import ReplayError
from repro.merkle.layout import COUNTER_SIZE, MAC_SIZE, MerkleLayout
from repro.sgx.enclave import Enclave


class MerkleTree:
    """A flat n-ary Merkle tree in untrusted memory with its root in the EPC."""

    EPC_CONSUMER = "merkle_root"

    def __init__(
        self,
        enclave: Enclave,
        layout: MerkleLayout,
        *,
        rng: Optional[random.Random] = None,
    ):
        self._enclave = enclave
        self.layout = layout
        # ``read_node``/``write_node`` run on every Secure Cache miss and
        # do their own address arithmetic from these two constants.
        self._node_size = layout.node_size
        # One continuous region per level; address arithmetic only.
        self._bases = tuple(
            enclave.untrusted.alloc(count * layout.node_size)
            for count in layout.level_counts
        )
        enclave.epc.reserve(self.EPC_CONSUMER, MAC_SIZE)
        self.root_mac = b"\x00" * MAC_SIZE
        self._initialize(rng or random.Random(0))

    def rebuild_above_leaves(self) -> None:
        """Recompute every level above L0 from the untrusted leaf contents.

        The second half of the secure initialization: every parent slot
        gets its child's MAC, bottom-up, and the root is refreshed.  Runs
        inside the enclave.
        """
        layout = self.layout
        for level in range(1, layout.n_levels):
            for index in range(layout.nodes_at_level(level)):
                node = bytearray(self._node_size)
                for slot, child in enumerate(layout.children_of(level, index)):
                    node[slot * MAC_SIZE : (slot + 1) * MAC_SIZE] = (
                        self.node_mac(self.read_node(level - 1, child)))
                self.write_node(level, index, bytes(node))
        self.root_mac = self.node_mac(self.read_node(layout.top_level, 0))

    # -- raw node access (cycle-charged) ---------------------------------------

    def node_addr(self, level: int, index: int) -> int:
        """Untrusted address of a node: level base + index * node size."""
        return self._bases[level] + index * self._node_size

    def read_node(self, level: int, index: int) -> bytes:
        """Read a node's bytes from untrusted memory (charged)."""
        node_size = self._node_size
        return self._enclave.read_untrusted(
            self._bases[level] + index * node_size, node_size)

    def write_node(self, level: int, index: int, data: bytes) -> None:
        """Write a node back to untrusted memory — in plaintext.

        Security metadata is swapped out *without encryption* (Section IV-C): its
        plaintext is meaningless to an attacker, integrity alone suffices, so
        Aria skips the encryption SGX paging would force.
        """
        node_size = self._node_size
        if len(data) != node_size:
            raise ValueError(
                f"node write must be {node_size} B, got {len(data)}"
            )
        self._enclave.write_untrusted(
            self._bases[level] + index * node_size, data)

    def node_mac(self, node_bytes: bytes) -> bytes:
        """MAC of a node's content, computed inside the enclave."""
        enclave = self._enclave
        meter = enclave.meter
        if meter.enabled:
            meter.events["mt_verify"] += 1
        return enclave.mac(node_bytes)

    # -- parent-slot helpers -----------------------------------------------------

    def read_parent_slot(self, level: int, index: int, parent_bytes: bytes) -> bytes:
        """Extract this node's stored MAC from its parent's bytes."""
        _, _, offset = self.layout.parent_of(level, index)
        return parent_bytes[offset : offset + MAC_SIZE]

    def check_against_root(self, top_node_bytes: bytes) -> None:
        """Verify the single top-level node against the EPC-resident root."""
        self._enclave.epc_touch(MAC_SIZE)
        computed = self.node_mac(top_node_bytes)
        if computed != self.root_mac:
            raise ReplayError(
                "Merkle root mismatch: counters in untrusted memory were "
                "replayed or modified"
            )

    def set_root(self, new_root: bytes) -> None:
        self._enclave.epc_touch(MAC_SIZE)
        self.root_mac = new_root

    # -- secure initialization (Section IV-B) -----------------------------------------

    def _initialize(self, rng: random.Random) -> None:
        """Assign random counters, then build MACs bottom-up to the root.

        Executed inside the enclave.  Experiments wrap construction in
        :class:`repro.sgx.meter.MeterPause` since the paper excludes setup
        from its throughput numbers.
        """
        node_size = self._node_size
        # Level 0: random initial counters (full node granularity writes).
        for index in range(self.layout.nodes_at_level(0)):
            node = rng.getrandbits(node_size * 8).to_bytes(node_size, "little")
            self.write_node(0, index, node)
        # Upper levels: parent holds the MAC of each child node.
        self.rebuild_above_leaves()

    # -- uncached verification (used without a Secure Cache) ---------------------

    def verify_node_uncached(self, level: int, index: int) -> bytes:
        """Verify a node against the full path to the root; returns its bytes.

        This is the worst-case O(h) verification the Secure Cache exists to
        avoid; baselines and the stop-swap mode use it with pinning instead.
        """
        node_bytes = self.read_node(level, index)
        self._verify_upward(level, index, node_bytes)
        return node_bytes

    def _verify_upward(self, level: int, index: int, node_bytes: bytes) -> None:
        if level == self.layout.top_level:
            self.check_against_root(node_bytes)
            return
        computed = self.node_mac(node_bytes)
        parent_level, parent_index, _ = self.layout.parent_of(level, index)
        parent_bytes = self.read_node(parent_level, parent_index)
        stored = self.read_parent_slot(level, index, parent_bytes)
        if computed != stored:
            raise ReplayError(
                f"Merkle node (level {level}, index {index}) failed "
                "verification: replay or tampering detected"
            )
        self._verify_upward(parent_level, parent_index, parent_bytes)

    # -- counter helpers -----------------------------------------------------------

    def counter_from_node(self, node_bytes: bytes, counter_id: int) -> bytes:
        _, offset = self.layout.counter_slot(counter_id)
        return node_bytes[offset : offset + COUNTER_SIZE]

    def store_counter_in_node(
        self, node: bytearray, counter_id: int, value: bytes
    ) -> None:
        _, offset = self.layout.counter_slot(counter_id)
        node[offset : offset + COUNTER_SIZE] = value
