"""Configuration for an Aria store instance.

Every optimization the paper ablates (Fig 12) and every knob its sensitivity
studies sweep (Figs 13-16) is a field here, so one config object fully
describes a scheme variant:

* ``AriaBase``      -> ``AriaConfig(allocator="ocall", policy="lru", pin_levels=0)``
* ``+HeapAlloc``    -> ``allocator="heap"``  (still LRU, no pinning)
* ``+PIN``          -> ``pin_levels=3``      (LRU)
* ``+FIFO``         -> ``policy="fifo"``     (no pinning)
* ``Aria``          -> heap + FIFO + pinning (the defaults)
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass
class AriaConfig:
    """Tunable parameters of an Aria store."""

    # Index scheme (Section V-C): "hash" (Aria-H), "btree" (Aria-T), or
    # "bplustree" (the Section VII future-work index, implemented here).
    index: str = "hash"
    n_buckets: int = 4096
    btree_order: int = 16

    # Merkle tree geometry (Section IV-D, Fig 15).
    merkle_arity: int = 8

    # Secure Cache (Section IV-B, IV-E).
    secure_cache_bytes: int = 4 * 1024 * 1024
    eviction_policy: str = "fifo"
    pin_levels: int = 3
    stop_swap_enabled: bool = True
    stop_swap_threshold: float = 0.70
    stop_swap_window: int = 4096
    stop_swap_patience: int = 1

    # Counter area / redirection layer (Section V-C).
    initial_counters: int = 1 << 16
    #: New counter areas created on exhaustion get this many counters.
    expansion_counters: int = 1 << 16
    #: Secure Cache bytes granted to each expansion area's tree.
    expansion_cache_bytes: int = 1 << 20

    # Allocation strategy (Section V-B / Fig 12): "heap" or "ocall".
    allocator: str = "heap"
    heap_chunk_bytes: int = 4 * 1024 * 1024

    # Crypto backend: "fast" (benchmarks) or "real" (AES from scratch).
    crypto_backend: str = "fast"

    # Ablation switches for the semantic-aware optimizations (Section IV-C).
    swap_encrypt: bool = False       # True: re-add SGX-paging-style encryption
    writeback_clean: bool = False    # True: re-add EWB-style forced write-back

    # Section VII mitigation sketch: dummy bucket walks per Get to blur
    # key-access frequencies (hash index only; 0 = off, as in the paper).
    dummy_bucket_reads: int = 0

    # Multi-tenant Secure Cache partitioning (ARCHITECTURE §16): owner
    # token (hex digest embedded in tenant-prefixed keys) -> guaranteed
    # fraction of each Secure Cache's entries.  None = unarmed; the store
    # then behaves bit-identically to a pre-tenancy build.  Plain dict of
    # str -> float so it crosses process/socket spawn specs unchanged.
    tenant_quotas: "dict | None" = None

    # Deterministic seeds.
    seed: int = 0

    def __post_init__(self) -> None:
        if self.index not in ("hash", "btree", "bplustree"):
            raise ConfigurationError(f"unknown index scheme {self.index!r}")
        if self.allocator not in ("heap", "ocall"):
            raise ConfigurationError(f"unknown allocator {self.allocator!r}")
        if self.n_buckets < 1:
            raise ConfigurationError("n_buckets must be positive")
        if self.btree_order < 3:
            raise ConfigurationError("btree_order must be at least 3")
        if self.merkle_arity < 2:
            raise ConfigurationError("merkle_arity must be at least 2")
        if self.initial_counters < 1:
            raise ConfigurationError("initial_counters must be positive")
        if not 0.0 <= self.stop_swap_threshold <= 1.0:
            raise ConfigurationError("stop_swap_threshold must be in [0, 1]")
        if self.stop_swap_window < 1:
            raise ConfigurationError("stop_swap_window must be positive")
        if self.tenant_quotas is not None:
            if not self.tenant_quotas:
                raise ConfigurationError(
                    "tenant_quotas must be None or non-empty")
            for owner, fraction in self.tenant_quotas.items():
                if not 0.0 < float(fraction) <= 1.0:
                    raise ConfigurationError(
                        f"tenant quota {fraction!r} for {owner!r} not in "
                        "(0, 1]")
            if sum(self.tenant_quotas.values()) > 1.0 + 1e-9:
                raise ConfigurationError("tenant quotas sum above 1.0")
