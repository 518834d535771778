"""Experiment harness: builds schemes at scale, runs workloads, measures.

**Scaling** (DESIGN.md Section 4.6).  The paper's experiments use a 10 M-key
working set against a 91 MB EPC.  At Python speed we divide the keyspace
*and every EPC byte budget* by one ``scale`` factor (default 512), keeping
the ratios — working set : EPC : Secure Cache : ShieldStore root array —
that drive every figure.  Throughput is simulated cycles converted through
the platform clock, so numbers are directly comparable across schemes and
keyspace points regardless of Python overhead.

**Scheme sizing**, mirroring Section VI:

* Aria's Secure Cache is "as large as possible": the EPC budget minus every
  other trusted structure (computed in :func:`aria_cache_budget`).
* ShieldStore's bucket count is EPC-bound: the paper gives 64 MB of its
  91 MB EPC to MT roots (4 M buckets for 10 M keys); we keep that 64/91
  proportion at every scale.
* Aria's own hash table lives in untrusted memory, so its bucket count
  scales with the keyspace (load factor 2) — the asymmetry behind Fig 13.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from repro.baselines.aria_nocache import AriaNoCacheStore
from repro.baselines.enclave_baseline import EnclaveBaselineStore
from repro.baselines.plain_kv import PlainKvStore
from repro.baselines.shieldstore import ShieldStore
from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import KeyNotFoundError
from repro.merkle.layout import MerkleLayout
from repro.sgx.costs import SgxPlatform
from repro.sgx.meter import MeterPause
from repro.workloads.ycsb import Operation

#: The paper's platform: 91 MB usable EPC (HeapMaxSize setting, Section VI).
PAPER_EPC_BYTES = 91 * 1024 * 1024
#: EPC bytes ShieldStore dedicates to Merkle roots on the paper's machine.
PAPER_SHIELDSTORE_ROOT_BYTES = 64 * 1024 * 1024
#: The paper's 10 M-key default working set.
PAPER_KEYSPACE = 10_000_000

#: Default scale divisor for experiments (DESIGN.md Section 4.6).
DEFAULT_SCALE = 512

ARIA_LOAD_FACTOR = 2  # keys per hash bucket for Aria-H / baselines


def aria_buckets(n_keys: int, platform: SgxPlatform) -> int:
    """Aria-H's bucket count: load factor 2, capped by an EPC budget.

    The per-bucket entry counts (deletion detection, Section V-C) live in the
    EPC, so past a certain keyspace the bucket count must stop growing —
    we cap its EPC share at an eighth of the budget.  Chains lengthen
    beyond that point, but Aria's key hints keep chain walks cheap (unlike
    ShieldStore, whose whole-bucket MAC fold grows with the chain).
    """
    return max(16, min(n_keys // ARIA_LOAD_FACTOR, platform.epc_bytes // 8))


def aria_counters(n_keys: int, index: str = "hash",
                  order: int = AriaConfig.btree_order) -> int:
    """Counters Aria preallocates: one per sealed record, plus 5 %.

    A B+-tree also seals a separator for every leaf but the first, and a
    split leaves each leaf at least half of ``order + 1`` entries.
    """
    separators = n_keys // ((order + 1) // 2) if index == "bplustree" else 0
    return int((n_keys + separators) * 1.05) + 8


def scaled_platform(scale: int = DEFAULT_SCALE,
                    epc_bytes: int = PAPER_EPC_BYTES) -> SgxPlatform:
    return SgxPlatform(epc_bytes=max(4096, epc_bytes // scale))


def scaled_keys(scale: int = DEFAULT_SCALE,
                keyspace: int = PAPER_KEYSPACE) -> int:
    return max(64, keyspace // scale)


def auto_pin_levels(layout: MerkleLayout, epc_bytes: int,
                    fraction: float = 0.35) -> int:
    """Pin as many top MT levels as fit in ``fraction`` of the EPC.

    Mirrors the paper's sizing: for its 10 M-key setup Aria pins every
    level except L0 (Section IV-E); when the keyspace outgrows the EPC by 20x
    (Fig 13) the affordable depth shrinks and misses verify further.
    """
    budget = int(epc_bytes * fraction)
    best = 1  # the top level always fits (one node)
    for pin in range(2, layout.n_levels + 1):
        if layout.pinned_bytes(pin) <= budget:
            best = pin
        else:
            break
    return best


def aria_cache_budget(
    platform: SgxPlatform,
    *,
    n_keys: int,
    arity: int = 8,
    pin_levels: int = 3,
    n_buckets: Optional[int] = None,
    est_record_bytes: int = 80,
    margin: float = 0.05,
    n_counters: Optional[int] = None,
) -> int:
    """EPC left for the Secure Cache after every other trusted structure.

    Deductions: the counter-occupancy bitmap, the Merkle root, the pinned
    levels, the index's per-bucket counts, and an estimate of the heap
    allocator's chunk bitmaps (roughly 1 bit per 8 block bytes).
    """
    if n_counters is None:
        n_counters = aria_counters(n_keys)
    layout = MerkleLayout(n_counters=n_counters, arity=arity)
    pin_levels = min(pin_levels, layout.n_levels)
    buckets = n_buckets if n_buckets is not None \
        else aria_buckets(n_keys, platform)
    # Allocator chunk bitmaps cost ~1 bit per live block; budget 1.5 blocks
    # per record (size-class churn under variable-size updates).
    alloc_bitmap = (n_keys + n_keys // 2) // 8 + 1024
    reserved = (
        (n_counters + 7) // 8          # counter bitmap
        + 16                           # merkle root
        + layout.pinned_bytes(pin_levels)
        + buckets + 8                  # per-bucket counts + entrance
        + alloc_bitmap
    )
    budget = int((platform.epc_bytes - reserved) * (1.0 - margin))
    return max(0, budget)


def build_aria(
    *,
    n_keys: int,
    platform: SgxPlatform,
    index: str = "hash",
    arity: int = 8,
    pin_levels="auto",
    policy: str = "fifo",
    cache_fraction: float = 1.0,
    stop_swap_enabled: bool = True,
    allocator: str = "heap",
    value_hint: int = 16,
    seed: int = 0,
    **config_overrides,
) -> AriaStore:
    """Aria sized like the paper: Secure Cache as large as possible.

    ``pin_levels="auto"`` pins as many top MT levels as fit in 35 % of the
    EPC — every level except L0 at the paper's 10 M-key operating point.
    """
    n_buckets = aria_buckets(n_keys, platform)
    n_counters = aria_counters(n_keys, index, config_overrides.get(
        "btree_order", AriaConfig.btree_order))
    if pin_levels == "auto":
        layout = MerkleLayout(n_counters=n_counters, arity=arity)
        pin_levels = auto_pin_levels(layout, platform.epc_bytes)
    budget = aria_cache_budget(
        platform, n_keys=n_keys, arity=arity, pin_levels=pin_levels,
        n_buckets=n_buckets, est_record_bytes=48 + value_hint,
        n_counters=n_counters,
    )
    # The paper trips stop-swap below a 70 % hit ratio at 10 M keys, where
    # the zipf(0.99) head is thin; scaled-down zipf tails are fatter, so the
    # equivalent skew/uniform separation point is lower, and hysteresis
    # keeps borderline skewed runs from flapping into pinning-only mode.
    config_overrides.setdefault("stop_swap_threshold", 0.40)
    config_overrides.setdefault("stop_swap_patience", 3)
    config = AriaConfig(
        index=index,
        n_buckets=n_buckets,
        merkle_arity=arity,
        secure_cache_bytes=int(budget * cache_fraction),
        eviction_policy=policy,
        pin_levels=pin_levels,
        stop_swap_enabled=stop_swap_enabled,
        initial_counters=n_counters,
        allocator=allocator,
        heap_chunk_bytes=max(4096, (4 * 1024 * 1024) // DEFAULT_SCALE),
        seed=seed,
        **config_overrides,
    )
    return AriaStore(config, platform=platform)


def build_shieldstore(*, n_keys: int, platform: SgxPlatform,
                      seed: int = 0) -> ShieldStore:
    """ShieldStore with its EPC-bound root array (64/91 of the budget)."""
    root_bytes = platform.epc_bytes * PAPER_SHIELDSTORE_ROOT_BYTES \
        // PAPER_EPC_BYTES
    n_buckets = max(16, root_bytes // 16)
    return ShieldStore(n_buckets=n_buckets, platform=platform, seed=seed)


def build_aria_nocache(*, n_keys: int, platform: SgxPlatform,
                       index: str = "hash", seed: int = 0) -> AriaNoCacheStore:
    return AriaNoCacheStore(
        initial_counters=aria_counters(n_keys, index),
        index=index,
        n_buckets=max(16, n_keys // ARIA_LOAD_FACTOR),
        platform=platform,
        seed=seed,
    )


def build_baseline(*, n_keys: int, platform: SgxPlatform,
                   seed: int = 0) -> EnclaveBaselineStore:
    return EnclaveBaselineStore(
        n_buckets=max(16, n_keys // ARIA_LOAD_FACTOR),
        platform=platform, seed=seed,
    )


def build_plain(*, n_keys: int, platform: SgxPlatform,
                seed: int = 0) -> PlainKvStore:
    return PlainKvStore(
        n_buckets=max(16, n_keys // ARIA_LOAD_FACTOR),
        platform=platform, seed=seed,
    )


SCHEME_BUILDERS = {
    "aria": build_aria,
    "shieldstore": build_shieldstore,
    "aria_nocache": build_aria_nocache,
    "baseline": build_baseline,
    "plain": build_plain,
}


@dataclass
class RunResult:
    """One measured run of an operation stream against one store."""

    scheme: str
    ops: int
    cycles: float
    throughput: float            # ops/s at the platform clock
    events: dict = field(default_factory=dict)
    hit_ratio: Optional[float] = None
    latencies: Optional[list] = None   # per-op simulated cycles, if collected

    @property
    def cycles_per_op(self) -> float:
        return self.cycles / self.ops if self.ops else 0.0

    def percentile(self, p: float) -> float:
        """Per-op simulated-cycle latency percentile (p in [0, 100]).

        Requires the run to have been measured with
        ``collect_latencies=True``.
        """
        if not self.latencies:
            raise ValueError("run was not measured with collect_latencies")
        ordered = sorted(self.latencies)
        rank = min(len(ordered) - 1, max(0, int(len(ordered) * p / 100.0)))
        return ordered[rank]

    def latency_summary(self) -> dict:
        return {p: self.percentile(p) for p in (50, 90, 99, 99.9)}


def _execute(store, operations: Iterable[Operation]) -> int:
    count = 0
    for op in operations:
        if op.kind == "get":
            try:
                store.get(op.key)
            except KeyNotFoundError:
                pass
        else:
            store.put(op.key, op.value)
        count += 1
    return count


def run_operations(store, operations: Iterable[Operation], scheme: str = "",
                   collect_latencies: bool = False) -> RunResult:
    """Execute a run-phase stream and convert cycles to throughput.

    With ``collect_latencies`` each operation's simulated cycles are
    recorded individually, enabling tail-latency percentiles.
    """
    meter = store.enclave.meter
    before = meter.snapshot()
    latencies: Optional[list] = None
    if collect_latencies:
        latencies = []
        count = 0
        for op in operations:
            start = meter.cycles
            _execute(store, (op,))
            latencies.append(meter.cycles - start)
            count += 1
    else:
        count = _execute(store, operations)
    delta = before.delta(meter.snapshot())
    throughput = (
        store.enclave.platform.cpu_hz * count / delta.cycles
        if delta.cycles > 0 else 0.0
    )
    hit_ratio = None
    if hasattr(store, "cache_stats"):
        stats = store.cache_stats()
        hit_ratio = stats.get("hit_ratio")
    return RunResult(
        scheme=scheme or getattr(store, "name", type(store).__name__),
        ops=count,
        cycles=delta.cycles,
        throughput=throughput,
        events=dict(delta.events),
        hit_ratio=hit_ratio,
        latencies=latencies,
    )


def warm_store(store, workload, n_ops: int = 1500) -> None:
    """Replay a differently-seeded slice of the workload, unmetered."""
    warm = replace(workload, seed=workload.seed + 7919)
    with MeterPause(store.enclave.meter):
        _execute(store, warm.operations(n_ops))


def load_and_run(store, workload, n_ops: int, scheme: str = "",
                 warmup_ops: int = 1500) -> RunResult:
    """Load the workload's dataset, warm the steady state, measure ``n_ops``.

    Load and warmup are unmetered — the paper reports steady-state
    throughput; the warmup replays a differently-seeded slice of the same
    distribution so caches (and paging residency) reflect it.
    """
    store.load(workload.load_items())
    if warmup_ops:
        warm = replace(workload, seed=workload.seed + 7919)
        with MeterPause(store.enclave.meter):
            _execute(store, warm.operations(warmup_ops))
    if hasattr(store, "counters") and hasattr(store.counters, "reset_stats"):
        store.counters.reset_stats()
    return run_operations(store, workload.operations(n_ops), scheme=scheme)
