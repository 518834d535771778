"""One cluster shard: an enclave-backed Aria store plus its request server.

Generalizes the paper's Fig 16a multi-tenant split — where one machine's
EPC is partitioned across 2 or 4 independent enclaves — to N shards whose
per-shard EPC budget is carved out of a cluster-wide budget.  Each shard is
a *separate* :class:`~repro.sgx.enclave.Enclave`: its own cycle meter, its
own EPC budget, its own Secure Cache sized by the same "as large as
possible" rule the single-store benchmarks use (via
:func:`repro.bench.harness.build_aria`).

Shards also keep the small amount of bookkeeping the balancer needs: a
load mark (cycles consumed since the last balancer inspection) so hot-shard
detection can work on windowed deltas rather than lifetime totals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.bench.harness import build_aria
from repro.errors import InvalidWorkersError
from repro.server.server import AriaServer
from repro.sgx.costs import SgxPlatform

#: Floor for a shard's EPC carve-out; below this the Merkle pinning math
#: degenerates (mirrors the scaled_platform floor in the bench harness).
MIN_SHARD_EPC_BYTES = 4096

#: Environment override for the per-shard enclave worker count, consulted
#: by the cluster builders when no explicit ``workers=`` is given (how the
#: CI ``parallel`` job re-runs whole suites at ``workers=4``).
WORKERS_ENV_VAR = "ARIA_SHARD_WORKERS"


def workers_from_env() -> Optional[int]:
    """``ARIA_SHARD_WORKERS`` as a validated count; None when unset.

    The one place the variable is read: a value that is not a positive
    integer is refused here, by name, instead of surfacing later as a bare
    ``int()`` failure from whichever builder happened to run first.
    """
    raw = os.environ.get(WORKERS_ENV_VAR)
    if not raw:
        return None
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise InvalidWorkersError(
            f"{WORKERS_ENV_VAR}={raw!r} is not a positive integer")
    return workers


def resolve_workers(workers: Optional[int] = None) -> int:
    """Explicit argument beats ``ARIA_SHARD_WORKERS`` beats 1.

    Resolution happens in the *builder's* process: the resolved integer
    travels in the :class:`EnclaveSpec`, so a shard-host started with a
    different environment still builds the shard the coordinator asked
    for.
    """
    if workers is None:
        return workers_from_env() or 1
    if workers < 1:
        raise InvalidWorkersError("shard workers must be >= 1")
    return workers


@dataclass(frozen=True)
class EnclaveSpec:
    """The whole recipe for one enclave, spelled once.

    The same frozen object describes a shard to every
    :class:`~repro.cluster.backend.ShardBackend`, crosses the worker pipe
    and the attested TCP hop unchanged, and is what restarts and elastic
    adds derive from (``dataclasses.replace(spec, seed=...)``) — so the
    enclave is built identically wherever it lives.
    """

    shard_id: str
    #: This enclave's carve of the cluster EPC envelope (floored at
    #: :data:`MIN_SHARD_EPC_BYTES` when built).
    epc_bytes: int
    #: Keys to provision for — the worst-case ownership, not the expected
    #: 1/N share: ring imbalance and balancer migrations can concentrate
    #: keys on one shard, and a counter-area expansion is not affordable
    #: once the Secure Cache has claimed "as large as possible" (the
    #: paper's sizing rule).  Counter capacity is cheap (1 EPC bit per
    #: counter); the Secure Cache absorbs the rest.
    capacity_keys: int
    index: str = "hash"
    #: Seeds the enclave's key material; every enclave gets its own.
    seed: int = 0
    #: Simulated enclave workers (the intra-shard batch-parallelism knob,
    #: see :mod:`repro.server.batchexec`), already resolved to an integer.
    workers: int = 1
    #: ``build_aria``/``AriaConfig`` overrides (``value_hint``,
    #: ``crypto_backend``, ``tenant_quotas``, ...).
    config_overrides: Mapping[str, object] = field(default_factory=dict)

    def build(self) -> "Shard":
        return Shard(self)


class Shard:
    """An independent enclave + Aria store serving one ring partition."""

    def __init__(self, spec: EnclaveSpec):
        self.shard_id = spec.shard_id
        self.epc_bytes = max(MIN_SHARD_EPC_BYTES, spec.epc_bytes)
        self.store = build_aria(
            n_keys=max(64, spec.capacity_keys),
            platform=SgxPlatform(epc_bytes=self.epc_bytes),
            index=spec.index,
            seed=spec.seed,
            **spec.config_overrides,
        )
        self.server = AriaServer(self.store, workers=spec.workers)
        self.workers = spec.workers
        #: Requests routed here since construction (front-door count; the
        #: enclave's own op_* events count executed operations).
        self.ops_routed = 0
        self._load_mark = 0.0

    # -- balancer bookkeeping ----------------------------------------------------

    @property
    def meter(self):
        return self.store.enclave.meter

    def load_since_mark(self) -> float:
        """Cycles consumed since :meth:`mark_load` — the hot-shard signal."""
        return self.meter.cycles - self._load_mark

    def mark_load(self) -> None:
        self._load_mark = self.meter.cycles

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> dict:
        """One shard's row of the cluster report."""
        events = self.meter.events
        cache = self.store.cache_stats()
        row = {
            "shard": self.shard_id,
            "keys": len(self.store),
            "ops_routed": self.ops_routed,
            "ops_executed": (events["op_get"] + events["op_put"]
                             + events["op_delete"]),
            "cycles": self.meter.cycles,
            "ecalls": events["ecall"],
            "page_swaps": events["page_swap"],
            "cache_hit_ratio": cache["hit_ratio"],
            "cache_evictions": cache["evictions"],
            "epc_bytes": self.epc_bytes,
            "epc_used": self.store.enclave.epc.used,
        }
        exec_stats = self.server.exec_stats()
        if exec_stats is not None:
            row["batchexec"] = exec_stats
        return row

    def close(self, timeout: float = 5.0) -> None:
        """Inline shards hold no external resources; process handles do."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Shard({self.shard_id!r}, keys={len(self.store)}, "
                f"epc={self.epc_bytes})")
