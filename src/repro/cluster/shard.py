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

:class:`ShardHandle` is the contract the layers above read: the base of
:class:`Shard` and of every other handle that can stand in a shard's place.
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
    #: :data:`MIN_SHARD_EPC_BYTES` when built: :attr:`floored_epc_bytes`).
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

    @property
    def floored_epc_bytes(self) -> int:
        """The EPC the enclave is built with, wherever it lives."""
        return max(MIN_SHARD_EPC_BYTES, self.epc_bytes)

    def build(self) -> "Shard":
        return Shard(self)


class ShardHandle:
    """What every layer above a shard may ask of whatever stands in its place.

    The base of :class:`Shard`, :class:`~repro.cluster.remote
    .RemoteShardHandle`, :class:`~repro.cluster.replication.ReplicaGroup`
    and the fault injector's wrapper.  A handle supplies
    ``shard_id``, ``store``, ``server`` (``flush_batch(requests)``),
    ``meter``, ``epc_bytes``, ``ops_routed`` and ``stats()``; every other
    member a caller reads is declared here with the default for "one healthy
    enclave in this process" and overridden only where that is not true
    (ARCHITECTURE §10 tabulates who overrides and who reads each).
    """

    crashed = False      # enclave dead: touching it raises ShardCrashedError
    partitioned = False  # cut off but alive: ShardUnreachableError
    replicas = None      # a ReplicaGroup's Replica list
    durability = None    # a ReplicaGroup's sealed sidecar (repro.persist)
    failovers = 0        # requests a ReplicaGroup re-served on a peer
    #: Ships what ``flush_submit`` queued, on a handle that queues (a remote
    #: one); None where the submit already ran the batch, so the
    #: coordinator's per-call send costs an in-process shard nothing.
    flush_send = None
    _load_mark = 0.0

    def flush_submit(self, requests):
        """Hand the enclave a batch; returns the ticket to collect it by.

        Here the flush runs at once and the ticket is its responses, so an
        in-process enclave stays synchronous; a remote handle queues the
        batch for ``flush_send`` and answers later, in submission order.
        """
        return self.server.flush_batch(requests)

    def flush_collect(self, ticket, timeout: Optional[float] = None) -> list:
        """The responses of one submitted batch; ``timeout`` bounds a
        remote handle's wait for them."""
        return ticket

    def load_since_mark(self) -> float:
        """Cycles consumed since :meth:`mark_load` — the hot-shard signal."""
        return self.meter.cycles - self._load_mark

    def mark_load(self) -> None:
        self._load_mark = self.meter.cycles

    def close(self, timeout: float = 5.0) -> None:
        """Release what backs the handle (worker, link, replicas)."""

    def kill(self) -> None:
        """Destroy the enclave where it lives (a real SIGKILL for a worker)."""

    def partition(self, duration: float = 0.0) -> None:
        """Sever the handle's own link, if it models one."""

    def heal(self) -> None:
        """Collapse a partition's remaining heal window."""

    def reconnect(self) -> bool:
        """Re-establish a severed link; False when there is none to."""
        return False

    def plant_corruption(self, key: bytes = b"") -> bool:
        """Run the corruption plant beside the enclave."""
        from repro.attacks.scenarios import plant_corruption

        return plant_corruption(self.store, key)

    def flush_reads_fallback(self, requests):
        """Serve reads while avoiding the primary; None without a secondary."""
        return None


class Shard(ShardHandle):
    """An independent enclave + Aria store serving one ring partition."""

    def __init__(self, spec: EnclaveSpec):
        self.shard_id = spec.shard_id
        self.epc_bytes = spec.floored_epc_bytes
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

    @property
    def meter(self):
        return self.store.enclave.meter

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Shard({self.shard_id!r}, keys={len(self.store)}, "
                f"epc={self.epc_bytes})")
