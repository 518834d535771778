"""Typed cluster construction: the one door every cluster is built through.

:class:`ClusterConfig` is the single construction surface (ARCHITECTURE
§16): topology, EPC envelope, hosting backend, workers, replication, and
the nested sub-systems all live in one frozen, validated object.

>>> config = ClusterConfig(n_shards=2, n_keys=5_000, scale=2048,
...                        tenancy=TenancyConfig(tenants=(
...                            TenantConfig("acme", rate=200.0, burst=50.0,
...                                         cache_quota=0.4),
...                            TenantConfig("blue"),
...                        )))
>>> coordinator = config.build()

Sub-systems nest as typed sub-configs, each ``None`` (disarmed) by
default: :class:`~repro.cluster.overload.OverloadConfig` for admission/
degradation, :class:`DurabilityConfig` for the sealed WAL sidecars, and
:class:`~repro.cluster.tenancy.TenancyConfig` for the multi-tenant front
door.  The typed surface is packaging, never semantics: a sub-config left
``None`` adds nothing to the request path.

Every enclave the config implies is described by one
:class:`~repro.cluster.shard.EnclaveSpec` (:meth:`ClusterConfig
.enclave_spec`): the EPC carve is :meth:`ClusterConfig
.per_enclave_epc_bytes`, the capacity is the whole keyspace, and only the
id and the seed differ per enclave.  :meth:`ClusterConfig.build` assembles
plain shards itself and hands replica groups (``replication > 1`` or any
durability) to :func:`~repro.cluster.replication.build_replicated_cluster`.

**Precedence** is explicit argument > config > environment: a value you
pass always wins; a field left at its default defers to the config; the
``ARIA_*`` environment variables are consulted only when the field is
``None`` — :meth:`ClusterConfig.from_env` pins the environment's answer
into the config at construction time so later ``os.environ`` churn cannot
change what you build.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional

from repro.bench.harness import PAPER_EPC_BYTES
from repro.cluster.backend import (
    BACKEND_ENV_VAR,
    BackendSpec,
    resolve_backend,
)
from repro.cluster.overload import OverloadConfig
from repro.cluster.ring import DEFAULT_VNODES, VnodeSpec
from repro.cluster.shard import (
    MIN_SHARD_EPC_BYTES,
    EnclaveSpec,
    resolve_workers,
    workers_from_env,
)
from repro.cluster.tenancy import TenancyConfig
from repro.errors import ConfigurationError

DEFAULT_N_SHARDS = 4
DEFAULT_N_KEYS = 20_000
DEFAULT_EPOCH_EVERY = 32


@dataclass(frozen=True)
class DurabilityConfig:
    """Sealed-WAL persistence for every partition (ARCHITECTURE §12).

    Durability rides replica-group batch boundaries, so a config carrying
    one builds replica groups even at ``replication=1`` (what
    ``serve --durable`` does).
    """

    #: Directory for the sealed snapshot/log blobs and the monotonic
    #: counter store.
    data_dir: str
    #: Group commits between monotonic-counter bindings (lower = smaller
    #: offline-rollback window, higher amortized counter cost).
    epoch_every: int = DEFAULT_EPOCH_EVERY

    def __post_init__(self):
        if not self.data_dir:
            raise ConfigurationError("durability needs a data_dir")
        if self.epoch_every < 1:
            raise ConfigurationError(
                f"epoch_every must be >= 1, not {self.epoch_every}")


@dataclass(frozen=True)
class ClusterConfig:
    """Everything needed to build (and serve) one cluster, in one place."""

    n_shards: int = DEFAULT_N_SHARDS
    #: Cluster-wide keyspace the shards are provisioned for.
    n_keys: int = DEFAULT_N_KEYS
    cluster_epc_bytes: int = PAPER_EPC_BYTES
    #: EPC scale divisor, as in the bench harness's ``scaled_platform``.
    scale: int = 1
    index: str = "hash"
    vnodes: VnodeSpec = DEFAULT_VNODES
    batch_window: int = 32  # coordinator.DEFAULT_BATCH_WINDOW
    seed: int = 0
    #: Shard hosting: "inline" / "process" / "socket", a ShardBackend, or
    #: None to defer to ``ARIA_CLUSTER_BACKEND`` (then "inline").
    backend: BackendSpec = None
    #: Simulated enclave workers per shard; None defers to
    #: ``ARIA_SHARD_WORKERS`` (then 1).
    workers: Optional[int] = None
    #: Replicas per partition; > 1 (or any durability) builds replica
    #: groups.
    replication: int = 1
    overload: Optional[OverloadConfig] = None
    durability: Optional[DurabilityConfig] = None
    tenancy: Optional[TenancyConfig] = None
    #: EPC headroom for elastic scale-out: the reconfiguration planner
    #: budgets the cluster's EPC envelope for up to this many shards, so
    #: live adds up to ``max_shards`` pass the ``epc_budget`` model.
    #: None provisions exactly ``n_shards`` — the envelope is fully
    #: consumed at build and the planner refuses every add.
    max_shards: Optional[int] = None
    #: Extra ``build_aria``/AriaConfig overrides applied to every shard
    #: store (``value_hint``, ``crypto_backend``, ...).  A ``fault_plan``
    #: entry is not a store field: it wraps the replicas of replica-group
    #: builds for fault injection.
    shard_overrides: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.n_shards < 1:
            raise ConfigurationError(
                f"n_shards must be >= 1, not {self.n_shards}")
        if self.n_keys < 1:
            raise ConfigurationError(
                f"n_keys must be >= 1, not {self.n_keys}")
        if self.scale < 1:
            raise ConfigurationError(
                f"scale must be >= 1, not {self.scale}")
        if self.batch_window < 1:
            raise ConfigurationError(
                f"batch_window must be >= 1, not {self.batch_window}")
        if self.replication < 1:
            raise ConfigurationError(
                f"replication must be >= 1, not {self.replication}")
        if self.workers is not None and self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, not {self.workers}")
        if self.max_shards is not None and self.max_shards < self.n_shards:
            raise ConfigurationError(
                f"max_shards ({self.max_shards}) must be >= n_shards "
                f"({self.n_shards})")

    # -- construction helpers -----------------------------------------------------

    @classmethod
    def from_env(cls, **overrides) -> "ClusterConfig":
        """A config with the ``ARIA_*`` environment resolved *now*.

        Precedence: an explicit keyword here beats the environment, which
        beats the field default — and the environment's answer is frozen
        into the returned config, so later ``os.environ`` changes cannot
        retroactively alter what gets built.
        """
        if overrides.get("backend") is None:
            overrides["backend"] = os.environ.get(BACKEND_ENV_VAR) or None
        if overrides.get("workers") is None:
            # A malformed ARIA_SHARD_WORKERS is refused here, by name.
            overrides["workers"] = workers_from_env()
        return cls(**overrides)

    def with_overrides(self, **changes) -> "ClusterConfig":
        """A copy with fields replaced (frozen-dataclass convenience)."""
        return replace(self, **changes)

    # -- derived values -----------------------------------------------------------

    def resolved_shard_overrides(self) -> dict:
        """The shard-override tail with tenancy's cache quotas injected.

        Secure Cache partitioning arms *inside* each shard's
        :class:`~repro.core.config.AriaConfig` (``tenant_quotas``), so the
        quotas must travel with the shard spec — remote backends rebuild
        their stores from it, which is what keeps partitioning identical
        across the inline/process/socket backends.  An explicit
        ``tenant_quotas`` in ``shard_overrides`` wins (explicit > config).
        """
        overrides = dict(self.shard_overrides)
        if self.tenancy is not None and "tenant_quotas" not in overrides:
            quotas = self.tenancy.cache_quota_map()
            if quotas:
                overrides["tenant_quotas"] = quotas
        return overrides

    def per_enclave_epc_bytes(self) -> int:
        """The EPC carve every enclave of this cluster gets.

        The scaled envelope is split across *all* ``n_shards *
        replication`` enclaves — replication's memory cost is paid inside
        the same envelope, so R=2 halves each enclave's share rather than
        conjuring free hardware — and floored at the smallest carve the
        Merkle pinning math tolerates.
        """
        return max(MIN_SHARD_EPC_BYTES,
                   self.cluster_epc_bytes // self.scale
                   // (self.n_shards * self.replication))

    def enclave_spec(self, shard_id: str, seed: int) -> EnclaveSpec:
        """The recipe for one of this cluster's enclaves.

        ``n_keys`` is the *cluster-wide* keyspace: every enclave gets its
        share of the EPC but is provisioned (counters, buckets) for the
        whole keyspace — exactly how the paper's Fig 16a sizes each tenant
        for its full working set while the EPC is split k ways.  Workers
        resolve here, in the builder's process, so a restarted or remote
        enclave keeps the count even if its environment differs.
        """
        overrides = self.resolved_shard_overrides()
        overrides.pop("fault_plan", None)
        return EnclaveSpec(
            shard_id,
            epc_bytes=self.per_enclave_epc_bytes(),
            capacity_keys=self.n_keys,
            index=self.index,
            seed=seed,
            workers=resolve_workers(self.workers),
            config_overrides=overrides,
        )

    def elastic_spec(self, *, durability_factory=None):
        """The :class:`~repro.cluster.elastic.ShardSpec` this config implies.

        New shards are provisioned exactly like the built ones (the same
        enclave recipe; the engine names and seeds each add), and the
        planner's EPC envelope covers ``max_shards`` shards — leave
        ``max_shards`` unset and the envelope is already fully consumed,
        so the ``epc_budget`` model rejects every add.
        """
        from repro.cluster.elastic import ShardSpec

        enclave = self.enclave_spec("", self.seed)
        budget_shards = self.max_shards if self.max_shards is not None \
            else self.n_shards
        return ShardSpec(
            enclave=enclave,
            cluster_epc_bytes=(enclave.epc_bytes * self.replication
                               * budget_shards),
            replication=self.replication,
            fault_plan=self.shard_overrides.get("fault_plan"),
            durability_factory=durability_factory,
        )

    # -- the build path -----------------------------------------------------------

    def build(self, *, clock: Callable[[], float] = time.monotonic):
        """Build the coordinator this config describes, fully armed.

        Plain shards (``shard-<i>``, seed ``+i``) by default; replica
        groups when ``replication > 1`` or ``durability`` is set (the
        sealed sidecar commits on the group batch boundary).
        ``overload``/``tenancy`` sub-configs arm the matching coordinator
        layers; ``clock`` feeds both (injectable so bucket/breaker
        decisions are deterministic in tests and in the T1 experiment's
        cross-backend cycle-identity check).  Non-inline clusters should
        be released with :meth:`ClusterCoordinator.close`, which also
        shuts down whatever the backend spawned (workers, shard hosts).
        """
        from repro.cluster.coordinator import ClusterCoordinator
        from repro.cluster.replication import _build_replica_groups

        if self.replication > 1 or self.durability is not None:
            coordinator = _build_replica_groups(self, clock)
        else:
            if self.shard_overrides.get("fault_plan") is not None:
                raise ConfigurationError(
                    "a fault_plan addresses replicas: build replica groups "
                    "(replication >= 2, durability, or "
                    "build_replicated_cluster(config))")
            factory = resolve_backend(self.backend)
            coordinator = ClusterCoordinator(
                [factory.create(self.enclave_spec(f"shard-{i}",
                                                  self.seed + i))
                 for i in range(self.n_shards)],
                vnodes=self.vnodes, batch_window=self.batch_window,
                overload=self.overload, tenancy=self.tenancy, clock=clock,
                backend=factory)
        try:
            durability_factory = None
            if self.durability is not None:
                durability_factory = self._arm_durability(coordinator)
            self._arm_elastic(coordinator, durability_factory)
        except BaseException:
            # Arming failed (e.g. rollback detected on restore): release
            # whatever the backend spawned before surfacing the refusal.
            coordinator.close()
            raise
        return coordinator

    def _arm_elastic(self, coordinator, durability_factory) -> None:
        """Arm the reconfiguration engine (a no-op until a plan begins).

        Idle, the engine adds nothing to the request path — no meter is
        charged, no ring is touched — so an armed-but-unused cluster
        stays bit-identical to a pre-elastic one on every simulated
        column.  ``durability_factory`` mints the sealed sidecar of a
        shard added later (None on a cluster without durability).
        """
        from repro.cluster.elastic import ElasticCluster, ReconfigPlanner

        spec = self.elastic_spec(durability_factory=durability_factory)
        planner = ReconfigPlanner(coordinator, spec)
        vnodes = self.vnodes if isinstance(self.vnodes, int) \
            else DEFAULT_VNODES
        coordinator.elastic = ElasticCluster(coordinator, spec,
                                             planner=planner, vnodes=vnodes)

    def _arm_durability(self, coordinator):
        """Seal every partition, restore, and return the sidecar factory
        for the elastic engine's later adds."""
        from repro.cluster.health import HealthMonitor
        from repro.persist import (
            FileDisk,
            attach_cluster_durability,
            restore_cluster_from_storage,
        )
        from repro.sgx.monotonic import MonotonicCounterService

        dur = self.durability
        disk = FileDisk(dur.data_dir)
        counters = MonotonicCounterService(
            path=os.path.join(dur.data_dir, "counters.json"))
        attach_cluster_durability(coordinator, disk, counters,
                                  seed=self.seed,
                                  epoch_every=dur.epoch_every)

        def durability_factory(group):
            # Mints a sealed snapshot + WAL epoch sidecar for a shard the
            # elastic engine adds later, on the same disk and counter
            # service as the built shards — the planner's
            # durability-continuity model requires exactly this.
            from repro.persist import attach_partition_durability

            return attach_partition_durability(
                group, disk, counters,
                seed=self.seed, epoch_every=dur.epoch_every)

        coordinator.durability_restored = \
            restore_cluster_from_storage(coordinator)
        coordinator.health_monitor = HealthMonitor(coordinator)
        return durability_factory


def serve(
    config: ClusterConfig,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
    max_requests: Optional[int] = None,
    max_inflight: Optional[int] = None,
    max_connections: Optional[int] = None,
    clock: Callable[[], float] = time.monotonic,
):
    """Build the cluster *and* its front door; returns a started
    :class:`~repro.cluster.netserver.BackgroundServer`.

    The caller owns shutdown: ``server.close()`` stops the door and
    releases the shard backends.
    """
    from repro.cluster.netserver import BackgroundServer

    coordinator = config.build(clock=clock)
    server = BackgroundServer(
        coordinator,
        host=host,
        port=port,
        max_requests=max_requests,
        max_inflight=max_inflight,
        max_connections=max_connections,
    )
    try:
        server.start()
    except BaseException:
        coordinator.close()
        raise
    return server
