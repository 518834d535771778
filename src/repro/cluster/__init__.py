"""``repro.cluster``: the sharded multi-enclave serving layer.

Turns the single-store :class:`~repro.server.server.AriaServer` into a
routed cluster — the ROADMAP's "sharding, batching, async" axis and the
paper's Fig 16a multi-enclave split generalized to N shards behind one
front door:

* :mod:`~repro.cluster.backend` — the ``ShardBackend`` seam: who hosts a
  shard's enclave (``inline`` in-process, ``process`` workers, or
  ``socket`` shard-hosts over TCP);
* :mod:`~repro.cluster.procbackend` — the process backend: one OS worker
  per enclave behind a message pipe, real kills, real parallelism;
* :mod:`~repro.cluster.sockbackend` — the socket backend: shard-host
  processes reachable only over attested, AEAD-framed TCP sessions —
  the multi-host deployment shape, with network partitions as a
  first-class failure mode distinct from crashes;
* :mod:`~repro.cluster.ring` — consistent-hash routing (virtual nodes);
* :mod:`~repro.cluster.shard` — one enclave + Aria store per shard;
  :class:`ShardHandle`, the typed contract every handle inherits; and
  :class:`EnclaveSpec`, the recipe every enclave is built from;
* :mod:`~repro.cluster.coordinator` — request routing and per-shard batch
  accumulation over the ECALL-amortized path;
* :mod:`~repro.cluster.balancer` — hot-shard detection and key-range
  migration (re-sealed through the trusted path);
* :mod:`~repro.cluster.netserver` — the TCP front door (one blocking
  reader thread per connection, one execution lock) plus a
  synchronous client with timeouts and read retries;
* :mod:`~repro.cluster.session` — attested, encrypted v2 wire sessions:
  the gateway enclave's quote-verified handshake and AEAD framing, with
  every wire-crypto op priced on a meter;
* :mod:`~repro.cluster.stats` — cluster-wide metrics aggregation;
* :mod:`~repro.cluster.replication` — per-partition replica groups:
  fan-out writes, preferred-replica reads, automatic failover;
* :mod:`~repro.cluster.faults` — deterministic fault injection on
  replayable schedules, played by wrappers at the backend, disk and
  front-door seams;
* :mod:`~repro.cluster.health` — replica health tracking, restart, and
  trusted-path re-sync;
* :mod:`~repro.cluster.overload` — admission control and graceful
  degradation: deadline budgets, token buckets, retry budgets, and
  per-shard circuit breakers (see ARCHITECTURE §14);
* :mod:`~repro.cluster.tenancy` — the multi-tenant front door: tenant
  identity bound into the attested handshake, per-principal admission,
  disjoint key namespaces, and Secure-Cache quotas (ARCHITECTURE §16);
* :mod:`~repro.cluster.config` — :class:`ClusterConfig`, the one typed
  construction door over all of the above (:meth:`ClusterConfig.build`,
  :func:`serve`);
* :mod:`~repro.cluster.framing` — the length-prefixed framed stream both
  TCP edges (client ↔ front door, coordinator ↔ shard host) speak;
* :mod:`~repro.cluster.elastic` — elastic scale-out: the model-checked
  :class:`ReconfigPlanner` (typed constraint rejections) and the
  :class:`ElasticCluster` live migration engine — shard add/remove
  under traffic with dual-applied writes, staged fault injection, and
  abort/rollback (ARCHITECTURE §17).
"""

from repro.cluster.backend import (
    BACKEND_NAMES,
    InlineBackend,
    ShardBackend,
    resolve_backend,
)
from repro.cluster.balancer import HotShardBalancer, MigrationReport
from repro.cluster.config import (
    ClusterConfig,
    DurabilityConfig,
    serve,
)
from repro.cluster.coordinator import (
    ClusterCoordinator,
    DEFAULT_BATCH_WINDOW,
)
from repro.cluster.elastic import (
    CONSTRAINT_MODELS,
    MIGRATION_STAGES,
    ElasticCluster,
    ReconfigPlan,
    ReconfigPlanner,
    ShardSpec,
    TopologyDelta,
)
from repro.errors import PlanRejectedError
from repro.cluster.tenancy import (
    TenancyConfig,
    TenantConfig,
    TenantRegistry,
    default_tenant_secret,
    tenant_credential,
)
from repro.cluster.faults import (
    CAPTURE,
    CHAOS_DUR_KINDS,
    CLOSE,
    CORRUPT,
    CTR_RESET,
    DELAY,
    DROP,
    DURABILITY_KINDS,
    IO_ERROR,
    KILL,
    NET_TARGET,
    PARTITION,
    REPLAY,
    ROLLBACK,
    SLOW,
    STAGE_ORDINALS,
    TAMPER,
    TORN,
    TRUNCATE,
    WIRE_KINDS,
    FaultEvent,
    FaultPlan,
    FaultyBackend,
    FaultyBackgroundServer,
    FaultyDisk,
    FaultyDoor,
    FaultyShard,
    dur_target,
    elastic_target,
)
from repro.cluster.health import (
    DEFAULT_CHECK_EVERY,
    HealthMonitor,
    RecoveryReport,
    ResyncReport,
)
from repro.cluster.procbackend import (
    ProcessBackend,
    ProcessShard,
    reap_leaked_workers,
)
from repro.cluster.sockbackend import (
    ShardHost,
    SocketBackend,
    SocketShard,
    SpawnedHost,
    reap_leaked_hosts,
    run_shard_host,
)
from repro.cluster.netserver import (
    BackgroundServer,
    ClusterClient,
    ClusterNetServer,
    DEFAULT_CLIENT_TIMEOUT,
    DEFAULT_RETRY_RATIO,
)
from repro.cluster.framing import FRAME_HEADER
from repro.cluster.overload import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    OverloadConfig,
    RetryBudget,
    TokenBucket,
)
from repro.cluster.session import (
    ATTESTATION_ROOT,
    ClientHandshake,
    SecureSession,
    SessionManager,
    make_quote,
    measurement,
    verify_quote,
)
from repro.cluster.replication import (
    Replica,
    ReplicaGroup,
    ReplicaState,
    build_replica_group,
    build_replicated_cluster,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing, ring_hash
from repro.cluster.shard import EnclaveSpec, Shard, ShardHandle
from repro.cluster.stats import ClusterStats

__all__ = [
    "ATTESTATION_ROOT",
    "BACKEND_NAMES",
    "BackgroundServer",
    "CAPTURE",
    "CHAOS_DUR_KINDS",
    "CLOSE",
    "CORRUPT",
    "CTR_RESET",
    "BreakerState",
    "CircuitBreaker",
    "ClientHandshake",
    "ClusterClient",
    "ClusterConfig",
    "ClusterCoordinator",
    "ClusterNetServer",
    "ClusterStats",
    "CONSTRAINT_MODELS",
    "DurabilityConfig",
    "ElasticCluster",
    "EnclaveSpec",
    "MIGRATION_STAGES",
    "PlanRejectedError",
    "ReconfigPlan",
    "ReconfigPlanner",
    "STAGE_ORDINALS",
    "ShardSpec",
    "TopologyDelta",
    "elastic_target",
    "TenancyConfig",
    "TenantConfig",
    "TenantRegistry",
    "DEFAULT_BATCH_WINDOW",
    "DEFAULT_CHECK_EVERY",
    "DEFAULT_CLIENT_TIMEOUT",
    "DEFAULT_RETRY_RATIO",
    "DEFAULT_VNODES",
    "Deadline",
    "DELAY",
    "DROP",
    "DURABILITY_KINDS",
    "FRAME_HEADER",
    "FaultEvent",
    "FaultPlan",
    "FaultyBackend",
    "FaultyBackgroundServer",
    "FaultyDisk",
    "FaultyDoor",
    "FaultyShard",
    "HashRing",
    "HealthMonitor",
    "HotShardBalancer",
    "IO_ERROR",
    "InlineBackend",
    "KILL",
    "MigrationReport",
    "NET_TARGET",
    "OverloadConfig",
    "PARTITION",
    "ProcessBackend",
    "ProcessShard",
    "REPLAY",
    "ROLLBACK",
    "Replica",
    "ReplicaGroup",
    "ReplicaState",
    "RecoveryReport",
    "ResyncReport",
    "RetryBudget",
    "SLOW",
    "SecureSession",
    "SessionManager",
    "Shard",
    "ShardHandle",
    "TokenBucket",
    "ShardBackend",
    "ShardHost",
    "SocketBackend",
    "SocketShard",
    "SpawnedHost",
    "TAMPER",
    "TORN",
    "TRUNCATE",
    "WIRE_KINDS",
    "build_replica_group",
    "build_replicated_cluster",
    "default_tenant_secret",
    "dur_target",
    "serve",
    "tenant_credential",
    "make_quote",
    "measurement",
    "reap_leaked_hosts",
    "reap_leaked_workers",
    "resolve_backend",
    "ring_hash",
    "run_shard_host",
    "verify_quote",
]
