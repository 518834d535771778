"""Elastic scale-out: live shard add/remove with a model-checked planner.

Closes the ROADMAP's top open item.  The cluster's shard count used to be
fixed at build time — chasing a hot set meant shuffling vnodes among the
shards you already had.  This module makes topology a *live, validated,
fault-tolerant* operation (ARCHITECTURE §17):

* :class:`ReconfigPlanner` — the model-checked half.  Following the
  model-based self-integration idea (validate a proposed configuration
  change against cross-layer constraint models *before* applying it), a
  proposed :class:`TopologyDelta` is checked against five models — the
  per-shard EPC/cache budget, the replication floor, durability-epoch
  continuity, tenant quota feasibility, and projected migration cycle
  cost vs. straggler savings — and either refused with a typed
  :class:`~repro.errors.PlanRejectedError` naming the violated model, or
  staged into a :class:`ReconfigPlan`.

* :class:`ElasticCluster` — the live migration engine.  An approved plan
  executes *under traffic*: the target ring is computed as a clone
  (:meth:`~repro.cluster.ring.HashRing.copy`), keys in the moving arcs
  are copied through the trusted path (verified read on the source
  enclave, re-sealed put on the destination — enclaves share no key
  material, so bytes can never move between them directly) in bounded
  batches interleaved with serving; writes to in-flight ranges are
  **dual-applied** to the destination after the authoritative side acks;
  reads are always served from the authoritative (pre-cutover) side.  A
  new shard's replicas and durability sidecar (sealed snapshot + WAL
  epoch) are established in PREPARE, *before* it can take a single read.
  Only when the copy is complete does the ring swap (CUTOVER) — the
  commit point — after which RETIRE cleans up the source side.  If the
  destination dies mid-migration the plan **aborts**: the prior ring was
  never replaced, every acked write still lives on the authoritative
  side, and the partial copy is discarded — zero acked-write loss by
  construction.

Migration state machine::

    IDLE -> PREPARE -> SYNC -> CUTOVER -> RETIRE -> IDLE
                \\        \\
                 \\        +--> ABORT (destination lost) -> IDLE
                  +--> ABORT (cannot establish replicas/durability) -> IDLE

Every stage entry is announced to the coordinator's shard backend
(:meth:`~repro.cluster.backend.ShardBackend.enter_stage`), which is where
stage-addressed fault injection hooks in (ARCHITECTURE §17).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.cluster.replication import build_replica_group
from repro.cluster.ring import DEFAULT_VNODES, HashRing
from repro.cluster.shard import EnclaveSpec
from repro.errors import (
    AriaError,
    DurabilityError,
    KeyNotFoundError,
    PlanRejectedError,
    ReplicaUnavailableError,
    ShardCrashedError,
)
from repro.server.protocol import OpCode, Request, Response, Status

# -- stages -----------------------------------------------------------------------

#: Stage names, in execution order.  PREPARE builds the destination
#: (replicas + durability) outside the ring; SYNC copies the moving arcs
#: in bounded batches while serving continues on the old ring; CUTOVER
#: atomically swaps the ring (the commit point); RETIRE deletes the moved
#: keys from the source side (add) or closes the leaving shard (remove).
STAGE_PREPARE = "prepare"
STAGE_SYNC = "sync"
STAGE_CUTOVER = "cutover"
STAGE_RETIRE = "retire"
MIGRATION_STAGES = (STAGE_PREPARE, STAGE_SYNC, STAGE_CUTOVER, STAGE_RETIRE)

#: The cost model's per-key price of a trusted-path move (verified read +
#: re-sealed put + source delete), in simulated cycles.
MIGRATE_COST_CYCLES = 3500.0

#: The five constraint models (plus "topology" for structurally invalid
#: deltas), in checking order.
CONSTRAINT_MODELS = (
    "epc_budget",
    "replication_floor",
    "durability_continuity",
    "tenant_quota",
    "migration_cost",
)


# -- the proposed change ----------------------------------------------------------


@dataclass(frozen=True)
class TopologyDelta:
    """One proposed topology change, before any validation.

    Exactly what an operator (or the balancer) asks for: shards to add,
    shards to remove, vnode reassignments, and/or a new replication
    factor.  The planner validates any combination; the migration engine
    executes one add *or* one remove per plan (vnode moves execute
    synchronously through the balancer's migration path).
    """

    add_shards: Tuple[str, ...] = ()
    remove_shards: Tuple[str, ...] = ()
    #: (src_shard_id, dst_shard_id, vnode_count) reassignments.
    vnode_moves: Tuple[Tuple[str, str, int], ...] = ()
    #: Proposed replication factor; None keeps the current one.
    replication: Optional[int] = None

    def is_noop(self) -> bool:
        return (not self.add_shards and not self.remove_shards
                and not self.vnode_moves and self.replication is None)


@dataclass(frozen=True)
class ReconfigPlan:
    """An approved, staged topology change (the planner's output)."""

    delta: TopologyDelta
    stages: Tuple[str, ...]
    n_shards_before: int
    n_shards_after: int
    #: Keys the migration is projected to move.
    projected_keys: int
    #: Projected migration cost in simulated cycles (keys x per-key model).
    projected_cost: float
    #: What each constraint model computed while approving the plan —
    #: operator-facing evidence, printed by ``python -m repro reconfig``.
    constraints: Mapping[str, str] = field(default_factory=dict)

    def describe(self) -> str:
        lines = [
            f"plan: {self.n_shards_before} -> {self.n_shards_after} shards",
            f"  add: {list(self.delta.add_shards) or '-'}"
            f"  remove: {list(self.delta.remove_shards) or '-'}"
            f"  vnode_moves: {list(self.delta.vnode_moves) or '-'}",
            f"  stages: {' -> '.join(self.stages)}",
            f"  projected: {self.projected_keys} keys, "
            f"{self.projected_cost:.0f} cycles",
        ]
        for model, verdict in self.constraints.items():
            lines.append(f"  [{model}] {verdict}")
        return "\n".join(lines)


# -- the construction recipe ------------------------------------------------------


@dataclass(frozen=True)
class ShardSpec:
    """How to provision a shard this cluster would add.

    The engine needs the original build recipe — a new shard must be an
    enclave of the same shape as its peers — and the planner needs the
    envelope it must fit into.  :meth:`ClusterConfig.elastic_spec
    <repro.cluster.config.ClusterConfig.elastic_spec>` derives one from
    the typed construction surface.
    """

    #: The recipe every enclave of this cluster was built from (EPC
    #: carve, capacity, index, workers, overrides).  The engine fills in
    #: the id and a fresh seed per add, and refreshes ``tenant_quotas``
    #: from the live tenancy roster.
    enclave: EnclaveSpec
    #: The cluster's total EPC envelope: the budget all enclaves (shards x
    #: replicas) must fit inside.  The ``epc_budget`` model rejects any
    #: delta whose enclave count would overflow it.
    cluster_epc_bytes: int
    replication: int = 1
    #: Mints a durability sidecar for a freshly built group
    #: (``factory(group) -> PartitionDurability``); required by the
    #: ``durability_continuity`` model when the cluster is durable.
    durability_factory: Optional[Callable] = None
    #: Projected Secure-Cache entry count per shard, for the
    #: ``tenant_quota`` feasibility model; None estimates from the EPC
    #: carve (half the EPC at ~96 bytes/entry, the cache's "as large as
    #: possible" rule coarsened into a planning model).
    cache_entries: Optional[int] = None

    def projected_cache_entries(self) -> int:
        if self.cache_entries is not None:
            return self.cache_entries
        return max(1, (self.enclave.epc_bytes // 2) // 96)


# -- the planner ------------------------------------------------------------------


class ReconfigPlanner:
    """Checks a :class:`TopologyDelta` against cross-layer constraint models.

    Every model inspects a different layer — EPC accounting, replication
    policy, the durability sidecars, tenant cache quotas, the migration
    cost model — and any one of them can refuse the whole change with a
    typed :class:`~repro.errors.PlanRejectedError` *before* a single key
    moves.  A delta that survives all five comes back as a staged
    :class:`ReconfigPlan`.
    """

    def __init__(
        self,
        coordinator,
        spec: ShardSpec,
        *,
        min_replication: Optional[int] = None,
        max_migration_cost: Optional[float] = None,
    ):
        self._coordinator = coordinator
        self.spec = spec
        #: The configured replication floor R: no plan may drop below it.
        self.min_replication = (min_replication if min_replication is not None
                                else spec.replication)
        #: Optional hard budget (simulated cycles) on one migration.
        self.max_migration_cost = max_migration_cost
        self.plans_approved = 0
        self.plans_rejected = 0
        #: Rejections per constraint model (operator visibility).
        self.rejections: Dict[str, int] = {}

    # -- the check --------------------------------------------------------------

    def plan(self, delta: TopologyDelta, *,
             projected_savings: Optional[float] = None) -> ReconfigPlan:
        """Validate ``delta``; returns a staged plan or raises.

        ``projected_savings`` is the proposer's estimate of the straggler
        cycles the change would save per balancing window (the balancer
        computes it from its load deltas); when given, the cost model
        refuses changes whose projected migration cost exceeds the
        savings.
        """
        try:
            return self._plan(delta, projected_savings)
        except PlanRejectedError as exc:
            self.plans_rejected += 1
            self.rejections[exc.constraint] = \
                self.rejections.get(exc.constraint, 0) + 1
            raise

    def _plan(self, delta: TopologyDelta,
              projected_savings: Optional[float]) -> ReconfigPlan:
        coordinator = self._coordinator
        spec = self.spec
        shard_ids = set(coordinator.shards)
        constraints: Dict[str, str] = {}

        # -- structural sanity (not one of the five models) ---------------
        if delta.is_noop():
            raise PlanRejectedError("empty delta: nothing to change",
                                    constraint="topology")
        for sid in delta.add_shards:
            if sid in shard_ids:
                raise PlanRejectedError(
                    f"shard {sid!r} already in the cluster",
                    constraint="topology")
        if len(set(delta.add_shards)) != len(delta.add_shards):
            raise PlanRejectedError("duplicate shard ids in add set",
                                    constraint="topology")
        for sid in delta.remove_shards:
            if sid not in shard_ids:
                raise PlanRejectedError(
                    f"shard {sid!r} not in the cluster", constraint="topology")
        for src, dst, count in delta.vnode_moves:
            if src not in shard_ids or dst not in shard_ids:
                raise PlanRejectedError(
                    f"vnode move {src!r}->{dst!r} names an unknown shard",
                    constraint="topology")
            if count < 1:
                raise PlanRejectedError(
                    "vnode move count must be >= 1", constraint="topology")
        n_before = len(shard_ids)
        n_after = n_before + len(delta.add_shards) - len(delta.remove_shards)
        if n_after < 1:
            raise PlanRejectedError(
                "the delta would remove every shard", constraint="topology")

        replication_after = (delta.replication if delta.replication is not None
                             else spec.replication)

        # -- model 1: per-shard EPC/cache budget --------------------------
        enclaves_after = n_after * replication_after
        epc_bytes = spec.enclave.epc_bytes
        epc_after = enclaves_after * epc_bytes
        if epc_after > spec.cluster_epc_bytes:
            raise PlanRejectedError(
                f"{enclaves_after} enclaves x {epc_bytes} B = "
                f"{epc_after} B exceeds the {spec.cluster_epc_bytes} B EPC "
                "envelope",
                constraint="epc_budget")
        constraints["epc_budget"] = (
            f"{enclaves_after} enclaves x {epc_bytes} B = {epc_after} B "
            f"<= {spec.cluster_epc_bytes} B envelope")

        # -- model 2: replication factor >= configured R ------------------
        if replication_after < 1 or replication_after < self.min_replication:
            raise PlanRejectedError(
                f"replication {replication_after} below the configured "
                f"floor R={self.min_replication}",
                constraint="replication_floor")
        constraints["replication_floor"] = (
            f"R={replication_after} >= floor {self.min_replication}")

        # -- model 3: durability-epoch continuity -------------------------
        durable = any(s.durability is not None
                      for s in coordinator.shards.values())
        if durable and delta.add_shards and spec.durability_factory is None:
            raise PlanRejectedError(
                "cluster is durable but the spec cannot mint a sealed "
                "snapshot + WAL epoch for a new shard (no "
                "durability_factory): the shard would take reads without "
                "durable custody",
                constraint="durability_continuity")
        constraints["durability_continuity"] = (
            "sidecar factory available" if durable else
            "cluster not durable: nothing to carry over")

        # -- model 4: tenant quota feasibility ----------------------------
        tenancy = coordinator.tenancy
        if tenancy is not None and (delta.add_shards or delta.remove_shards):
            quotas = tenancy.config.cache_quota_map()
            entries = spec.projected_cache_entries()
            floors = sum(max(1, int(entries * q)) for q in quotas.values())
            if quotas and floors > entries:
                raise PlanRejectedError(
                    f"{len(quotas)} tenant quota floors need {floors} "
                    f"protected cache entries but a {epc_bytes} B shard "
                    f"projects only {entries}: the new roster cannot honor "
                    "its quota floors",
                    constraint="tenant_quota")
            constraints["tenant_quota"] = (
                f"{floors} floor entries across {len(quotas)} tenants "
                f"<= {entries} projected entries")
        else:
            constraints["tenant_quota"] = "tenancy not armed or roster-only"

        # -- model 5: migration cost vs. straggler savings ----------------
        projected_keys = self._projected_keys(delta, n_before)
        projected_cost = projected_keys * MIGRATE_COST_CYCLES
        if self.max_migration_cost is not None \
                and projected_cost > self.max_migration_cost:
            raise PlanRejectedError(
                f"projected migration cost {projected_cost:.0f} cycles "
                f"({projected_keys} keys) exceeds the "
                f"{self.max_migration_cost:.0f}-cycle budget",
                constraint="migration_cost")
        if projected_savings is not None \
                and projected_cost > projected_savings:
            raise PlanRejectedError(
                f"projected migration cost {projected_cost:.0f} cycles "
                f"exceeds the projected straggler savings "
                f"({projected_savings:.0f} cycles): the move would not pay "
                "for itself",
                constraint="migration_cost")
        constraints["migration_cost"] = (
            f"{projected_keys} keys x {MIGRATE_COST_CYCLES:.0f} "
            f"cycles/key = {projected_cost:.0f} cycles"
            + (f" vs savings {projected_savings:.0f}"
               if projected_savings is not None else ""))

        self.plans_approved += 1
        return ReconfigPlan(
            delta=delta,
            stages=MIGRATION_STAGES,
            n_shards_before=n_before,
            n_shards_after=n_after,
            projected_keys=projected_keys,
            projected_cost=projected_cost,
            constraints=constraints,
        )

    # -- cost-model inputs ------------------------------------------------------

    def _projected_keys(self, delta: TopologyDelta, n_before: int) -> int:
        coordinator = self._coordinator
        total = self._total_keys()
        moved = 0.0
        n_add = len(delta.add_shards)
        if n_add:
            # Minimal-remap: each new shard claims ~1/(N+adds) of the keys.
            moved += total * n_add / max(1, n_before + n_add)
        for sid in delta.remove_shards:
            try:
                moved += len(coordinator.shards[sid].store)
            except AriaError:
                moved += total / max(1, n_before)
        counts = coordinator.ring.vnode_counts()
        for src, _dst, count in delta.vnode_moves:
            src_vnodes = counts.get(src, DEFAULT_VNODES)
            try:
                src_keys = len(coordinator.shards[src].store)
            except AriaError:
                src_keys = total / max(1, n_before)
            moved += src_keys * min(1.0, count / max(1, src_vnodes))
        return int(moved)

    def _total_keys(self) -> int:
        total = 0
        for shard in self._coordinator.shards.values():
            try:
                total += len(shard.store)
            except AriaError:
                continue  # crashed shard: its keys don't move anyway
        return total


# -- the live migration engine ----------------------------------------------------


class _Migration:
    """One in-flight topology change (internal engine state)."""

    __slots__ = ("plan", "kind", "subject_id", "target_ring", "new_shard",
                 "pending", "cursor", "copied", "retire_cursor", "stage")

    def __init__(self, plan: ReconfigPlan, kind: str, subject_id: str,
                 target_ring: HashRing, new_shard=None):
        self.plan = plan
        self.kind = kind                  # "add" | "remove"
        self.subject_id = subject_id      # the joining / leaving shard
        self.target_ring = target_ring
        self.new_shard = new_shard        # the built-but-unringed group
        #: (src_shard_id, key) pairs still to copy.
        self.pending: List[Tuple[str, bytes]] = []
        self.cursor = 0
        #: (src_shard_id, key) pairs copied (the RETIRE delete queue).
        self.copied: List[Tuple[str, bytes]] = []
        self.retire_cursor = 0
        self.stage = STAGE_PREPARE


class ElasticCluster:
    """Live shard add/remove under traffic, bounded-batch interleaved.

    ``ClusterConfig.build`` sets one as ``coordinator.elastic``; drive
    changes with :meth:`add_shard` / :meth:`remove_shard`.  The engine
    advances one bounded key batch per executed request batch, so
    migration work is interleaved with serving rather than stopping the
    world.  Or call :meth:`run_to_completion`
    from an operations script to drain a migration without traffic.
    """

    def __init__(
        self,
        coordinator,
        spec: ShardSpec,
        *,
        planner: Optional[ReconfigPlanner] = None,
        batch_keys: int = 64,
        vnodes: int = DEFAULT_VNODES,
    ):
        if batch_keys < 1:
            raise ValueError("batch_keys must be >= 1")
        self._coordinator = coordinator
        self.spec = spec
        self.planner = planner or ReconfigPlanner(coordinator, spec)
        self.batch_keys = batch_keys
        self.vnodes = vnodes
        self._migration: Optional[_Migration] = None
        #: Distinct seeds for every shard ever added (a rejoining id must
        #: still get fresh key material).
        self._builds = 0
        # -- progress/abort counters (ClusterStats / OP_HEALTH) ----------
        self.migrations_started = 0
        self.migrations_completed = 0
        self.migrations_aborted = 0
        self.keys_migrated = 0
        self.keys_retired = 0
        self.dual_applied = 0
        self.last_abort_reason = ""

    # -- public driving ---------------------------------------------------------

    @property
    def active(self) -> bool:
        return self._migration is not None

    @property
    def stage(self) -> Optional[str]:
        return self._migration.stage if self._migration else None

    def propose(self, delta: TopologyDelta, **plan_kwargs) -> ReconfigPlan:
        """Run ``delta`` through the planner (no execution)."""
        return self.planner.plan(delta, **plan_kwargs)

    def add_shard(self, shard_id: Optional[str] = None) -> ReconfigPlan:
        """Plan and begin a live shard add; raises PlanRejectedError."""
        if shard_id is None:
            shard_id = f"shard-{len(self._coordinator.shards)}"
            while shard_id in self._coordinator.shards:
                shard_id += "+"
        plan = self.propose(TopologyDelta(add_shards=(shard_id,)))
        self.begin(plan)
        return plan

    def remove_shard(self, shard_id: str) -> ReconfigPlan:
        """Plan and begin a live shard remove; raises PlanRejectedError."""
        plan = self.propose(TopologyDelta(remove_shards=(shard_id,)))
        self.begin(plan)
        return plan

    def begin(self, plan: ReconfigPlan) -> None:
        """Start executing an approved plan (stage PREPARE, then SYNC).

        One migration at a time; the engine executes single-shard add or
        remove plans (the balancer applies vnode-move plans through its
        own migration path after planner approval).
        """
        if self._migration is not None:
            raise AriaError(
                "a migration is already in flight "
                f"(stage {self._migration.stage})")
        delta = plan.delta
        if delta.replication is not None \
                and delta.replication != self.spec.replication:
            raise AriaError(
                "replication-factor changes are planner-validated but not "
                "yet executable live; rebuild with the new ClusterConfig")
        if len(delta.add_shards) + len(delta.remove_shards) != 1 \
                or delta.vnode_moves:
            raise AriaError(
                "the engine executes one shard add or remove per plan")
        self.migrations_started += 1
        if delta.add_shards:
            self._begin_add(plan, delta.add_shards[0])
        else:
            self._begin_remove(plan, delta.remove_shards[0])

    def run_to_completion(self, *, max_steps: int = 1_000_000) -> None:
        """Drain the in-flight migration without traffic (ops scripts)."""
        steps = 0
        while self._migration is not None:
            self.step()
            steps += 1
            if steps > max_steps:  # pragma: no cover - defensive
                raise AriaError("migration did not converge")

    # -- the serving-loop hook ---------------------------------------------------

    def after_execute(self, requests: List[Request],
                      responses: List[Response]) -> None:
        """Coordinator hook: dual-apply acked writes, then advance a batch.

        Runs after every executed request batch, *after* responses are
        settled: an acked write whose key's target-ring owner differs from
        its authoritative owner is re-applied to the destination through
        the trusted path, so the destination converges even for keys whose
        copy batch already passed.  Reads never touch the destination —
        the authoritative side serves until cutover.
        """
        migration = self._migration
        if migration is not None and migration.stage == STAGE_SYNC:
            self._dual_apply(migration, requests, responses)
        if self._migration is not None:
            self.step()

    def step(self) -> None:
        """Advance the in-flight migration by one bounded batch."""
        migration = self._migration
        if migration is None:
            return
        if migration.stage == STAGE_SYNC:
            self._sync_batch(migration)
        elif migration.stage == STAGE_RETIRE:
            self._retire_batch(migration)

    # -- stage: prepare ----------------------------------------------------------

    def _begin_add(self, plan: ReconfigPlan, shard_id: str) -> None:
        coordinator = self._coordinator
        migration = _Migration(plan, "add", shard_id,
                               coordinator.ring.copy())
        self._enter_stage(migration, STAGE_PREPARE)
        try:
            new_shard = self._build_shard(shard_id)
            migration.new_shard = new_shard
            # Durability before a single read: the sidecar's sealed
            # snapshot + epoch binding must exist before the shard can be
            # routed to, or a whole-group crash mid-join would lose the
            # dual-applied writes it acked custody of.
            if self._cluster_durable():
                if self.spec.durability_factory is None:
                    raise AriaError(  # planner-approved plans never hit this
                        "durable cluster but no durability_factory")
                self.spec.durability_factory(new_shard)
            migration.target_ring.add_shard(shard_id, vnodes=self.vnodes)
            migration.pending = self._moving_keys(migration)
        except AriaError as exc:
            self._abort(migration, f"prepare failed: {exc}", started=False)
            raise
        self._migration = migration
        self._enter_stage(migration, STAGE_SYNC)

    def _begin_remove(self, plan: ReconfigPlan, shard_id: str) -> None:
        coordinator = self._coordinator
        target_ring = coordinator.ring.copy()
        target_ring.remove_shard(shard_id)
        migration = _Migration(plan, "remove", shard_id, target_ring)
        self._enter_stage(migration, STAGE_PREPARE)
        try:
            migration.pending = self._moving_keys(migration)
        except AriaError as exc:
            self._abort(migration, f"prepare failed: {exc}", started=False)
            raise
        self._migration = migration
        self._enter_stage(migration, STAGE_SYNC)

    def _cluster_durable(self) -> bool:
        return any(s.durability is not None
                   for s in self._coordinator.shards.values())

    def _build_shard(self, shard_id: str):
        """Provision the joining shard: same recipe as its peers.

        Always a replica group (R >= 1) built through the coordinator's
        own backend factory, so an added shard lands on the same hosting
        (inline/process/socket) as the rest of the cluster.  Cache quotas
        come from the *live* tenancy roster, not the build-time snapshot —
        the topology half of the §16 re-partitioning story.
        """
        spec = self.spec
        coordinator = self._coordinator
        overrides = dict(spec.enclave.config_overrides)
        tenancy = coordinator.tenancy
        if tenancy is not None:
            quotas = tenancy.config.cache_quota_map()
            if quotas:
                overrides["tenant_quotas"] = quotas
        self._builds += 1
        seed = spec.enclave.seed \
            + 101 * (len(coordinator.shards) + self._builds)
        return build_replica_group(
            replace(spec.enclave, shard_id=shard_id, seed=seed,
                    config_overrides=overrides),
            spec.replication,
            backend=coordinator.backend,
        )

    def _moving_keys(self, migration: _Migration) -> List[Tuple[str, bytes]]:
        """Snapshot the keys whose owner changes under the target ring.

        Keys written *after* this snapshot are covered by dual-apply, so
        the snapshot plus the write stream is complete.  Sources are
        walked in sorted-id order and each store in its own deterministic
        iteration order, keeping the copy schedule (and its metering)
        identical across backends.
        """
        coordinator = self._coordinator
        current = coordinator.ring
        target = migration.target_ring
        moving: List[Tuple[str, bytes]] = []
        if migration.kind == "remove":
            sources = [migration.subject_id]
        else:
            sources = sorted(coordinator.shards)
        for src_id in sources:
            store = coordinator.shards[src_id].store
            for key in list(store.keys()):
                if target.route(key) != current.route(key):
                    moving.append((src_id, key))
        return moving

    # -- stage: sync -------------------------------------------------------------

    def _destination(self, migration: _Migration, key: bytes):
        owner = migration.target_ring.route(key)
        if migration.kind == "add" and owner == migration.subject_id:
            return migration.new_shard
        return self._coordinator.shards[owner]

    def _sync_batch(self, migration: _Migration) -> None:
        """Copy up to ``batch_keys`` moving keys through the trusted path."""
        end = min(migration.cursor + self.batch_keys, len(migration.pending))
        while migration.cursor < end:
            src_id, key = migration.pending[migration.cursor]
            migration.cursor += 1
            src = self._coordinator.shards.get(src_id)
            if src is None:  # pragma: no cover - defensive
                continue
            try:
                value = src.store.get(key)       # verified read (src enclave)
            except KeyNotFoundError:
                continue  # deleted since the snapshot: nothing to move
            except (ShardCrashedError, ReplicaUnavailableError) as exc:
                self._abort(migration, f"source {src_id} lost during sync: "
                                       f"{type(exc).__name__}")
                return
            dst = self._destination(migration, key)
            try:
                dst.store.put(key, value)        # re-sealed under dst's keys
            except (ShardCrashedError, ReplicaUnavailableError,
                    DurabilityError) as exc:
                self._abort(migration,
                            f"destination lost during sync: "
                            f"{type(exc).__name__}")
                return
            migration.copied.append((src_id, key))
            self.keys_migrated += 1
        if migration.cursor >= len(migration.pending):
            self._cutover(migration)

    def _dual_apply(self, migration: _Migration,
                    requests: List[Request],
                    responses: List[Response]) -> None:
        coordinator = self._coordinator
        for request, response in zip(requests, responses):
            if request.opcode == OpCode.GET \
                    or request.opcode == OpCode.HEALTH:
                continue
            if response is None or response.status != Status.OK:
                continue  # only *acked* writes carry a durability promise
            key = request.key
            if migration.target_ring.route(key) == coordinator.ring.route(key):
                continue
            dst = self._destination(migration, key)
            try:
                if request.opcode == OpCode.DELETE:
                    try:
                        dst.store.delete(key)
                    except KeyNotFoundError:
                        pass  # never copied yet: the snapshot pass skips it
                else:
                    dst.store.put(key, request.value)
            except (ShardCrashedError, ReplicaUnavailableError,
                    DurabilityError) as exc:
                self._abort(migration,
                            f"destination lost during dual-apply: "
                            f"{type(exc).__name__}")
                return
            self.dual_applied += 1

    # -- stage: cutover ----------------------------------------------------------

    def _cutover(self, migration: _Migration) -> None:
        """The commit point: swap the ring; membership changes atomically.

        Before this the target ring was a shadow — every read and every
        ack came from the old owners.  After it the destination is
        authoritative and the old copies are garbage awaiting RETIRE.
        """
        coordinator = self._coordinator
        self._enter_stage(migration, STAGE_CUTOVER)
        if self._migration is None:
            return  # a cutover-stage fault killed the subject: aborted
        if migration.kind == "add":
            coordinator.admit_shard(migration.new_shard,
                                    ring=migration.target_ring)
        else:
            retired = coordinator.retire_shard(migration.subject_id,
                                               ring=migration.target_ring)
            migration.new_shard = retired  # closed in RETIRE
        coordinator.on_topology_change()
        self._enter_stage(migration, STAGE_RETIRE)

    # -- stage: retire -----------------------------------------------------------

    def _retire_batch(self, migration: _Migration) -> None:
        if migration.kind == "remove":
            # The leaving shard is out of the ring; release its enclaves.
            migration.new_shard.close()
            self._finish(migration)
            return
        end = min(migration.retire_cursor + self.batch_keys,
                  len(migration.copied))
        while migration.retire_cursor < end:
            src_id, key = migration.copied[migration.retire_cursor]
            migration.retire_cursor += 1
            src = self._coordinator.shards.get(src_id)
            if src is None:
                continue
            try:
                src.store.delete(key)  # counter back to src's free ring
                self.keys_retired += 1
            except (KeyNotFoundError, AriaError):
                continue  # already gone, or source down: stale copy stays
        if migration.retire_cursor >= len(migration.copied):
            self._finish(migration)

    def _finish(self, migration: _Migration) -> None:
        self.migrations_completed += 1
        self._migration = None

    # -- abort / rollback --------------------------------------------------------

    def _abort(self, migration: _Migration, reason: str,
               *, started: bool = True) -> None:
        """Roll back: the prior ring was never replaced, so restoring it
        is free — discard the partial copy and the joining shard.

        Every acked write lives on the authoritative (old-ring) side,
        which never stopped serving: aborting loses nothing.
        """
        self.migrations_aborted += 1
        self.last_abort_reason = reason
        self._migration = None
        if migration.kind == "add":
            shard = migration.new_shard
            if shard is not None:
                try:
                    shard.close()
                except AriaError:  # pragma: no cover - best-effort
                    pass
        else:
            # Best-effort: scrub the shadow copies off the destinations so
            # a later retry starts clean (unreachable garbage otherwise).
            for src_id, key in migration.copied:
                try:
                    self._destination(migration, key).store.delete(key)
                except (KeyNotFoundError, AriaError):
                    continue

    # -- stage entry ---------------------------------------------------------------

    def _enter_stage(self, migration: _Migration, stage: str) -> None:
        migration.stage = stage
        self._coordinator.backend.enter_stage(
            migration.subject_id, self._subject(migration), stage)
        self._check_subject(migration)

    def _subject(self, migration: _Migration):
        """The handle of the shard the migration adds or removes (None
        while an add has not built it)."""
        if migration.kind == "add":
            return migration.new_shard
        # Until cutover the leaving shard is a cluster member; after it
        # the detached group is parked on ``new_shard`` for RETIRE.
        return self._coordinator.shards.get(migration.subject_id,
                                            migration.new_shard)

    def _check_subject(self, migration: _Migration) -> None:
        """Abort an add whose joining group died before it joined."""
        if migration.kind != "add" or migration.new_shard is None:
            return
        # A joining shard is always a replica group (see _build_shard).
        all_dead = all(r.shard.crashed or r.shard.partitioned
                       for r in migration.new_shard.replicas)
        if all_dead and migration.stage in (STAGE_SYNC, STAGE_CUTOVER):
            self._abort(migration, f"staged fault killed "
                                   f"{migration.subject_id} in "
                                   f"{migration.stage}")

    # -- reporting ----------------------------------------------------------------

    def stats(self) -> dict:
        active = None
        migration = self._migration
        if migration is not None:
            active = {
                "kind": migration.kind,
                "shard": migration.subject_id,
                "stage": migration.stage,
                "copied": migration.cursor,
                "pending": len(migration.pending),
            }
        return {
            "migrations_started": self.migrations_started,
            "migrations_completed": self.migrations_completed,
            "migrations_aborted": self.migrations_aborted,
            "keys_migrated": self.keys_migrated,
            "keys_retired": self.keys_retired,
            "dual_applied": self.dual_applied,
            "plans_approved": self.planner.plans_approved,
            "plans_rejected": self.planner.plans_rejected,
            "rejections": dict(self.planner.rejections),
            "last_abort_reason": self.last_abort_reason,
            "active": active,
        }
