"""Elastic scale-out: the model-checked planner and live migration engine.

Marked ``elastic`` so CI can run reconfiguration coverage as its own job
(``pytest -m elastic``).  The contract under test (ARCHITECTURE §17):

* every :data:`~repro.cluster.elastic.CONSTRAINT_MODELS` entry rejects at
  least one invalid :class:`~repro.cluster.TopologyDelta` with a typed
  :class:`~repro.errors.PlanRejectedError` naming the violated model;
* an approved plan executes *under traffic* — bounded copy batches
  interleaved with serving, dual-applied writes, reads always from the
  authoritative side — and loses no acknowledged write, on every shard
  backend (the conftest re-runs this module inline/process/socket);
* staged faults (KILL / PARTITION / SLOW at each migration stage, torn
  writes on the new shard's durability sidecar) either ride out via
  replication or abort cleanly back to the prior ring;
* the balancer's no-surplus round is a no-op (regression: it used to
  move a vnode even with nothing to halve), and with a planner attached
  every move must pay for itself through the ``migration_cost`` model;
* while a migration is in flight only the engine moves keys: a
  single-key put is dual-applied like any batch, a bulk load is refused
  and a balancer round is skipped (regressions: each lost keys);
* roster and topology changes re-partition tenant admission buckets and
  Secure-Cache quotas live (§16's follow-on).

Everything is deterministic: fault plans are pure data, workloads come
from seeded RNGs, and the migration copy schedule is sorted — the
closing test pins simulated cycles to be bit-identical across backends.
"""

import dataclasses
import json
import random

import pytest

from repro.cluster import (
    CONSTRAINT_MODELS,
    ClusterConfig,
    DurabilityConfig,
    FaultPlan,
    HealthMonitor,
    HotShardBalancer,
    PlanRejectedError,
    ReconfigPlanner,
    STAGE_ORDINALS,
    TenancyConfig,
    TenantConfig,
    TopologyDelta,
    elastic_target,
)
from repro.core.tenant import tenant_token
from repro.errors import AriaError, ConfigurationError
from repro.server import protocol
from repro.server.protocol import STATUS_OK

from tests.chaos import History, ZipfStream

pytestmark = pytest.mark.elastic

N_KEYS = 200


def small(**overrides):
    fields = dict(n_shards=3, n_keys=N_KEYS, scale=2048, batch_window=8,
                  max_shards=4)
    fields.update(overrides)
    return ClusterConfig(**fields)


def preload(coord, n=N_KEYS):
    coord.load((b"key-%04d" % i, b"init") for i in range(n))


def drive_until_idle(coord, rng, history, *, n_keys=N_KEYS):
    """Zipf get/put traffic until the migration drains.

    Every response must be a served OK — a migration may never surface as
    a lost or alarmed request — and every OK'd put lands in ``history`` as
    a write the cluster now owes us.
    """
    engine = coord.elastic
    history.run(coord.execute,
                ZipfStream(rng, n_keys, version=len(history.acked)),
                lambda ops: engine.active and ops < 400 * 24)
    assert not engine.active, "migration did not drain under traffic"


# -- the planner: one typed rejection per constraint model ------------------------


class TestPlannerRejections:
    def test_epc_budget_rejects_without_headroom(self):
        # max_shards unset: the envelope is fully consumed at build, so
        # every add must overflow the EPC model.
        coord = small(n_shards=2, max_shards=None).build()
        try:
            engine = coord.elastic
            with pytest.raises(PlanRejectedError, match="EPC") as info:
                engine.add_shard()
            assert info.value.constraint == "epc_budget"
            assert isinstance(info.value, ConfigurationError)
            assert engine.planner.plans_rejected == 1
            assert engine.planner.rejections == {"epc_budget": 1}
            assert not engine.active  # nothing began executing
        finally:
            coord.close()

    def test_replication_floor_rejects_lowering_r(self):
        coord = small(n_shards=2).build()
        try:
            planner = ReconfigPlanner(coord, coord.elastic.spec,
                                      min_replication=2)
            with pytest.raises(PlanRejectedError, match="floor") as info:
                planner.plan(TopologyDelta(replication=1))
            assert info.value.constraint == "replication_floor"
            with pytest.raises(PlanRejectedError) as info:
                planner.plan(TopologyDelta(replication=0))
            assert info.value.constraint == "replication_floor"
            assert planner.rejections == {"replication_floor": 2}
        finally:
            coord.close()

    def test_durability_continuity_requires_a_sidecar_recipe(self, tmp_path):
        coord = small(n_shards=2, max_shards=3,
                      durability=DurabilityConfig(
                          data_dir=str(tmp_path))).build()
        try:
            engine = coord.elastic
            # The armed engine can mint sidecars, so the same delta passes.
            assert engine.spec.durability_factory is not None
            engine.propose(TopologyDelta(add_shards=("shard-2",)))
            # A planner whose spec cannot mint one must refuse the add:
            # the shard would take reads without durable custody.
            stripped = dataclasses.replace(engine.spec,
                                           durability_factory=None)
            planner = ReconfigPlanner(coord, stripped)
            with pytest.raises(PlanRejectedError, match="custody") as info:
                planner.plan(TopologyDelta(add_shards=("shard-2",)))
            assert info.value.constraint == "durability_continuity"
        finally:
            coord.close()

    def test_tenant_quota_floors_must_fit_the_cache(self):
        tenancy = TenancyConfig(tenants=(
            TenantConfig("acme", cache_quota=0.3),
            TenantConfig("bravo", cache_quota=0.3),
            TenantConfig("chai", cache_quota=0.3),
        ))
        coord = small(n_shards=2, max_shards=3, tenancy=tenancy).build()
        try:
            # Three floors of >= 1 protected entry each cannot fit a shard
            # the model projects at 2 cache entries.
            tiny = dataclasses.replace(coord.elastic.spec, cache_entries=2)
            planner = ReconfigPlanner(coord, tiny)
            with pytest.raises(PlanRejectedError, match="quota") as info:
                planner.plan(TopologyDelta(add_shards=("shard-2",)))
            assert info.value.constraint == "tenant_quota"
            # With a realistic cache projection the same roster fits.
            coord.elastic.propose(TopologyDelta(add_shards=("shard-2",)))
        finally:
            coord.close()

    def test_migration_cost_budget_and_cost_benefit(self):
        coord = small(n_shards=2, max_shards=3).build()
        try:
            preload(coord, 64)
            spec = coord.elastic.spec
            budgeted = ReconfigPlanner(coord, spec, max_migration_cost=1.0)
            with pytest.raises(PlanRejectedError, match="budget") as info:
                budgeted.plan(TopologyDelta(add_shards=("shard-2",)))
            assert info.value.constraint == "migration_cost"
            # Cost-benefit: a vnode move from a populated shard cannot pay
            # for itself against zero projected straggler savings.
            src = max(coord.shard_list(), key=lambda s: len(s.store))
            dst = next(s for s in coord.shard_list()
                       if s.shard_id != src.shard_id)
            planner = ReconfigPlanner(coord, spec)
            move = TopologyDelta(
                vnode_moves=((src.shard_id, dst.shard_id, 8),))
            with pytest.raises(PlanRejectedError, match="pay") as info:
                planner.plan(move, projected_savings=0.0)
            assert info.value.constraint == "migration_cost"
            # The same move with generous savings is approved.
            plan = planner.plan(move, projected_savings=1e12)
            assert "migration_cost" in plan.constraints
        finally:
            coord.close()

    def test_structurally_invalid_deltas(self):
        coord = small(n_shards=2).build()
        try:
            engine = coord.elastic
            cases = [
                TopologyDelta(),                              # noop
                TopologyDelta(add_shards=("shard-0",)),       # already present
                TopologyDelta(add_shards=("x", "x")),         # duplicate ids
                TopologyDelta(remove_shards=("ghost",)),      # unknown
                TopologyDelta(remove_shards=("shard-0",
                                             "shard-1")),     # empty cluster
                TopologyDelta(vnode_moves=(("shard-0", "ghost", 1),)),
                TopologyDelta(vnode_moves=(("shard-0", "shard-1", 0),)),
            ]
            for delta in cases:
                with pytest.raises(PlanRejectedError) as info:
                    engine.propose(delta)
                assert info.value.constraint == "topology", delta
        finally:
            coord.close()

    def test_every_constraint_model_is_exercised_above(self):
        # The acceptance bar: one typed rejection per model.  The topology
        # gate is structural and tested separately.
        covered = {"epc_budget", "replication_floor",
                   "durability_continuity", "tenant_quota",
                   "migration_cost"}
        assert covered == set(CONSTRAINT_MODELS)


# -- the balancer: no-surplus regression + the cost-aware gate --------------------


class TestBalancerPolicy:
    def _heat(self, coord, shard_id, rounds=6):
        """Drive reads at keys owned by ``shard_id`` to heat its meter."""
        hot_keys = [k for k in (b"key-%04d" % i for i in range(N_KEYS))
                    if coord.ring.route(k) == shard_id][:16]
        assert hot_keys, f"no keys routed to {shard_id}"
        for _ in range(rounds):
            responses = coord.execute([protocol.get(k) for k in hot_keys])
            assert all(r.status == STATUS_OK for r in responses)
        return len(hot_keys) * rounds

    def test_no_surplus_round_is_a_noop(self):
        # Regression: with equal vnode counts there is no surplus to
        # halve, and the balancer used to move one vnode anyway —
        # churning keys without any possible routing improvement.
        coord = small(n_shards=2, max_shards=None).build()
        try:
            preload(coord)
            balancer = HotShardBalancer(coord, check_every=1,
                                        min_window_ops=1)
            counts_before = dict(coord.ring.vnode_counts())
            ops = self._heat(coord, "shard-0")
            balancer._window_ops = ops
            assert balancer.maybe_rebalance() is None
            assert coord.ring.vnode_counts() == counts_before
            assert balancer.history == []
        finally:
            coord.close()

    def test_planner_gate_refuses_moves_that_do_not_pay(self):
        coord = small(n_shards=2, max_shards=None).build()
        try:
            # Give shard-0 a real vnode surplus (before loading, so no
            # key is stranded on an arc that moved) so a move is
            # proposable.
            coord.ring.move_vnodes("shard-1", "shard-0", 64)
            preload(coord)
            planner = ReconfigPlanner(coord, coord.elastic.spec,
                                      max_migration_cost=1.0)
            balancer = HotShardBalancer(coord, check_every=1,
                                        min_window_ops=1, planner=planner)
            counts_before = dict(coord.ring.vnode_counts())
            ops = self._heat(coord, "shard-0")
            balancer._window_ops = ops
            assert balancer.maybe_rebalance() is None
            assert balancer.plans_rejected == 1
            assert planner.rejections == {"migration_cost": 1}
            assert coord.ring.vnode_counts() == counts_before
            # Ungated, the identical imbalance does move vnodes: the gate
            # was the only thing holding the migration back.
            balancer.planner = None
            balancer._window_ops = self._heat(coord, "shard-0")
            report = balancer.maybe_rebalance()
            assert report is not None and report.vnodes_moved > 0
            assert coord.ring.vnode_counts() != counts_before
        finally:
            coord.close()


# -- live migration under traffic -------------------------------------------------


class TestLiveMigration:
    def test_add_shard_under_traffic_loses_no_acked_write(self):
        coord = small().build()
        try:
            preload(coord)
            engine = coord.elastic
            plan = engine.add_shard()
            assert plan.n_shards_after == 4
            assert engine.active and engine.stage == "sync"
            rng = random.Random(7)
            history = History()
            drive_until_idle(coord, rng, history)
            assert "shard-3" in coord.shards
            assert sorted(coord.ring.shards()) == sorted(coord.shards)
            stats = engine.stats()
            assert stats["migrations_completed"] == 1
            assert stats["migrations_aborted"] == 0
            assert stats["keys_migrated"] > 0
            assert stats["keys_retired"] > 0
            assert len(coord.shards["shard-3"].store) > 0
            history.readback(coord.get)
            # Nothing preloaded went missing either.
            for i in range(N_KEYS):
                assert coord.get(b"key-%04d" % i) is not None
            # The engine's counters surface through OP_HEALTH and the
            # stats aggregation (satellite: operator visibility).
            summary = json.loads(coord.health_response().value)
            assert summary["elastic"]["migrations_completed"] == 1
            report = coord.stats().report()
            assert report["cluster"]["elastic"]["keys_migrated"] > 0
        finally:
            coord.close()

    def test_remove_shard_under_traffic_loses_no_acked_write(self):
        coord = small(max_shards=None).build()
        try:
            preload(coord)
            engine = coord.elastic
            moving = len(coord.shards["shard-2"].store)
            engine.remove_shard("shard-2")
            rng = random.Random(11)
            history = History()
            drive_until_idle(coord, rng, history)
            assert "shard-2" not in coord.shards
            assert sorted(coord.ring.shards()) == ["shard-0", "shard-1"]
            stats = engine.stats()
            assert stats["migrations_completed"] == 1
            assert stats["keys_migrated"] >= moving
            history.readback(coord.get)
            for i in range(N_KEYS):
                assert coord.get(b"key-%04d" % i) is not None
        finally:
            coord.close()

    def test_dual_apply_covers_writes_behind_the_copy_cursor(self):
        # Tiny copy batches stretch SYNC across many serving rounds, so
        # writes land in already-copied and not-yet-copied arcs alike.
        coord = small().build()
        try:
            preload(coord)
            engine = coord.elastic
            engine.batch_keys = 4
            engine.add_shard()
            rng = random.Random(13)
            history = History()
            drive_until_idle(coord, rng, history)
            assert engine.stats()["dual_applied"] > 0
            history.readback(coord.get)
        finally:
            coord.close()

    def test_abort_restores_the_prior_ring(self, fault_record):
        # R=2 joining group; two staged KILLs at SYNC entry take down both
        # replicas, so the add must roll back: same ring, same membership,
        # every acked write still served by the authoritative side.
        plan = fault_record(
            FaultPlan()
            .kill(elastic_target("shard-2"), at=STAGE_ORDINALS["sync"])
            .kill(elastic_target("shard-2"), at=STAGE_ORDINALS["sync"]))
        coord = small(n_shards=2, max_shards=3, replication=2,
                      shard_overrides={"fault_plan": plan}).build()
        try:
            preload(coord)
            engine = coord.elastic
            shards_before = sorted(coord.shards)
            engine.add_shard("shard-2")
            rng = random.Random(17)
            history = History()
            drive_until_idle(coord, rng, history)
            stats = engine.stats()
            assert stats["migrations_aborted"] == 1
            assert stats["migrations_completed"] == 0
            assert "staged fault" in stats["last_abort_reason"]
            assert sorted(coord.shards) == shards_before
            assert sorted(coord.ring.shards()) == shards_before
            history.readback(coord.get)
            # The cluster is immediately reusable: a fresh plan is
            # approved and the retried add completes.
            engine.add_shard("shard-2")
            drive_until_idle(coord, rng, history)
            assert engine.stats()["migrations_completed"] == 1
            history.readback(coord.get)
        finally:
            coord.close()

    def test_torn_sidecar_write_after_cutover_recovers(self, tmp_path):
        # Torn-write hardening for migrated custody: the joining shard's
        # durability sidecar (minted in PREPARE) tears its first commit
        # after cutover; the group repairs durability from live state and
        # the write still lands — zero acked loss.
        from repro.cluster.faults import dur_target

        coord = small(n_shards=2, max_shards=3,
                      durability=DurabilityConfig(
                          data_dir=str(tmp_path))).build()
        try:
            preload(coord, 64)
            engine = coord.elastic
            engine.add_shard("shard-2")
            rng = random.Random(19)
            history = History()
            drive_until_idle(coord, rng, history, n_keys=64)
            new_group = coord.shards["shard-2"]
            sidecar = getattr(new_group, "durability", None)
            assert sidecar is not None, \
                "joining shard took reads without a durability sidecar"
            sidecar.plan = FaultPlan().torn(
                dur_target("shard-2"), at=sidecar.commit_attempts + 1)
            victim = next(iter(new_group.store.keys()))
            [response] = coord.execute([protocol.put(victim, b"post-torn")])
            assert response.status == STATUS_OK
            assert coord.get(victim) == b"post-torn"
            history.readback(coord.get)
        finally:
            coord.close()


# -- the chaos gauntlet -----------------------------------------------------------


class TestChaosGauntlet:
    """Add + remove under zipf(0.99) with staged KILL/PARTITION/SLOW."""

    def test_staged_faults_at_every_stage_lose_nothing(self, fault_record):
        join = "shard-2"
        leave = "shard-0"
        plan = fault_record(
            FaultPlan()
            # The joining group: one replica killed entering SYNC, the
            # other stalled entering CUTOVER — the add rides both out.
            .kill(elastic_target(join), at=STAGE_ORDINALS["sync"])
            .slow(elastic_target(join), at=STAGE_ORDINALS["cutover"],
                  seconds=0.001, ops=2)
            # The leaving group: one replica partitioned entering SYNC
            # (heal window 0), another stalled entering RETIRE — the
            # remove fails over and completes.
            .partition(elastic_target(leave), at=STAGE_ORDINALS["sync"],
                       seconds=0.0)
            .slow(elastic_target(leave), at=STAGE_ORDINALS["retire"],
                  seconds=0.001, ops=2))
        coord = small(n_shards=2, max_shards=3, replication=2,
                      shard_overrides={"fault_plan": plan}).build()
        monitor = HealthMonitor(coord, check_every=64)
        coord.health_monitor = monitor
        try:
            preload(coord)
            engine = coord.elastic
            rng = random.Random(23)
            history = History(plan=plan)

            engine.add_shard(join)
            drive_until_idle(coord, rng, history)
            engine.remove_shard(leave)
            drive_until_idle(coord, rng, history)

            stats = engine.stats()
            assert stats["migrations_started"] == 2
            assert (stats["migrations_completed"]
                    + stats["migrations_aborted"]) == 2
            # The whole schedule fired: every stage transition that had a
            # fault scheduled actually took it.
            history.fired(4)
            # Membership is consistent whatever the outcomes were.
            assert sorted(coord.ring.shards()) == sorted(coord.shards)
            # The bar: no acked write lost, nothing preloaded missing.
            history.readback(coord.get)
            for i in range(N_KEYS):
                assert coord.get(b"key-%04d" % i) is not None, \
                    plan.describe()
        finally:
            coord.close()

    def test_migration_cycles_are_backend_invariant(self, cluster_backend):
        """The same reconfiguration meters identically on every backend."""
        def scenario(backend):
            coord = small(n_shards=2, max_shards=3, n_keys=64,
                          backend=backend).build()
            try:
                coord.load((b"key-%04d" % i, b"init") for i in range(64))
                engine = coord.elastic
                engine.add_shard("shard-2")
                rng = random.Random(29)
                history = History()
                drive_until_idle(coord, rng, history, n_keys=64)
                engine.remove_shard("shard-0")
                drive_until_idle(coord, rng, history, n_keys=64)
                cycles = {sid: coord.shards[sid].meter.cycles
                          for sid in sorted(coord.shards)}
                return cycles, engine.stats()["keys_migrated"]
            finally:
                coord.close()

        this_backend = scenario(cluster_backend)
        if cluster_backend == "inline":
            return  # nothing to compare against itself
        assert this_backend == scenario("inline")


# -- §16 follow-on: live re-partitioning of tenancy state -------------------------


class TestTenancyRepartition:
    def _tenancy(self, *tenants):
        return TenancyConfig(tenants=tenants)

    def test_roster_retarget_preserves_bucket_deficit(self):
        config = small(n_shards=2, max_shards=None, tenancy=self._tenancy(
            TenantConfig("acme", rate=100.0, burst=4.0, cache_quota=0.2),
            TenantConfig("gone", rate=100.0, burst=4.0)))
        coord = config.build(clock=lambda: 0.0)  # frozen: no refill
        try:
            state = coord.tenancy
            assert state.buckets["acme"].try_acquire(2.0)  # half drained
            new_roster = self._tenancy(
                TenantConfig("acme", rate=100.0, burst=8.0,
                             cache_quota=0.2),
                TenantConfig("beta", rate=100.0, burst=4.0,
                             cache_quota=0.3))
            assert coord.retarget_tenancy(new_roster) is state
            assert state.repartitions == 1
            # The survivor's new bucket is primed with its old fill
            # *fraction* (a roster edit cannot refill a drained whale).
            assert state.buckets["acme"].available == pytest.approx(4.0)
            assert "beta" in state.prefixes and "gone" not in state.prefixes
            assert state.stats()["repartitions"] == 1
            # The new quota map reached every live enclave.
            expected = {tenant_token("acme"): 0.2, tenant_token("beta"): 0.3}
            for shard in coord.shard_list():
                store = getattr(shard, "store", None)
                if hasattr(store, "config"):
                    assert store.config.tenant_quotas == expected
        finally:
            coord.close()

    def test_roster_retarget_needs_tenancy_armed_at_build(self):
        """The front door reads the roster once, when it is built, so a
        layer armed later would skip its checks: an unarmed coordinator
        refuses the retarget and stays unarmed."""
        coord = small(n_shards=2).build()
        try:
            with pytest.raises(ConfigurationError, match="tenancy armed"):
                coord.retarget_tenancy(
                    self._tenancy(TenantConfig("acme", cache_quota=0.2)))
            assert coord.tenancy is None
        finally:
            coord.close()

    def test_topology_change_repartitions_cache_quotas(self, cluster_backend):
        config = small(tenancy=self._tenancy(
            TenantConfig("acme", cache_quota=0.25),
            TenantConfig("bravo", cache_quota=0.25)))
        coord = config.build()
        try:
            preload(coord)
            coord.elastic.add_shard("shard-3")
            coord.elastic.run_to_completion()
            assert "shard-3" in coord.shards
            if cluster_backend == "inline":
                expected = {tenant_token("acme"): 0.25,
                            tenant_token("bravo"): 0.25}
                # The joining shard partitions its Secure Cache from the
                # *live* roster, identically to its peers.  (The joiner is
                # always a replica group; peers are plain shards here.)
                for shard in coord.shard_list():
                    replicas = getattr(shard, "replicas", None)
                    stores = ([r.shard.store for r in replicas]
                              if replicas is not None else [shard.store])
                    for store in stores:
                        assert store.config.tenant_quotas == expected
        finally:
            coord.close()


# -- engine guardrails ------------------------------------------------------------


class TestEngineGuardrails:
    def test_one_migration_at_a_time(self):
        coord = small(max_shards=5).build()
        try:
            engine = coord.elastic
            engine.add_shard()
            with pytest.raises(AriaError, match="in flight"):
                engine.add_shard()
            engine.run_to_completion()
            engine.add_shard()  # drained: the next plan may begin
            engine.run_to_completion()
        finally:
            coord.close()

    def test_run_to_completion_without_traffic(self):
        coord = small().build()
        try:
            preload(coord, 64)
            engine = coord.elastic
            engine.add_shard("shard-3")
            engine.run_to_completion()
            assert not engine.active
            assert "shard-3" in coord.shards
            for i in range(64):
                assert coord.get(b"key-%04d" % i) == b"init"
        finally:
            coord.close()


# -- only the engine moves keys while a migration is in flight --------------------


def _two_shards(**overrides):
    fields = dict(n_shards=2, n_keys=512, scale=2048, max_shards=3)
    fields.update(overrides)
    coord = ClusterConfig(**fields).build()
    coord.load((b"key-%04d" % i, b"v0") for i in range(400))
    return coord


class TestMigrationOwnsKeyMovement:
    def test_single_key_put_during_sync_survives_cutover(self):
        # Regression: coordinator.put bypassed execute, so a write to a
        # key whose copy batch had already run was never dual-applied:
        # acked, then lost at cutover.
        coord = _two_shards()
        try:
            engine = coord.elastic
            engine.add_shard()
            coord.execute([protocol.get(b"key-0000")])
            assert engine.stage == "sync"
            _, copied = engine._migration.copied[0]
            coord.put(copied, b"NEW")
            engine.run_to_completion()
            assert coord.get(copied) == b"NEW"
        finally:
            coord.close()

    def test_load_is_refused_during_a_migration(self):
        # Regression: a bulk load mid-SYNC wrote to the old owners behind
        # the copy cursor, and the cutover stranded those keys.
        coord = _two_shards()
        try:
            engine = coord.elastic
            engine.add_shard()
            before = coord.total_keys()
            late = [(b"late-%04d" % i, b"v1") for i in range(200)]
            with pytest.raises(AriaError, match="migration is in flight"):
                coord.load(late)
            assert coord.total_keys() == before
            engine.run_to_completion()
            coord.load(late)
            for key, value in late:
                assert coord.get(key) == value
        finally:
            coord.close()

    def test_balancer_waits_for_the_migration(self):
        # Regression: the balancer moved vnodes in place mid-migration,
        # and the engine's cutover then installed the ring it had planned
        # before the move, stranding the balancer's keys.
        coord = _two_shards(vnodes={"shard-0": 116, "shard-1": 12})
        try:
            engine = coord.elastic
            engine.batch_keys = 8
            balancer = HotShardBalancer(coord, check_every=64,
                                        imbalance_threshold=1.3,
                                        min_window_ops=64)
            coord.balancer = balancer
            engine.add_shard()
            keys = [b"key-%04d" % i for i in range(400)]
            rounds = 0
            while engine.active and rounds < 200:
                start = (16 * rounds) % len(keys)
                coord.execute([protocol.get(k)
                               for k in keys[start:start + 16]])
                rounds += 1
            assert not engine.active and balancer.history == []
            for round_ in range(40):  # drained: the balancer's turn again
                start = (16 * round_) % len(keys)
                coord.execute([protocol.get(k)
                               for k in keys[start:start + 16]])
            assert balancer.history
            responses = coord.execute([protocol.get(k) for k in keys])
            assert all(r.status == STATUS_OK for r in responses)
        finally:
            coord.close()
