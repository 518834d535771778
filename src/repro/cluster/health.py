"""Replica health tracking, restart, and trusted-path re-sync.

Tang et al.'s enclave KV stores treat integrity alarms as runtime events to
recover from; Harnik et al.'s production guidance is that enclaves *will*
restart.  The :class:`HealthMonitor` is the recovery loop that makes both
survivable in this reproduction:

* a replica marked DOWN by its :class:`~repro.cluster.replication
  .ReplicaGroup` (crash or integrity quarantine) is **restarted** — the
  dead enclave is discarded and a fresh one built (new key material, empty
  store; EPC contents never survive);
* the restarted replica enters RECOVERING and is **re-synced** from a live
  peer before it serves a single request: every key is read from the peer
  (index walk + MAC verify + decrypt, charged to the peer's meter) and
  re-put into the newcomer (re-encrypted and re-MACed under *its* keys,
  charged to its meter).  Enclaves share no key material, so state can
  only ever move between them through this verified, re-sealed path — the
  same one the balancer's migrations use;
* only after a complete copy does the replica rejoin as UP, becoming
  eligible for reads and the write fan-out again.

The monitor piggybacks on the serving loop the same way the balancer does:
set it as ``coordinator.health_monitor`` and it inspects the cluster every
``check_every`` routed requests; or drive :meth:`check` directly from a
test or operations script.  With no live peer in a group, its dead
replicas stay DOWN — an empty restarted enclave must never masquerade as
a copy of data that no longer exists anywhere.

Unless the group has a **durability sidecar** (:mod:`repro.persist`): then
"no live peer" is no longer the end.  One restarted replica is rebuilt
from the verified sealed snapshot + log replay — counter-checked, so a
stale-state rollback or a wiped counter is *rejected* with
:class:`~repro.errors.RollbackDetectedError` and the replicas keep
waiting, exactly as an empty rejoin would have been rejected before.  On
success the rebuilt replica rejoins UP, and its still-RECOVERING peers
re-sync from it over the existing trusted path in the same round.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.replication import Replica, ReplicaGroup, ReplicaState
from repro.errors import DurabilityError, RecoveryError, ShardCrashedError

DEFAULT_CHECK_EVERY = 512


@dataclass
class ResyncReport:
    """One completed recovery: which replica, from whom, at what cost."""

    group: str
    replica: str
    source: str
    keys_copied: int
    src_cycles: float    # verified reads charged to the live peer
    dst_cycles: float    # re-sealed puts charged to the recovered replica
    restarted: bool
    #: The replica came back via reconnect (healed partition): the far-side
    #: enclave kept its state, so this re-sync is a catch-up of the writes
    #: missed while unreachable, not a rebuild from empty.
    reconnected: bool = False


@dataclass
class RecoveryReport:
    """One whole-partition rebuild from sealed storage: what and at what cost."""

    group: str
    replica: str
    keys_restored: int
    batches_replayed: int
    epoch: int
    counter: int
    torn_bytes_trimmed: int
    dur_cycles: float    # counter read + unseal/verify on the durability meter
    dst_cycles: float    # re-sealed puts charged to the rebuilt replica


class HealthMonitor:
    """Watches replica groups; restarts and re-syncs DOWN replicas."""

    def __init__(self, coordinator, *, check_every: int = DEFAULT_CHECK_EVERY,
                 auto_restart: bool = True):
        if check_every < 1:
            raise ValueError("check_every must be >= 1")
        self._coordinator = coordinator
        self.check_every = check_every
        self.auto_restart = auto_restart
        self.history: List[ResyncReport] = []
        self.recoveries: List[RecoveryReport] = []
        self.recovery_failures: List[Tuple[str, DurabilityError]] = []
        self._ops_since_check = 0

    # -- driving ------------------------------------------------------------------

    def observe(self, n_ops: int) -> List[ResyncReport]:
        """Account routed ops; run a health check once per window."""
        self._ops_since_check += n_ops
        if self._ops_since_check < self.check_every:
            return []
        self._ops_since_check = 0
        return self.check()

    def check(self) -> List[ResyncReport]:
        """One inspection round over every replica group.

        Restart pass first; then, for a group with *no* live replica but a
        durability sidecar, one restarted replica is rebuilt from sealed
        storage (a typed failure — rollback detected, torn log under
        strict mode, nothing recoverable — is recorded in
        ``recovery_failures`` and the replicas stay non-UP); finally the
        usual peer re-sync pass, which in the durable case copies from the
        freshly rebuilt replica in the same round.
        """
        reports: List[ResyncReport] = []
        for group in self._coordinator.shard_list():
            replicas = group.replicas
            if not replicas:
                continue  # a plain, unreplicated shard: nothing to heal
            restarted_ids = set()
            reconnected_ids = set()
            for replica in replicas:
                if replica.state is not ReplicaState.DOWN \
                        or not self.auto_restart:
                    continue
                if replica.last_reason == "unreachable":
                    # The enclave is (probably) alive behind a partition:
                    # try the cheap path — re-dial, re-handshake, re-attach
                    # — before discarding its state with a restart.
                    if self._reconnect(replica):
                        reconnected_ids.add(id(replica))
                        continue
                    if not replica.shard.crashed:
                        continue  # heal window still open: retry next round
                if self._restart(replica):
                    restarted_ids.add(id(replica))
            if group.durability is not None \
                    and group._first_live() is None:
                try:
                    self.recover_from_storage(group)
                except DurabilityError as exc:
                    self.recovery_failures.append((group.shard_id, exc))
            for replica in replicas:
                if replica.state is ReplicaState.RECOVERING:
                    report = self.resync(group, replica)
                    if report is not None:
                        report.restarted = (id(replica) in restarted_ids
                                            or report.restarted)
                        report.reconnected = id(replica) in reconnected_ids
                        reports.append(report)
        self.history.extend(reports)
        return reports

    # -- recovery -----------------------------------------------------------------

    def _reconnect(self, replica: Replica) -> bool:
        """Re-establish the link to a partitioned replica, state intact.

        Success moves the replica to RECOVERING so the normal re-sync pass
        catches it up on the writes it missed; the far side keeping its
        keys and store is what makes this cheaper than a restart.  Failure
        leaves it DOWN — with ``crashed`` now set if the far side turned
        out to be dead, which routes it to the restart path.
        """
        try:
            ok = replica.shard.reconnect()
        except ShardCrashedError:
            return False
        if ok:
            replica.state = ReplicaState.RECOVERING
        return ok

    def _restart(self, replica: Replica) -> bool:
        """Swap the dead/quarantined enclave for a fresh, empty one."""
        if replica.rebuild is None:
            return False  # no recipe: stays DOWN for an operator
        try:
            if not replica.shard.crashed:
                # Quarantined for integrity, enclave still running: its
                # untrusted state is rotten, so discard it outright rather
                # than trusting a partial heal.
                replica.shard.kill()
            replica.restart()
        except ShardCrashedError:
            return False  # the old enclave or its replacement is unreachable
        replica.state = ReplicaState.RECOVERING
        return True

    def resync(self, group: ReplicaGroup,
               replica: Replica) -> Optional[ResyncReport]:
        """Copy the partition's state from a live peer; metered both sides.

        A reconnected replica kept its state and may hold keys the peer
        has since deleted: when it holds more keys than were copied, each
        one the peer lacks is deleted too (``len`` is held in the enclave,
        so a re-sync that missed no delete pays nothing for the check).
        The replica rejoins (UP) only after the full copy lands.  Returns
        None when no live peer exists — there is nothing trustworthy to
        copy, so the replica keeps waiting in RECOVERING.
        """
        peer = group._first_live()
        if peer is None or peer is replica:
            return None
        src_store = peer.shard.store
        dst_store = replica.shard.store
        src_before = peer.shard.meter.cycles
        dst_before = replica.shard.meter.cycles
        keys = list(src_store.keys())
        for key in keys:
            dst_store.put(key, src_store.get(key))
        copied = len(keys)
        if len(dst_store) > copied:
            kept = set(keys)
            for key in list(dst_store.keys()):
                if key not in kept:
                    dst_store.delete(key)
        replica.state = ReplicaState.UP
        return ResyncReport(
            group=group.shard_id,
            replica=replica.replica_id,
            source=peer.replica_id,
            keys_copied=copied,
            src_cycles=peer.shard.meter.cycles - src_before,
            dst_cycles=replica.shard.meter.cycles - dst_before,
            restarted=False,
        )

    def recover_from_storage(self, group: ReplicaGroup,
                             replica: Optional[Replica] = None
                             ) -> RecoveryReport:
        """Rebuild one replica from the group's sealed snapshot + log.

        Runs the full verified recovery — counter read, snapshot unseal,
        chained log replay (torn tail trimmed), freshness check — and
        loads the result into ``replica`` (default: the first RECOVERING
        one) through metered, re-sealed puts, after which it rejoins UP.

        Raises the typed :class:`~repro.errors.DurabilityError` family on
        anything unacceptable: :class:`~repro.errors.RollbackDetectedError`
        for stale state or a rewound counter,
        :class:`~repro.errors.RecoveryError` when there is no durable
        state, no candidate replica, or the candidate dies mid-rebuild.
        The replicas stay non-UP in every failure case.
        """
        durability = group.durability
        if durability is None:
            raise RecoveryError(
                f"{group.shard_id}: no durability attached; a group with "
                "no live peer and no sealed state stays down")
        if replica is None:
            replica = next((r for r in group.replicas
                            if r.state is ReplicaState.RECOVERING), None)
        if replica is None:
            raise RecoveryError(
                f"{group.shard_id}: no restarted replica to rebuild into")
        dur_before = durability.meter.cycles
        state = durability.recover()
        dst_before = replica.shard.meter.cycles
        try:
            store = replica.shard.store
            for key, value in state.pairs.items():
                store.put(key, value)
        except ShardCrashedError as exc:
            group.mark_down(replica, "crash")
            raise RecoveryError(
                f"{group.shard_id}: replica {replica.replica_id} died "
                "during rebuild") from exc
        replica.state = ReplicaState.UP
        report = RecoveryReport(
            group=group.shard_id,
            replica=replica.replica_id,
            keys_restored=len(state.pairs),
            batches_replayed=state.batches_replayed,
            epoch=state.epoch,
            counter=state.counter,
            torn_bytes_trimmed=state.torn_bytes_trimmed,
            dur_cycles=durability.meter.cycles - dur_before,
            dst_cycles=replica.shard.meter.cycles - dst_before,
        )
        self.recoveries.append(report)
        return report

    # -- reporting ----------------------------------------------------------------

    def recovering(self) -> bool:
        """True while any replica is not UP — the brownout signal.

        The overload layer sheds writes while this holds (reads still
        served): a mid-recovery group is one failure away from losing
        the partition, and re-sync traffic is competing with the write
        fan-out for the same enclaves.
        """
        for group in self._coordinator.shard_list():
            replicas = group.replicas
            if not replicas:
                continue
            if any(r.state is not ReplicaState.UP for r in replicas):
                return True
        return False

    def total_resyncs(self) -> int:
        return len(self.history)

    def total_reconnects(self) -> int:
        return sum(1 for r in self.history if r.reconnected)

    def total_keys_resynced(self) -> int:
        return sum(r.keys_copied for r in self.history)

    def total_recoveries(self) -> int:
        return len(self.recoveries)
