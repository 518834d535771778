"""Hot-shard detection and key-range migration between shards.

Consistent hashing balances *key counts*, not *load*: a zipfian workload
(the paper's whole premise) concentrates traffic on few keys, and whichever
shard owns the hot arcs becomes the cluster's straggler — aggregate
throughput is set by the slowest shard (see ``cluster.stats``), so one hot
shard wastes the other N-1 enclaves.

The balancer watches per-shard *cycle* deltas (the
:class:`~repro.sgx.meter.CycleMeter` is the honest load signal: it already
folds in swap storms and cache-miss verification costs, not just op
counts).  When the hottest shard exceeds ``imbalance_threshold`` times the
mean, it moves vnodes — i.e. key ranges — from the hot shard to the
coldest one and migrates the affected keys.

Migration goes through the trusted path on purpose: every key is read
(verified + decrypted) from the source enclave with ``store.get`` and
re-``put`` into the destination enclave, whose own counter, MAC, and
AdField are minted under *its* keys — shards share no key material, so
ciphertext can never be moved between enclaves byte-for-byte.  All of that
work is charged to the two shards' meters: rebalancing is never free in
the simulation, and the benchmarks measure its payback honestly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional


@dataclass
class MigrationReport:
    """One rebalancing round: what moved, and what it cost."""

    src: str
    dst: str
    vnodes_moved: int
    keys_moved: int
    src_cycles: float       # scan + re-verify + delete cost on the hot shard
    dst_cycles: float       # re-seal (put) cost on the destination
    loads_before: dict = field(default_factory=dict)


class HotShardBalancer:
    """Periodically inspects shard loads and migrates hot key ranges.

    Given a :class:`~repro.cluster.elastic.ReconfigPlanner` (``planner=``;
    ``serve`` passes ``coordinator.elastic.planner``), the balancer is one
    cost-aware policy *inside* the planner: every proposed vnode move is
    submitted as a :class:`~repro.cluster.elastic.TopologyDelta` with the
    hot shard's excess cycles as the projected straggler savings, and a
    plan the constraint models reject (most often ``migration_cost``: the
    move would not pay for itself) becomes a counted no-op instead of a
    migration.
    """

    def __init__(
        self,
        coordinator,
        *,
        check_every: int = 2048,
        imbalance_threshold: float = 1.5,
        min_window_ops: int = 256,
        planner=None,
    ):
        if imbalance_threshold <= 1.0:
            raise ValueError("imbalance_threshold must exceed 1.0")
        self._coordinator = coordinator
        self.check_every = check_every
        self.imbalance_threshold = imbalance_threshold
        self.min_window_ops = min_window_ops
        self.planner = planner
        #: Moves the planner's constraint models refused (no-ops).
        self.plans_rejected = 0
        self.history: List[MigrationReport] = []
        self._ops_since_check = 0
        self._window_ops = 0
        for shard in coordinator.shard_list():
            shard.mark_load()

    # -- driving ------------------------------------------------------------------

    def observe(self, n_ops: int) -> Optional[MigrationReport]:
        """Account routed ops; check for imbalance once per window."""
        self._ops_since_check += n_ops
        self._window_ops += n_ops
        if self._ops_since_check < self.check_every:
            return None
        self._ops_since_check = 0
        return self.maybe_rebalance()

    def maybe_rebalance(self) -> Optional[MigrationReport]:
        """One detection + migration round; None if the cluster is balanced.

        Skipped while the elastic engine migrates: its cutover installs
        the ring it planned, which would undo a vnode move made meanwhile.
        """
        elastic = self._coordinator.elastic
        if elastic is not None and elastic.active:
            return None
        shards = self._coordinator.shard_list()
        window_ops, self._window_ops = self._window_ops, 0
        if len(shards) < 2 or window_ops < self.min_window_ops:
            return None
        loads = {s.shard_id: s.load_since_mark() for s in shards}
        mean = sum(loads.values()) / len(loads)
        hot = max(shards, key=lambda s: loads[s.shard_id])
        cold = min(shards, key=lambda s: loads[s.shard_id])
        for shard in shards:
            shard.mark_load()
        if mean <= 0 or loads[hot.shard_id] < self.imbalance_threshold * mean:
            return None

        ring = self._coordinator.ring
        counts = ring.vnode_counts()
        avg_count = sum(counts.values()) / len(counts)
        # Halve the hot shard's vnode surplus each round: geometric
        # convergence without over-shooting on one noisy window.  No
        # surplus means the heat is key-level (one whale key), which no
        # vnode shuffle can fix: moving an arc anyway just churns keys,
        # so the no-surplus round is a no-op.
        surplus = counts[hot.shard_id] - avg_count
        if surplus <= 0:
            return None
        to_move = max(1, int(surplus // 2))
        if self.planner is not None:
            # The cost-aware gate: a move must project to pay for itself
            # in straggler savings (the hot shard's excess cycles this
            # window) before any key crosses an enclave boundary.
            from repro.errors import PlanRejectedError

            from repro.cluster.elastic import TopologyDelta

            delta = TopologyDelta(
                vnode_moves=((hot.shard_id, cold.shard_id, to_move),))
            savings = loads[hot.shard_id] - mean
            try:
                self.planner.plan(delta, projected_savings=savings)
            except PlanRejectedError:
                self.plans_rejected += 1
                return None
        moved = ring.move_vnodes(hot.shard_id, cold.shard_id, to_move)
        if not moved:
            return None
        report = self._migrate(hot, loads)
        report.vnodes_moved = moved
        self.history.append(report)
        # Migration itself consumed cycles on both shards; restart the load
        # window so the next detection sees serving load, not migration.
        for shard in shards:
            shard.mark_load()
        return report

    # -- migration ----------------------------------------------------------------

    def _migrate(self, src, loads: dict) -> MigrationReport:
        """Move every key the ring no longer assigns to ``src``.

        A full scan of the source shard: with consistent hashing the moved
        arcs are scattered through ``src``'s keyspace, and the index has no
        hash-order iteration, so the scan is the honest cost of migration.
        """
        coordinator = self._coordinator
        src_before = src.meter.cycles
        dst_cycles = 0.0
        keys_moved = 0
        dst_ids = set()
        for key in list(src.store.keys()):
            owner = coordinator.ring.route(key)
            if owner == src.shard_id:
                continue
            dst = coordinator.shards[owner]
            value = src.store.get(key)        # verified read (src enclave)
            before = dst.meter.cycles
            dst.store.put(key, value)         # re-sealed under dst's keys
            dst_cycles += dst.meter.cycles - before
            src.store.delete(key)             # counter back to src free ring
            keys_moved += 1
            dst_ids.add(owner)
        return MigrationReport(
            src=src.shard_id,
            dst=",".join(sorted(dst_ids)) if dst_ids else "",
            vnodes_moved=0,
            keys_moved=keys_moved,
            src_cycles=src.meter.cycles - src_before,
            dst_cycles=dst_cycles,
            loads_before=dict(loads),
        )

    # -- reporting ----------------------------------------------------------------

    def total_keys_moved(self) -> int:
        return sum(r.keys_moved for r in self.history)
