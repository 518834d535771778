"""Cluster-wide metrics aggregation (a ``memory_report`` for N enclaves).

Shards are independent enclaves running in parallel, so two aggregates
matter and they are *not* the same number:

* ``cycles_sum`` — total work done (what a power/billing view wants);
* ``cycles_max`` — the critical path: wall-clock is set by the slowest
  shard, so aggregate throughput is ``total_ops * hz / cycles_max``.

A perfectly balanced cluster has ``cycles_max ~= cycles_sum / N``; a hot
shard drags ``cycles_max`` toward ``cycles_sum`` and the aggregate
throughput collapses toward single-shard speed — exactly the effect the
balancer exists to fix, and what ``benchmarks/test_cluster_scaling.py``
measures.

:class:`ClusterStats` works on deltas: it snapshots every shard's meter at
construction (and at :meth:`rebaseline`), so load/warmup phases are
excluded the same way the single-store harness excludes them.

Aggregation only ever calls ``meter.snapshot()``, so a shard's ``meter``
may be a live :class:`~repro.sgx.meter.CycleMeter`, a process-backed
shard's mirror, or a frozen :class:`~repro.sgx.meter.MeterSnapshot`
(whose ``snapshot()`` is itself) — snapshots and live meters are
interchangeable, which is what lets metering cross process boundaries.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List

from repro.sgx.meter import MeterSnapshot

_OP_EVENTS = ("op_get", "op_put", "op_delete")

#: Baseline for a shard admitted mid-window by the elastic engine: its
#: whole meter is new work, so it deltas against zero.
_ZERO_BASELINE = MeterSnapshot(cycles=0.0, events=Counter())


class ClusterStats:
    """Delta-based aggregation over a fixed set of shards.

    ``layers`` is an optional zero-arg callable returning the armed
    coordinator layers' counters (the coordinator passes its
    :meth:`~repro.cluster.coordinator.ClusterCoordinator.layer_stats`), read
    at :meth:`report` time, not at window start.  The report's cluster row
    carries each under its name — ``"overload"`` (shedding, breaker trips,
    brownout time), ``"tenancy"`` (per-principal admitted/shed) and
    ``"elastic"`` (migration progress/aborts) — next to throughput.
    """

    def __init__(self, shards: Iterable, *, layers=None):
        self._shards: List = list(shards)
        if not self._shards:
            raise ValueError("no shards to aggregate")
        self._layers = layers
        self._baselines: Dict[str, MeterSnapshot] = {}
        self.rebaseline()

    def rebaseline(self) -> None:
        """Restart the measurement window at the current meter state."""
        self._baselines = {
            shard.shard_id: shard.meter.snapshot() for shard in self._shards
        }

    # -- internals ----------------------------------------------------------------

    def _delta(self, shard) -> MeterSnapshot:
        baseline = self._baselines.get(shard.shard_id, _ZERO_BASELINE)
        return baseline.delta(shard.meter.snapshot())

    @staticmethod
    def _ops(delta: MeterSnapshot) -> int:
        return sum(delta.events[e] for e in _OP_EVENTS)

    # -- aggregates ---------------------------------------------------------------

    def total_ops(self) -> int:
        return sum(self._ops(self._delta(s)) for s in self._shards)

    def cycles_max(self) -> float:
        return max(self._delta(s).cycles for s in self._shards)

    def cycles_sum(self) -> float:
        return sum(self._delta(s).cycles for s in self._shards)

    def aggregate_throughput(self) -> float:
        """Cluster ops/s: total ops over the slowest shard's cycles.

        Shards are parallel enclaves, so the straggler sets wall-clock —
        simulated cycles through the platform clock, like every other
        throughput figure in this repo.
        """
        cycles = self.cycles_max()
        ops = self.total_ops()
        if cycles <= 0 or ops <= 0:
            return 0.0
        hz = self._shards[0].store.enclave.platform.cpu_hz
        return hz * ops / cycles

    def ops_share(self) -> Dict[str, float]:
        """Each shard's fraction of executed ops in the current window."""
        per_shard = {s.shard_id: self._ops(self._delta(s))
                     for s in self._shards}
        total = sum(per_shard.values())
        if not total:
            return {shard_id: 0.0 for shard_id in per_shard}
        return {shard_id: n / total for shard_id, n in per_shard.items()}

    def report(self) -> dict:
        """Cluster snapshot: per-shard rows plus the cluster-level totals."""
        per_shard = {}
        for shard in self._shards:
            row = shard.stats()
            delta = self._delta(shard)
            row["window_cycles"] = delta.cycles
            row["window_ops"] = self._ops(delta)
            row["window_ecalls"] = delta.events["ecall"]
            if delta.events["batchexec_batch"]:
                # The parallel engine's windowed view, off the same meter
                # delta as everything else (events cross backends on
                # snapshots, so these are identical inline/process/socket).
                row["window_conflicts"] = (
                    delta.events["batchexec_conflict_raw"]
                    + delta.events["batchexec_conflict_waw"]
                    + delta.events["batchexec_conflict_war"])
                row["window_deferred"] = delta.events["batchexec_deferred"]
                row["window_fallback_rounds"] = \
                    delta.events["batchexec_fallback_round"]
            per_shard[shard.shard_id] = row
        ops = self.total_ops()
        cycles_max = self.cycles_max()
        # A shard that crashed before its first stats() call serves a
        # minimal fallback row (remote.py): default the derived fields
        # rather than blowing up the report a crash made interesting.
        weighted_hits = sum(
            row.get("cache_hit_ratio", 0.0) * row.get("keys", 0)
            for row in per_shard.values()
        )
        total_keys = sum(row.get("keys", 0) for row in per_shard.values())
        # Replica-aware extras: present only when at least one "shard" is a
        # ReplicaGroup (``replicas`` is None on every other handle).
        replicas = 0
        replicas_down = 0
        failovers = 0
        for shard in self._shards:
            group = shard.replicas
            if group is None:
                continue
            replicas += len(group)
            replicas_down += sum(
                1 for r in group if r.state.value != "up"
            )
            failovers += shard.failovers
        cluster = {
            "n_shards": len(self._shards),
            "keys": total_keys,
            "window_ops": ops,
            "cycles_max": cycles_max,
            "cycles_sum": self.cycles_sum(),
            "parallel_efficiency": (
                self.cycles_sum() / (cycles_max * len(self._shards))
                if cycles_max > 0 else 0.0
            ),
            "aggregate_throughput": self.aggregate_throughput(),
            "ecalls": sum(row["window_ecalls"]
                          for row in per_shard.values()),
            "cache_hit_ratio": (weighted_hits / total_keys
                                if total_keys else 0.0),
        }
        if replicas:
            cluster["replicas"] = replicas
            cluster["replicas_down"] = replicas_down
            cluster["failovers"] = failovers
        # Intra-shard parallelism aggregate: present when any shard (for
        # replica groups: any primary) runs the batchexec engine.
        exec_rows = [row["batchexec"] for row in per_shard.values()
                     if "batchexec" in row]
        if exec_rows:
            serial = sum(r["serial_cycles"] for r in exec_rows)
            critical = sum(r["critical_cycles"] for r in exec_rows)
            cluster["batchexec"] = {
                "workers": max(r["workers"] for r in exec_rows),
                "batches": sum(r["batches"] for r in exec_rows),
                "conflicts": sum(r["conflicts_raw"] + r["conflicts_waw"]
                                 + r["conflicts_war"] for r in exec_rows),
                "deferred": sum(r["deferred"] for r in exec_rows),
                "fallback_rounds": sum(r["fallback_rounds"]
                                       for r in exec_rows),
                "serial_cycles": serial,
                "critical_cycles": critical,
                "speedup": serial / critical if critical > 0 else 1.0,
            }
        if self._layers is not None:
            cluster.update(self._layers())
        if "tenancy" in cluster:
            # Shard-side eviction isolation, off the same window deltas as
            # everything else: how often a tenant's miss was denied an
            # eviction because the victim was another tenant's protected
            # entry (events ride MeterSnapshot, identical on all backends).
            cluster["tenancy"]["window_evict_denied"] = sum(
                self._delta(s).events["tenant_evict_denied"]
                for s in self._shards)
        return {"shards": per_shard, "cluster": cluster}
