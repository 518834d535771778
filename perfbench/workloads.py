"""The five workloads: what each builds, how one client call is made, and
which of the program's own meters it exposes.

Every workload is closed loop with one client thread.  Sizes are fixed op
counts per *segment*; the timed phase runs whole segments until the
``--seconds`` budget is spent, and the first ``exact_segments`` of them are
the *exact prefix* over which the simulated clock, the exact counters and
the digests are taken, so those repeat bit for bit for a given seed however
fast the host is.  ``README.md`` says why each workload exists.
"""

from __future__ import annotations

import os
import shutil
import time
from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.bench.harness import build_aria, scaled_platform
from repro.cluster.config import ClusterConfig, DurabilityConfig, serve
from repro.cluster.netserver import ClusterClient
from repro.cluster.procbackend import reap_leaked_workers
from repro.cluster.sockbackend import reap_leaked_hosts

OP_EVENTS = ("op_get", "op_put", "op_delete")


@dataclass(frozen=True)
class Spec:
    name: str
    n_keys: int
    value_bytes: int
    distribution: str          # "uniform" | "zipf" (theta 0.99, contiguous)
    put_ratio: float
    ops_per_call: int          # 1 = direct store call, else one frame
    segment_calls: int
    exact_segments: int
    warmup_ops: int

    @property
    def segment_ops(self) -> int:
        return self.segment_calls * self.ops_per_call

    def quick(self) -> "Spec":
        """About 1/50 of the work, for the self-tests: same code paths."""
        return replace(
            self,
            n_keys=max(256, self.n_keys // 8),
            segment_calls=max(4, self.segment_calls // 3),
            exact_segments=2,
            warmup_ops=max(self.ops_per_call, self.warmup_ops // 20),
        )


# Segment sizes put ~0.1 s of calls in a segment on the 2-core sandbox — a
# host-speed probe follows every segment, and the host's speed moves that
# fast — and the exact prefix at ~2.7 s of untraced calls, so that the
# traced pass (half the budget, about 2x slower) still reaches its end.
SPECS = {spec.name: spec for spec in (
    Spec("store_zipf_rd95", n_keys=19_531, value_bytes=16,
         distribution="zipf", put_ratio=0.05, ops_per_call=1,
         segment_calls=2_500, exact_segments=40, warmup_ops=10_000),
    Spec("store_uniform_wr50", n_keys=39_062, value_bytes=128,
         distribution="uniform", put_ratio=0.5, ops_per_call=1,
         segment_calls=1_250, exact_segments=24, warmup_ops=10_000),
    Spec("door_inline_rd95", n_keys=4_882, value_bytes=16,
         distribution="zipf", put_ratio=0.05, ops_per_call=8,
         segment_calls=125, exact_segments=40, warmup_ops=4_000),
    Spec("hop_socket_wr50", n_keys=4_882, value_bytes=16,
         distribution="zipf", put_ratio=0.5, ops_per_call=64,
         segment_calls=15, exact_segments=56, warmup_ops=4_032),
    Spec("durable_r2_wr100", n_keys=4_882, value_bytes=16,
         distribution="uniform", put_ratio=1.0, ops_per_call=32,
         segment_calls=10, exact_segments=40, warmup_ops=4_000),
)}


@dataclass
class Snapshot:
    """Cumulative readings of the program's own meters at one instant."""

    enclave_cycles: List[float]
    events: Counter
    wire_cycles: float = 0.0
    wire_frames: int = 0
    durability: Optional[Counter] = None


def _sum_events(snapshots) -> Counter:
    total: Counter = Counter()
    for snap in snapshots:
        total.update(snap.events)
    return total


class _System:
    """What the engine asks of every workload's system under test, with
    the answers of a system that has no cluster around it."""

    def open_window(self) -> None:
        """Called after warm-up, right before the timed phase."""

    def window_report(self) -> dict:
        """Coordinator-level ratios over the window, at the prefix's end."""
        return {}

    def host_pids(self) -> list:
        return []

    def crash_and_recover(self) -> Optional[float]:
        """Seconds a no-``close()`` rebuild took; None if not durable."""
        return None

    def close(self) -> None:
        pass


class StoreSystem(_System):
    """One ``AriaStore``; ``get``/``put`` are called directly."""

    #: Fig 9's operating point for ``store_zipf_rd95`` (the keyspace fits
    #: the Secure Cache); ``store_uniform_wr50`` runs 4x the
    #: EPC-proportional keyspace of its platform, Fig 13's regime.
    SCALE = {"store_zipf_rd95": 512, "store_uniform_wr50": 1024}

    def __init__(self, spec: Spec, model, workdir: str):
        self.store = build_aria(
            n_keys=spec.n_keys,
            platform=scaled_platform(self.SCALE[spec.name]),
            value_hint=spec.value_bytes)
        self.store.load(model.load_pairs())
        self.get = self.store.get
        self.put = self.store.put
        self.cpu_hz = self.store.enclave.platform.cpu_hz

    def snapshot(self) -> Snapshot:
        snap = self.store.enclave.meter.snapshot()
        return Snapshot([snap.cycles], snap.events)


class _ClusterSystem(_System):
    """Shared by the three cluster workloads: meters and teardown."""

    coordinator = None
    workdir: Optional[str] = None

    def _enclave_meters(self) -> list:
        meters = []
        for shard in self.coordinator.shard_list():
            replicas = getattr(shard, "replicas", None)
            if replicas is None:
                meters.append(shard.meter)
            else:
                meters.extend(replica.shard.meter for replica in replicas)
        return meters

    def _wire_meters(self) -> list:
        return []

    def snapshot(self) -> Snapshot:
        snaps = [meter.snapshot() for meter in self._enclave_meters()]
        wire = [meter.snapshot() for meter in self._wire_meters()]
        sidecars = [shard.durability.meter.snapshot()
                    for shard in self.coordinator.shard_list()
                    if getattr(shard, "durability", None) is not None]
        return Snapshot(
            enclave_cycles=[snap.cycles for snap in snaps],
            events=_sum_events(snaps),
            wire_cycles=sum(snap.cycles for snap in wire),
            # seal and open each charge exactly one wire_mac event.
            wire_frames=sum(snap.events["wire_mac"] for snap in wire),
            durability=_sum_events(sidecars) if sidecars else None,
        )

    def open_window(self) -> None:
        # ClusterStats baselines at construction: take it before timing.
        self._stats = self.coordinator.stats()

    def window_report(self) -> dict:
        cluster = self._stats.report()["cluster"]
        return {
            "parallel_efficiency": cluster["parallel_efficiency"],
            "ops_share_max": max(self._stats.ops_share().values()),
        }

    @property
    def cpu_hz(self) -> float:
        shard = self.coordinator.shard_list()[0]
        return shard.store.enclave.platform.cpu_hz

    def close(self) -> None:
        if self.coordinator is not None:
            self.coordinator.close()
            self.coordinator = None
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


class DoorSystem(_ClusterSystem):
    """Front door + attested v2 client over TCP; inline shards."""

    def __init__(self, spec: Spec, model, workdir: str):
        config = ClusterConfig(n_shards=2, backend="inline", scale=2048,
                               n_keys=spec.n_keys)
        self.server = serve(config)
        self.coordinator = self.server.server.coordinator
        self.client = None
        try:
            self.coordinator.load(model.load_pairs())
            host, port = self.server.server.address
            self.client = ClusterClient.connect(host, port)
        except BaseException:
            self.close()
            raise
        self.call = self.client.request_batch

    def _wire_meters(self) -> list:
        return [self.client.wire_meter, self.server.server.sessions.meter]

    def close(self) -> None:
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.coordinator is not None:
            self.server.close()
            self.coordinator = None


class HopSystem(_ClusterSystem):
    """``coordinator.execute`` over two shard-host processes; no door."""

    def __init__(self, spec: Spec, model, workdir: str):
        self.coordinator = ClusterConfig(
            n_shards=2, backend="socket", scale=2048,
            n_keys=spec.n_keys).build()
        try:
            self.coordinator.load(model.load_pairs())
        except BaseException:
            self.close()
            raise
        self.call = self.coordinator.execute

    def _wire_meters(self) -> list:
        return [shard.wire_meter for shard in self.coordinator.shard_list()]

    def host_pids(self) -> list:
        return sorted({shard.pid for shard in self.coordinator.shard_list()})


class DurableSystem(_ClusterSystem):
    """R=2 replica groups with the sealed WAL on real files."""

    def __init__(self, spec: Spec, model, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir)
        self.config = ClusterConfig(
            n_shards=2, replication=2, backend="inline", scale=2048,
            n_keys=spec.n_keys, durability=DurabilityConfig(workdir))
        self.coordinator = self.config.build()
        try:
            self.coordinator.load(model.load_pairs())
        except BaseException:
            self.close()
            raise
        self.call = self.coordinator.execute

    def crash_and_recover(self) -> float:
        """Abandon the cluster without ``close()`` and rebuild it from the
        data dir alone; returns the seconds the rebuild took.

        ``FileDisk`` fsyncs every append, so nothing acked is left only in
        the page cache — which a sandbox could not drop anyway.
        """
        self.coordinator = None
        started = time.perf_counter()
        self.coordinator = self.config.build()
        self.call = self.coordinator.execute
        return time.perf_counter() - started


SYSTEMS = {
    "store_zipf_rd95": StoreSystem,
    "store_uniform_wr50": StoreSystem,
    "door_inline_rd95": DoorSystem,
    "hop_socket_wr50": HopSystem,
    "durable_r2_wr100": DurableSystem,
}


def reap_everything() -> None:
    """Last line of process hygiene, for every exit path."""
    reap_leaked_hosts()
    reap_leaked_workers()
