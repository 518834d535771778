"""Per-shard replication: R independent enclaves behind one ring partition.

The ROADMAP's top open item, and the piece that turns a shard crash or a
tampered record from a lost batch into a served request.  One
:class:`ReplicaGroup` owns a ring partition and is a
:class:`~repro.cluster.shard.ShardHandle`, so the coordinator, balancer and
stats layers work unchanged; inside, it holds R replicas, each a *separate*
:class:`~repro.sgx.enclave.Enclave` with its own key material — enclaves
share no secrets, so a write is applied to every live replica through the
trusted path and re-sealed under each replica's own keys, with every cycle
metered on that replica's meter.  Replication is never free here: the
benchmarks measure its write amplification honestly.

Request semantics (:meth:`ReplicaGroup.flush_batch`):

* the **primary** — the first live replica — executes the full batch in
  arrival order, preserving the per-key ordering contract even for
  read/write interleavings within one batch;
* every other live replica then executes the batch's *writes* (in order),
  converging on the same end state;
* a replica that **crashes** (:class:`~repro.errors.ShardCrashedError`) is
  marked DOWN and the batch is retried on the next live replica — the
  caller never sees the crash;
* a replica that raises an **integrity alarm** is quarantined (marked DOWN
  for re-sync) and the failing *reads* fail over to a peer — unless it is
  the group's last live replica, in which case the alarm surfaces to the
  client (``Status.INTEGRITY_FAILURE``) rather than silently going dark:
  an attacked-but-alive store is still more useful than no store;
* with **no live replica at all**, every request in the batch gets
  ``Status.UNAVAILABLE`` — an error response, never a lost slot.

A DOWN replica stays out of the read and write paths until the
:class:`~repro.cluster.health.HealthMonitor` restarts it and re-syncs its
state from a live peer (verified reads on the peer, re-sealed puts on the
newcomer — the same trusted path the balancer's migrations use).
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import replace
from typing import Callable, List, Optional

from repro.cluster.backend import BackendSpec, ShardBackend, resolve_backend
from repro.cluster.config import ClusterConfig
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.shard import EnclaveSpec, ShardHandle
from repro.errors import (
    ConfigurationError,
    DurabilityError,
    IntegrityError,
    KeyNotFoundError,
    ReplicaUnavailableError,
    ShardCrashedError,
    ShardUnreachableError,
)
from repro.server.protocol import (
    OpCode,
    Request,
    Response,
    Status,
)
from repro.sgx.meter import CycleMeter, MeterSnapshot


def _down_reason(exc: BaseException) -> str:
    """``"unreachable"`` for partitions, ``"crash"`` for dead enclaves.

    The distinction drives recovery: an unreachable replica's enclave is
    still alive on the far side, so the health monitor tries a reconnect
    (re-dial + re-handshake + delta re-sync) before falling back to the
    full restart-and-rebuild path a crash requires.
    """
    return "unreachable" if isinstance(exc, ShardUnreachableError) else "crash"


class ReplicaState(enum.Enum):
    UP = "up"
    DOWN = "down"
    RECOVERING = "recovering"


class Replica:
    """One copy of a partition: a shard plus its health bookkeeping."""

    #: Builds this replica's next enclave (set by
    #: :func:`build_replica_group`); None stays DOWN for an operator.
    rebuild: Optional[Callable[[], ShardHandle]] = None

    def __init__(self, shard):
        self.shard = shard
        self.state = ReplicaState.UP
        self.downs = 0
        self.restarts = 0
        self.last_reason = ""

    @property
    def replica_id(self) -> str:
        return self.shard.shard_id

    def restart(self) -> None:
        """Replace the dead enclave's handle with a fresh, *empty* one.

        EPC contents (keys, trust anchors, Secure Cache) did not survive,
        so the replacement shares nothing with its predecessor; the health
        monitor must re-sync it from a live replica before it serves.
        """
        old = self.shard
        self.shard = self.rebuild()
        self.restarts += 1
        old.close()  # reap the dead worker's process entry and pipe

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Replica({self.replica_id!r}, {self.state.value})"


def _unavailable(group_id: str) -> Response:
    return Response(Status.UNAVAILABLE,
                    b"no live replica in " + group_id.encode())


class ReplicaGroup(ShardHandle):
    """R replica handles serving one ring partition as one handle."""

    def __init__(self, group_id: str, shards: List):
        if not shards:
            raise ValueError("a replica group needs at least one replica")
        self.shard_id = group_id
        self.replicas = [Replica(s) for s in shards]
        self.ops_routed = 0
        self.unavailable_requests = 0
        #: With a ``durability`` sidecar set (repro.persist), a batch's acked
        #: writes are group-committed to it before the responses leave:
        #: every partition stages its record at ``flush_submit``, the first
        #: ``flush_collect`` pays the call's one flush.
        self.durability_failures = 0
        self.durability_repairs = 0
        #: Reads served on a secondary while the primary's circuit breaker
        #: was open (see :meth:`flush_reads_fallback`).
        self.read_fallbacks = 0
        self._store = _GroupStore(self)
        self._meter = _GroupMeter(self)

    # -- membership ---------------------------------------------------------------

    def live_replicas(self) -> List[Replica]:
        return [r for r in self.replicas if r.state is ReplicaState.UP]

    def _first_live(self) -> Optional[Replica]:
        for replica in self.replicas:
            if replica.state is ReplicaState.UP:
                return replica
        return None

    def mark_down(self, replica: Replica, reason: str) -> None:
        if replica.state is ReplicaState.DOWN:
            return
        replica.state = ReplicaState.DOWN
        replica.downs += 1
        replica.last_reason = reason

    # -- the replicated request path ----------------------------------------------

    @property
    def server(self) -> "ReplicaGroup":
        return self  # the group is its own flush_batch endpoint

    def flush_submit(self, requests) -> tuple:
        """Apply on the replicas and stage the WAL record; no ack yet."""
        staged: List[int] = []
        return self.flush_batch(requests, staged), staged

    def flush_collect(self, ticket: tuple,
                      timeout: Optional[float] = None) -> List[Response]:
        """The barrier for one submitted batch; its acks may leave after.

        ``timeout`` is the remote handles' RPC bound; the flush is local.
        """
        responses, staged = ticket
        self._settle(responses, staged)
        return responses

    def flush_batch(self, requests,
                    unsettled: Optional[List[int]] = None) -> List[Response]:
        """One batch through the group; the responses, positionally.

        ``unsettled`` is :meth:`flush_submit`'s half: given a list, the
        positions whose WAL record is staged land there and the barrier is
        left to :meth:`flush_collect`; by default it is paid here.
        """
        requests = list(requests)
        if not requests:
            return []
        write_positions = [i for i, r in enumerate(requests)
                           if r.opcode != OpCode.GET]
        writes = [requests[i] for i in write_positions]

        # 1. Primary pass: the full batch, in order, on the first live
        #    replica; crashes promote the next replica transparently.
        primary = None
        responses: Optional[List[Response]] = None
        while primary is None:
            replica = self._first_live()
            if replica is None:
                self.unavailable_requests += len(requests)
                return [_unavailable(self.shard_id)] * len(requests)
            try:
                responses = list(replica.shard.server.flush_batch(requests))
            except ShardCrashedError as exc:
                self.mark_down(replica, _down_reason(exc))
                self.failovers += 1
                continue
            primary = replica

        # 2. Write fan-out: every other live replica applies the writes in
        #    order, re-sealing each record under its own keys.  The first
        #    peer's acks are kept so a rotten primary's write responses can
        #    be substituted below.
        peer_write_responses: Optional[List[Response]] = None
        if writes:
            for replica in list(self.live_replicas()):
                if replica is primary:
                    continue
                try:
                    peer = list(replica.shard.server.flush_batch(writes))
                except ShardCrashedError as exc:
                    self.mark_down(replica, _down_reason(exc))
                    continue
                if any(r.status == Status.INTEGRITY_FAILURE for r in peer):
                    # This replica's untrusted memory is rotten; quarantine
                    # it for re-sync rather than let it diverge.
                    self.mark_down(replica, "integrity")
                    continue
                if peer_write_responses is None:
                    peer_write_responses = peer

        # 3. Integrity failover off the primary: quarantine it and re-serve
        #    the alarmed requests from peers (writes from the fan-out acks,
        #    reads by re-execution) — unless the primary is the last live
        #    replica, in which case the alarm surfaces.
        alarmed = [i for i, r in enumerate(responses)
                   if r.status == Status.INTEGRITY_FAILURE]
        if alarmed and len(self.live_replicas()) > 1:
            self.mark_down(primary, "integrity")
            if peer_write_responses is not None:
                write_index = {pos: j
                               for j, pos in enumerate(write_positions)}
                for i in alarmed:
                    if i in write_index:
                        responses[i] = peer_write_responses[write_index[i]]
                        self.failovers += 1
            alarmed_reads = [i for i in alarmed
                             if requests[i].opcode == OpCode.GET]
            self._failover_reads(alarmed_reads, requests, responses)

        # 4. Group commit: exactly the writes about to be positively acked
        #    are sealed into one staged log record, flushed before the acks
        #    leave (here, or at ``flush_collect``).  A write
        #    that cannot be made durable is not acked — its slot becomes
        #    UNAVAILABLE.
        if self.durability is not None:
            staged = self._commit_durable(requests, write_positions,
                                          responses)
            if unsettled is not None:
                unsettled.extend(staged)
            else:
                self._settle(responses, staged)
        return responses

    def flush_reads_fallback(self, requests) -> List[Response]:
        """Serve a read-only batch while *avoiding* the primary.

        The overload layer's escape hatch for an open circuit breaker: the
        primary is slow-but-alive (tripping the breaker), so reads are
        routed to the first live secondary — same verified read path, same
        metering, different enclave.  Crashed secondaries fail over to the
        next; with no live secondary at all the primary serves after all
        (a slow read beats no read).  Writes never take this path: they
        must land on every live replica in order, which is exactly what a
        stalled primary cannot guarantee in time.
        """
        requests = list(requests)
        if any(r.opcode != OpCode.GET and r.opcode != OpCode.HEALTH
               for r in requests):
            raise ValueError("flush_reads_fallback only serves reads")
        if not requests:
            return []
        live = self.live_replicas()
        primary = self._first_live()
        for replica in live:
            if replica is primary:
                continue
            try:
                responses = list(replica.shard.server.flush_batch(requests))
            except ShardCrashedError as exc:
                self.mark_down(replica, _down_reason(exc))
                continue
            if any(r.status == Status.INTEGRITY_FAILURE for r in responses):
                # Rotten secondary: quarantine it and keep looking.
                self.mark_down(replica, "integrity")
                continue
            self.read_fallbacks += len(requests)
            return responses
        return self.flush_batch(requests)

    def _commit_durable(self, requests: List[Request],
                        write_positions: List[int],
                        responses: List[Response]) -> List[int]:
        """Stage the batch's acked writes as one log record; un-ack them on
        failure.  Returns the positions staged and awaiting the barrier.

        Deletes that found no key (NOT_FOUND) changed no state and are not
        logged.  On a :class:`~repro.errors.DurabilityError` the partition
        repairs durability from its own live state — authoritative while
        any replica is up — with a full snapshot, then retries once; if
        that also fails, the affected writes are answered UNAVAILABLE so
        the client never holds an ack the disk doesn't.
        """
        acked = [i for i in write_positions
                 if responses[i].status == Status.OK]
        if not acked:
            return acked
        batch = [requests[i] for i in acked]
        try:
            self.durability.commit(batch)
            return acked
        except DurabilityError:
            pass
        if self._repair_durability():
            self.durability_repairs += 1
            try:
                self.durability.commit(batch)
                return acked
            except DurabilityError:
                pass
        self._unack(responses, acked)
        return []

    def _settle(self, responses: List[Response], staged: List[int]) -> None:
        """The barrier before the acks at ``staged`` leave.

        One flush covers every log written since the last barrier, so in a
        coordinator call the first group to collect pays it and the others
        find nothing dirty.  A failed flush un-acks exactly this batch's
        writes and repairs from live state (which already holds them); the
        repair snapshot is durable in place.  A batch that staged nothing
        (reads, refused writes) has nothing to wait for.
        """
        if not staged:
            return
        try:
            self.durability.sync()
        except DurabilityError:
            self._unack(responses, staged)
            if self._repair_durability():
                self.durability_repairs += 1

    def _unack(self, responses: List[Response], positions: List[int]) -> None:
        self.durability_failures += len(positions)
        self.unavailable_requests += len(positions)
        for i in positions:
            responses[i] = Response(
                Status.UNAVAILABLE,
                b"durability commit failed in " + self.shard_id.encode())

    def _repair_durability(self) -> bool:
        """Re-establish durability from live state with a full snapshot.

        Covers every mid-run disk misadventure — a torn append, an
        injected I/O error, truncation or rollback of the log while the
        partition is alive: the primary's verified reads rebuild the full
        pair set and :meth:`~repro.persist.durability.PartitionDurability
        .snapshot` atomically replaces the on-disk state and resets the
        chain.  Metered honestly on both sides (reads on the primary,
        sealing on the durability meter).
        """
        primary = self._first_live()
        if primary is None:
            return False
        try:
            store = primary.shard.store
            pairs = [(key, store.get(key)) for key in list(store.keys())]
            self.durability.snapshot(pairs)
            return True
        except (DurabilityError, ShardCrashedError, IntegrityError):
            return False

    def _failover_reads(self, positions: List[int],
                        requests: List[Request],
                        responses: List[Response]) -> None:
        """Re-serve the reads at ``positions`` on successive live replicas."""
        remaining = list(positions)
        while remaining:
            replica = self._first_live()
            if replica is None:
                for i in remaining:
                    responses[i] = _unavailable(self.shard_id)
                self.unavailable_requests += len(remaining)
                return
            try:
                retried = list(replica.shard.server.flush_batch(
                    [requests[i] for i in remaining]
                ))
            except ShardCrashedError as exc:
                self.mark_down(replica, _down_reason(exc))
                continue
            self.failovers += len(remaining)
            for i, response in zip(remaining, retried):
                responses[i] = response
            still_bad = [i for i, r in zip(remaining, retried)
                         if r.status == Status.INTEGRITY_FAILURE]
            if not still_bad or len(self.live_replicas()) <= 1:
                return  # clean, or the last live replica: surface the alarm
            self.mark_down(replica, "integrity")
            remaining = still_bad

    # -- the ShardHandle members: store facade, meter, balancer marks -----------

    @property
    def store(self) -> "_GroupStore":
        return self._store

    @property
    def meter(self) -> "_GroupMeter":
        return self._meter

    @property
    def epc_bytes(self) -> int:
        return sum(r.shard.epc_bytes for r in self.replicas)

    def load_since_mark(self) -> float:
        return max(r.shard.load_since_mark() for r in self.replicas)

    def mark_load(self) -> None:
        for replica in self.replicas:
            replica.shard.mark_load()

    def close(self, timeout: float = 5.0) -> None:
        """Release every replica's backing resources (see Shard.close)."""
        for replica in self.replicas:
            replica.shard.close(timeout)
        if self.durability is not None:
            self.durability.disk.close()

    def _commit_single(self, request: Request) -> None:
        """Durably log one trusted-path write (migration / direct put):
        stage, then the barrier, before the call returns.

        Same repair-then-retry policy as the batch hook, but there is no
        response to un-ack here: a persistent failure surfaces as the
        typed :class:`~repro.errors.DurabilityError` to the caller.
        """
        durability = self.durability
        if durability is None:
            return
        try:
            durability.commit([request])
            durability.sync()
            return
        except DurabilityError:
            pass
        if self._repair_durability():
            self.durability_repairs += 1
            durability.commit([request])
            durability.sync()
            return
        self.durability_failures += 1
        raise DurabilityError(
            f"durability commit failed in {self.shard_id} and live-state "
            "repair was impossible")

    def stats(self) -> dict:
        primary = self._first_live() or self.replicas[0]
        row = primary.shard.stats()
        row["shard"] = self.shard_id
        row["ops_routed"] = self.ops_routed
        row["replication"] = len(self.replicas)
        row["replicas_up"] = len(self.live_replicas())
        row["failovers"] = self.failovers
        row["read_fallbacks"] = self.read_fallbacks
        if self.durability is not None:
            row["durability"] = dict(
                self.durability.stats(),
                failures=self.durability_failures,
                repairs=self.durability_repairs,
            )
        row["replicas"] = {
            r.replica_id: {"state": r.state.value, "downs": r.downs,
                           "reason": r.last_reason,
                           "cycles": r.shard.meter.cycles}
            for r in self.replicas
        }
        return row

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        states = ",".join(r.state.value for r in self.replicas)
        return f"ReplicaGroup({self.shard_id!r}, [{states}])"


class _GroupStore:
    """Store facade: verified reads off the primary, writes fanned out.

    Gives the coordinator's ``load``/``total_keys`` and the balancer's
    trusted-path migration an unchanged API over the whole group: a
    migration Put lands on (and is re-sealed by) *every* live replica.
    """

    def __init__(self, group: ReplicaGroup):
        self._group = group

    # -- reads --------------------------------------------------------------------

    def get(self, key: bytes) -> bytes:
        group = self._group
        while True:
            replica = group._first_live()
            if replica is None:
                raise ReplicaUnavailableError(
                    f"no live replica in {group.shard_id}")
            try:
                return replica.shard.store.get(key)
            except ShardCrashedError as exc:
                group.mark_down(replica, _down_reason(exc))
                group.failovers += 1
            except IntegrityError:
                if len(group.live_replicas()) <= 1:
                    raise
                group.mark_down(replica, "integrity")
                group.failovers += 1

    def keys(self):
        return self._primary_store().keys()

    def __len__(self) -> int:
        replica = self._group._first_live()
        if replica is None:
            return 0
        return len(replica.shard.store)

    # -- writes -------------------------------------------------------------------

    def put(self, key: bytes, value: bytes) -> None:
        group = self._group
        applied = 0
        for replica in list(group.live_replicas()):
            try:
                replica.shard.store.put(key, value)
                applied += 1
            except ShardCrashedError as exc:
                group.mark_down(replica, _down_reason(exc))
        if not applied:
            raise ReplicaUnavailableError(
                f"no live replica in {group.shard_id}")
        group._commit_single(Request(OpCode.PUT, key, value))

    def delete(self, key: bytes) -> None:
        group = self._group
        applied = 0
        deleted = 0
        for replica in list(group.live_replicas()):
            try:
                replica.shard.store.delete(key)
                deleted += 1
                applied += 1
            except KeyNotFoundError:
                applied += 1
            except ShardCrashedError as exc:
                group.mark_down(replica, _down_reason(exc))
        if not applied:
            raise ReplicaUnavailableError(
                f"no live replica in {group.shard_id}")
        if not deleted:
            raise KeyNotFoundError(key)
        group._commit_single(Request(OpCode.DELETE, key))

    def load(self, pairs) -> None:
        """Bulk-load every (non-crashed) replica — unmetered setup.

        With durability attached the load is committed too (chunked to the
        protocol's batch cap): a preloaded key is as acked as a written
        one, so it must survive whole-group death like any other.
        """
        pairs = list(pairs)
        for replica in self._group.replicas:
            try:
                replica.shard.store.load(pairs)
            except ShardCrashedError as exc:  # pragma: no cover - load-time kill
                self._group.mark_down(replica, _down_reason(exc))
        durability = self._group.durability
        if durability is not None:
            durability.commit_load(pairs)

    # -- plumbing -----------------------------------------------------------------

    def _primary_store(self):
        replica = self._group._first_live()
        if replica is None:
            raise ReplicaUnavailableError(
                f"no live replica in {self._group.shard_id}")
        return replica.shard.store

    @property
    def enclave(self):
        """Any replica's enclave (for platform constants in stats): the
        primary's, else the first one whose store still answers."""
        group = self._group
        for replica in group.live_replicas() + group.replicas:
            try:
                return replica.shard.store.enclave
            except ShardCrashedError:
                continue  # a dead enclave does not answer
        raise ReplicaUnavailableError(
            f"no replica of {group.shard_id} answers")


class _GroupMeter:
    """A merged meter view so ``ClusterStats`` can aggregate groups.

    Replicas run in parallel, so the group's wall-clock contribution is
    its *slowest* replica: ``cycles`` is the max over replica meters.
    Event counts are summed — executed ops across a replicated group
    genuinely exceed routed ops (write amplification), and the stats layer
    reports that honestly.  After a replica restart (fresh meter) the max
    and the sums can dip; windows that span a restart are approximate.
    """

    def __init__(self, group: ReplicaGroup):
        self._group = group

    def _meters(self):
        return [r.shard.meter for r in self._group.replicas]

    @property
    def cycles(self) -> float:
        return max(m.cycles for m in self._meters())

    @property
    def events(self):
        return self.snapshot().events

    def snapshot(self) -> MeterSnapshot:
        # One snapshot per replica (a local read, whatever backs it),
        # merged via the meter's own serialization-friendly path.
        snaps = [m.snapshot() for m in self._meters()]
        merged = CycleMeter()
        for snap in snaps:
            merged.merge(snap)
        return MeterSnapshot(cycles=max(s.cycles for s in snaps),
                             events=merged.snapshot().events)


# -- construction ---------------------------------------------------------------


def build_replica_group(
    spec: EnclaveSpec,
    replication: int,
    *,
    backend: BackendSpec = None,
) -> ReplicaGroup:
    """R independent enclaves for the partition ``spec`` describes.

    ``spec.shard_id`` names the group and ``spec.seed`` is its base seed:
    replica ``j`` is ``replace(spec, shard_id="<group>/r<j>",
    seed=spec.seed + 17*j + 1)``, so every replica has distinct
    :class:`~repro.crypto.keys.KeyMaterial`.  Both initial construction
    and restarts (:attr:`Replica.rebuild`) go through the shard
    ``backend``, so a restarted process-backed replica is a genuinely new
    OS process; the seed policy is backend-independent, keeping key
    material and metering identical across backends.
    """
    if replication < 1:
        raise ValueError("replication factor must be >= 1")
    factory = resolve_backend(backend)
    specs = [replace(spec, shard_id=f"{spec.shard_id}/r{j}",
                     seed=spec.seed + 17 * j + 1)
             for j in range(replication)]
    group = ReplicaGroup(spec.shard_id,
                         [factory.create(replica) for replica in specs])
    for replica, replica_spec in zip(group.replicas, specs):
        replica.rebuild = _restarter(factory, replica_spec)
    return group


def _restarter(factory: ShardBackend,
               replica: EnclaveSpec) -> Callable[[], ShardHandle]:
    """The rebuild recipe for one replica: same spec, a seed never used
    before — a fresh enclave never inherits its predecessor's keys."""
    incarnations = itertools.count(1)

    def rebuild():
        return factory.create(replace(
            replica, seed=replica.seed + 7919 * next(incarnations)))

    return rebuild


def build_replicated_cluster(config: ClusterConfig, *,
                             clock: Callable[[], float] = time.monotonic,
                             ) -> ClusterCoordinator:
    """N partitions × R replica enclaves behind one ring.

    Groups at any ``replication >= 1`` (the R=1 groups the fault suites
    ride on), with the coordinator's ``overload``/``tenancy`` layers armed
    from the config on ``clock``.  A config that also asks for what only
    ``ClusterConfig.build()`` wires around the groups (``durability``,
    ``max_shards``) is refused by field name rather than silently built
    without it.
    """
    if not isinstance(config, ClusterConfig):
        raise TypeError(
            f"build_replicated_cluster takes a ClusterConfig, not "
            f"{type(config).__name__}")
    for name, value in (("durability", config.durability),
                        ("max_shards", config.max_shards)):
        if value is not None:
            raise ConfigurationError(
                f"build_replicated_cluster builds bare replica groups and "
                f"would drop config.{name}; use config.build()")
    return _build_replica_groups(config, clock)


def _build_replica_groups(config: ClusterConfig,
                          clock: Callable[[], float]) -> ClusterCoordinator:
    """The replica-group half of ``ClusterConfig.build()``: group ``i`` is
    ``shard-<i>``, base seed ``config.seed + 101*i``."""
    factory = resolve_backend(config.backend)
    groups = [
        build_replica_group(
            config.enclave_spec(f"shard-{i}", config.seed + 101 * i),
            config.replication, backend=factory)
        for i in range(config.n_shards)
    ]
    return ClusterCoordinator(
        groups, vnodes=config.vnodes, batch_window=config.batch_window,
        overload=config.overload, tenancy=config.tenancy, clock=clock,
        backend=factory)
