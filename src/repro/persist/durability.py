"""Rollback-protected sealed durability for one partition (replica group).

:class:`PartitionDurability` owns a sealed snapshot and a sealed,
MAC-chained write-ahead log (:mod:`repro.persist.wal`) on an untrusted
disk (:mod:`repro.persist.disk`), bound to a monotonic counter
(:mod:`repro.sgx.monotonic`) every ``epoch_every`` commits.  A replica
group commits the writes it is about to ack, and acks them only after
:meth:`PartitionDurability.sync`; recovery verifies counter, snapshot and
log and rejects stale or rewound state with
:class:`~repro.errors.RollbackDetectedError`.  ARCHITECTURE §12 has the
commit protocol, the freshness argument and the recovery state machine;
§9 the disk faults that exercise them.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.crypto.backend import FastCryptoBackend
from repro.crypto.keys import KeyMaterial
from repro.errors import (
    DurabilityError,
    RecoveryError,
    RollbackDetectedError,
)
from repro.persist import wal
from repro.persist.disk import UntrustedDisk
from repro.server.protocol import (
    MAX_BATCH_COUNT,
    OpCode,
    Request,
    decode_batch,
    encode_batch,
)
from repro.sgx.costs import CostModel, DEFAULT_COSTS
from repro.sgx.meter import CycleMeter
from repro.sgx.monotonic import MonotonicCounterService
from repro.sgx.sealing import derive_sealing_key, seal, unseal

#: Commits between monotonic-counter bindings.  Lower = smaller offline
#: truncation window, higher amortized counter cost per write.
DEFAULT_EPOCH_EVERY = 32

_SNAP_MAGIC = b"ASNP"
_SNAP_HEADER = struct.Struct("<4sQI")   # magic, epoch, pair count
_SNAP_PAIR = struct.Struct("<HI")       # key length, value length
_SEAL_OVERHEAD = 20                     # magic(4) + nonce(16) under the MAC


@dataclass
class RecoveredState:
    """What a successful :meth:`PartitionDurability.recover` yields."""

    pairs: Dict[bytes, bytes]
    epoch: int
    counter: int
    snapshot_keys: int
    batches_replayed: int
    records_replayed: int
    torn_bytes_trimmed: int

    @property
    def repaired_tail(self) -> bool:
        return self.torn_bytes_trimmed > 0


class PartitionDurability:
    """Sealed snapshot + chained WAL + counter binding for one partition.

    The sealing key is derived from the partition id and the operator's
    seed — the enclave identity, supplied out of band — so a successor
    enclave built for the same partition can unseal what its predecessors
    wrote, while a different partition (or operator) cannot.
    """

    def __init__(
        self,
        partition_id: str,
        disk: UntrustedDisk,
        counters: MonotonicCounterService,
        *,
        seed: int = 0,
        epoch_every: int = DEFAULT_EPOCH_EVERY,
        costs: CostModel = DEFAULT_COSTS,
    ):
        if epoch_every < 1:
            raise ValueError("epoch_every must be >= 1")
        self.partition_id = partition_id
        self.disk = disk
        self.counters = counters
        self.epoch_every = epoch_every
        self.costs = costs
        self.meter = CycleMeter()

        digest = hashlib.blake2b(
            partition_id.encode() + (seed & (1 << 64) - 1).to_bytes(8, "little"),
            key=b"aria-durability-key",
            digest_size=16,
        ).digest()
        self._keys = KeyMaterial.from_seed(int.from_bytes(digest, "little"))
        self._backend = FastCryptoBackend()
        # Every log record and snapshot is sealed under this one key:
        # its schedule is absorbed here, once.
        self._sealing_key = self._backend.prepare(
            derive_sealing_key(self._keys))
        self._log = wal.SealedLog(self._backend, self._sealing_key)

        self._snap_name = f"{partition_id}.snap"
        self._log_name = f"{partition_id}.log"
        self._counter_id = f"{partition_id}.epoch"

        self.epoch = 0
        self._expected_log_bytes = 0
        self._batches_since_epoch = 0
        self._ready = False

        self.commit_attempts = 0
        self.commits = 0
        self.epoch_advances = 0
        self.snapshots = 0
        self.recoveries = 0
        self.bytes_appended = 0

    # -- lifecycle ----------------------------------------------------------------

    def initialize(self) -> bool:
        """Create the counter; start a fresh chain iff no prior state exists.

        Returns True when durable state (or counter evidence of it) already
        exists — the caller must then :meth:`recover` before committing.
        On a genuinely fresh partition, writes the epoch-1 empty snapshot
        and is immediately ready.
        """
        self.counters.create(self._counter_id)
        # Probes only: a commit attempt opens with the log's size and a
        # recovery with the snapshot's read (what a faulty disk keys on).
        existing = (
            self.disk.size(self._snap_name) > 0
            or bool(self.disk.read_blob(self._log_name))
            or self.counters.peek(self._counter_id) > 0
        )
        if existing:
            self._ready = False
            return True
        self.snapshot([])
        return False

    # -- the group-commit path ----------------------------------------------------

    def commit(self, requests: List[Request]) -> None:
        """Seal the acked writes of one batch into a single staged record.

        The record is durable after the next :meth:`sync`; the caller must
        not acknowledge the batch before that returns, nor at all when
        this raises a :class:`~repro.errors.DurabilityError` subclass.  The
        log's on-disk length is checked against the expected value first,
        so truncation, rollback, or a torn previous append is caught at the
        very next commit while the partition is alive.  The commit that
        closes an epoch flushes in place: its record is durable before the
        counter moves, and the epoch record before this returns.  Every
        attempt counts, and opens by measuring the log.
        """
        requests = list(requests)
        if not requests:
            return
        self.commit_attempts += 1
        actual = self.disk.size(self._log_name)
        if not self._ready:
            raise RecoveryError(
                f"{self.partition_id}: durability has prior state; "
                "recover() before committing")
        if actual != self._expected_log_bytes:
            raise DurabilityError(
                f"{self.partition_id}: log is {actual} B on disk, expected "
                f"{self._expected_log_bytes} B — the untrusted disk was "
                "modified underneath the partition")
        body = encode_batch(requests)
        framed = self._log.encode_record(wal.RECORD_BATCH, self.epoch, body)
        self.disk.append(self._log_name, framed)
        self._log.advance(framed)
        self._expected_log_bytes += len(framed)
        self.bytes_appended += len(framed)
        self.commits += 1
        self._charge_seal(len(body), len(framed))
        self.meter.count("dur_commit")
        self._batches_since_epoch += 1
        if self._batches_since_epoch >= self.epoch_every:
            self.sync()
            self._advance_epoch()
            self.sync()

    def sync(self) -> None:
        """The barrier: every record staged so far is durable on return."""
        self.disk.sync()

    def commit_load(self, pairs) -> None:
        """Make a bulk load durable (chunked to the protocol's batch cap):
        every chunk staged, then one barrier."""
        pairs = list(pairs)
        for start in range(0, len(pairs), MAX_BATCH_COUNT):
            chunk = pairs[start : start + MAX_BATCH_COUNT]
            self.commit([Request(OpCode.PUT, key, value)
                         for key, value in chunk])
        self.sync()

    def snapshot(self, pairs) -> int:
        """Compact: bind a new epoch, write the full state, reset the log.

        The counter increment, the atomic snapshot replace, and the log
        reset are modeled as one atomic step (fault injections land between
        commits, never inside this sequence); each is durable in place, so
        a snapshot needs no barrier.  Returns the new epoch.
        """
        pairs = list(pairs)
        epoch = self.counters.increment(self._counter_id, meter=self.meter)
        chunks = [_SNAP_HEADER.pack(_SNAP_MAGIC, epoch, len(pairs))]
        for key, value in pairs:
            chunks.append(_SNAP_PAIR.pack(len(key), len(value)))
            chunks.append(key)
            chunks.append(value)
        payload = b"".join(chunks)
        sealed = seal(self._backend, self._sealing_key, payload)
        self.disk.write_blob(self._snap_name, sealed)
        self.disk.delete(self._log_name)
        self._log.reset(epoch)
        self.epoch = epoch
        self._expected_log_bytes = 0
        self._batches_since_epoch = 0
        self._ready = True
        self.snapshots += 1
        self.epoch_advances += 1
        self._charge_seal(len(payload), len(sealed))
        self.meter.count("dur_snapshot")
        return epoch

    def _advance_epoch(self) -> None:
        """Counter bump + epoch record: the periodic freshness binding."""
        epoch = self.counters.increment(self._counter_id, meter=self.meter)
        framed = self._log.encode_record(wal.RECORD_EPOCH, epoch, b"")
        self.disk.append(self._log_name, framed)
        self._log.advance(framed)
        self._expected_log_bytes += len(framed)
        self.bytes_appended += len(framed)
        self.epoch = epoch
        self._batches_since_epoch = 0
        self.epoch_advances += 1
        self._charge_seal(0, len(framed))
        self.meter.count("dur_epoch")

    # -- recovery -----------------------------------------------------------------

    def recover(self, *, strict_tail: bool = False) -> RecoveredState:
        """Verify counter + snapshot + log and rebuild the partition's pairs.

        The full freshness check described in the module docstring; on
        success the writer chain resumes where the log ends (after trimming
        a torn tail on disk) and binds a new epoch, durable before this
        returns, so commits can continue immediately and no copy of the
        state taken before this restart can pass the next one.  It opens by
        reading the snapshot.
        """
        snap_blob = self.disk.read_blob(self._snap_name)
        log_blob = self.disk.read_blob(self._log_name) or b""
        counter = self.counters.read(self._counter_id, meter=self.meter)
        if snap_blob is None:
            if counter == 0 and not log_blob:
                raise RecoveryError(
                    f"{self.partition_id}: no durable state to recover")
            raise RollbackDetectedError(
                f"{self.partition_id}: sealed snapshot missing but the "
                f"monotonic counter stands at {counter} — durable state "
                "was wiped or replaced")
        payload = unseal(self._backend, self._sealing_key, snap_blob)
        self._charge_unseal(len(payload), len(snap_blob))
        snap_epoch, pairs = self._parse_snapshot(payload)
        snapshot_keys = len(pairs)

        replayed = wal.replay(self._backend, self._sealing_key, log_blob,
                              snap_epoch, strict_tail=strict_tail)
        batches = 0
        since_epoch = 0
        for record in replayed.records:
            self._charge_unseal(len(record.body) + wal.PAYLOAD_OVERHEAD,
                                len(record.body) + wal.FRAMED_OVERHEAD)
            if record.kind == wal.RECORD_EPOCH:
                since_epoch = 0
                continue
            for request in decode_batch(record.body):
                if request.opcode == OpCode.DELETE:
                    pairs.pop(request.key, None)
                else:
                    pairs[request.key] = request.value
            batches += 1
            since_epoch += 1

        if counter > replayed.last_epoch:
            raise RollbackDetectedError(
                f"{self.partition_id}: stale durable state — the monotonic "
                f"counter stands at {counter} but the recovered epoch is "
                f"{replayed.last_epoch}: a rolled-back snapshot/log pair, "
                "or a log truncated across an epoch boundary")
        if counter < replayed.last_epoch:
            raise RollbackDetectedError(
                f"{self.partition_id}: monotonic counter rewound — the "
                f"recovered epoch is {replayed.last_epoch} but the counter "
                f"reads {counter}: the counter service was reset")

        if replayed.torn_bytes:
            self.disk.truncate(self._log_name, replayed.valid_bytes)
        self._log.resume(replayed)
        self.epoch = replayed.last_epoch
        self._expected_log_bytes = replayed.valid_bytes
        self._batches_since_epoch = since_epoch
        self._ready = True
        self.recoveries += 1
        self.meter.count("dur_recover")
        # Bind a fresh epoch before serving: a copy of the pair taken from
        # here on is older than the counter at the next recovery.
        self._advance_epoch()
        self.sync()
        return RecoveredState(
            pairs=pairs,
            epoch=replayed.last_epoch,
            counter=counter,
            snapshot_keys=snapshot_keys,
            batches_replayed=batches,
            records_replayed=len(replayed.records),
            torn_bytes_trimmed=replayed.torn_bytes,
        )

    @staticmethod
    def _parse_snapshot(payload: bytes) -> Tuple[int, Dict[bytes, bytes]]:
        if len(payload) < _SNAP_HEADER.size:
            raise RecoveryError("snapshot payload too short")
        magic, epoch, count = _SNAP_HEADER.unpack_from(payload, 0)
        if magic != _SNAP_MAGIC:
            raise RecoveryError("snapshot magic mismatch")
        pairs: Dict[bytes, bytes] = {}
        offset = _SNAP_HEADER.size
        for _ in range(count):
            if len(payload) - offset < _SNAP_PAIR.size:
                raise RecoveryError("snapshot truncated inside a pair")
            k_len, v_len = _SNAP_PAIR.unpack_from(payload, offset)
            offset += _SNAP_PAIR.size
            if len(payload) - offset < k_len + v_len:
                raise RecoveryError("snapshot truncated inside a pair")
            key = payload[offset : offset + k_len]
            pairs[key] = payload[offset + k_len : offset + k_len + v_len]
            offset += k_len + v_len
        return epoch, pairs

    # -- metering -----------------------------------------------------------------

    def _charge_seal(self, payload_bytes: int, framed_bytes: int) -> None:
        costs = self.costs
        self.meter.charge_event("ocall", costs.ocall)
        self.meter.charge_event("enc_bytes", costs.enc_cost(payload_bytes),
                                n=payload_bytes)
        self.meter.charge_event(
            "mac_bytes", costs.mac_cost(payload_bytes + _SEAL_OVERHEAD),
            n=payload_bytes + _SEAL_OVERHEAD)
        self.meter.charge(framed_bytes * costs.mem_per_byte)
        self.meter.count("dur_bytes", framed_bytes)

    def _charge_unseal(self, payload_bytes: int, blob_bytes: int) -> None:
        costs = self.costs
        self.meter.charge_event("ocall", costs.ocall)
        self.meter.charge_event(
            "mac_bytes", costs.mac_cost(payload_bytes + _SEAL_OVERHEAD),
            n=payload_bytes + _SEAL_OVERHEAD)
        self.meter.charge_event("enc_bytes", costs.enc_cost(payload_bytes),
                                n=payload_bytes)
        self.meter.charge(blob_bytes * costs.mem_per_byte)
        self.meter.count("dur_bytes", blob_bytes)

    # -- reporting ----------------------------------------------------------------

    @property
    def ready(self) -> bool:
        return self._ready

    @property
    def log_bytes(self) -> int:
        return self._expected_log_bytes

    def stats(self) -> dict:
        return {
            "partition": self.partition_id,
            "epoch": self.epoch,
            "counter": self.counters.peek(self._counter_id),
            "commits": self.commits,
            "commit_attempts": self.commit_attempts,
            "epoch_advances": self.epoch_advances,
            "snapshots": self.snapshots,
            "recoveries": self.recoveries,
            "log_bytes": self._expected_log_bytes,
            "bytes_appended": self.bytes_appended,
            "cycles": self.meter.cycles,
        }


# -- wiring helpers ---------------------------------------------------------------


def attach_partition_durability(
    group,
    disk: UntrustedDisk,
    counters: MonotonicCounterService,
    *,
    seed: int = 0,
    epoch_every: int = DEFAULT_EPOCH_EVERY,
    costs: CostModel = DEFAULT_COSTS,
) -> PartitionDurability:
    """Give one replica group a durability sidecar; returns it.

    The group starts committing on its batch boundary immediately.  If the
    disk already holds state for this partition, call
    :func:`restore_group_from_storage` (or let the
    :class:`~repro.cluster.health.HealthMonitor` recover) before serving.
    """
    if group.replicas is None:
        raise ValueError(
            "durability attaches to replica groups (the group commit rides "
            "their batch boundary); set ClusterConfig.durability, or build "
            "with build_replicated_cluster(config) — replication=1 is fine")
    dur = PartitionDurability(
        group.shard_id, disk, counters, seed=seed, epoch_every=epoch_every,
        costs=costs)
    dur.initialize()
    group.durability = dur
    return dur


def attach_cluster_durability(
    coordinator,
    disk: UntrustedDisk,
    counters: Optional[MonotonicCounterService] = None,
    *,
    seed: int = 0,
    epoch_every: int = DEFAULT_EPOCH_EVERY,
    costs: CostModel = DEFAULT_COSTS,
) -> Dict[str, PartitionDurability]:
    """Attach a durability sidecar to every partition of a cluster."""
    if counters is None:
        counters = MonotonicCounterService(costs=costs)
    sidecars: Dict[str, PartitionDurability] = {}
    for group in coordinator.shard_list():
        sidecars[group.shard_id] = attach_partition_durability(
            group, disk, counters, seed=seed, epoch_every=epoch_every,
            costs=costs)
    return sidecars


def restore_group_from_storage(group) -> Optional[RecoveredState]:
    """Cold-start restore: verified recovery loaded into every replica.

    For process startup (``serve --durable`` over an existing data dir):
    the group's fresh, empty replicas are bulk-loaded with the recovered
    pairs directly (not through the group store, which would re-commit the
    restored writes to the very log they came from).  Returns None when the
    partition has no prior durable state.
    """
    dur = group.durability
    if dur is None:
        raise RecoveryError(
            f"{group.shard_id}: no durability attached; nothing to restore")
    if dur.ready and dur.recoveries == 0 and dur.commits == 0:
        return None  # initialize() found a fresh partition: nothing stored
    state = dur.recover()
    pairs = list(state.pairs.items())
    for replica in group.replicas:
        replica.shard.store.load(pairs)
    return state


def restore_cluster_from_storage(coordinator) -> Dict[str, RecoveredState]:
    """Cold-start restore for every partition that has prior durable state."""
    restored: Dict[str, RecoveredState] = {}
    for group in coordinator.shard_list():
        if group.durability is None:
            continue
        state = restore_group_from_storage(group)
        if state is not None:
            restored[group.shard_id] = state
    return restored
