"""Unit tests for the sealed durability stack: disk, counters, WAL, sidecar.

Everything below runs against :class:`~repro.persist.MemoryDisk` unless the
test is *about* the file backend — the two share the seven-verb contract, and
the cluster-level suite (``test_durability_recovery``) re-runs the whole
recovery story over real files and real processes.
"""

import gc
import json
import os

import pytest

from repro.crypto.backend import FastCryptoBackend
from repro.crypto.keys import KeyMaterial
from repro.errors import (
    DiskIOError,
    DurabilityError,
    IntegrityError,
    RecoveryError,
    RollbackDetectedError,
    TornLogError,
)
from repro.persist import (
    FileDisk,
    MemoryDisk,
    PartitionDurability,
    anchor_mac,
    replay,
    wal,
)
from repro.cluster.faults import FaultPlan, FaultyDisk, dur_target
from repro.server.protocol import OpCode, Request
from repro.sgx.monotonic import MonotonicCounterService
from repro.sgx.meter import CycleMeter
from repro.sgx.sealing import derive_sealing_key


def puts(*pairs):
    return [Request(OpCode.PUT, k, v) for k, v in pairs]


def make_dur(disk=None, counters=None, **kwargs):
    disk = disk if disk is not None else MemoryDisk()
    counters = counters if counters is not None else MonotonicCounterService()
    kwargs.setdefault("epoch_every", 4)
    dur = PartitionDurability("part-0", disk, counters, **kwargs)
    dur.initialize()
    return dur, disk, counters


class TestDisks:
    @pytest.fixture(params=["memory", "file"])
    def disk(self, request, tmp_path):
        if request.param == "memory":
            return MemoryDisk()
        return FileDisk(str(tmp_path / "data"))

    def test_blob_roundtrip_and_missing(self, disk):
        assert disk.read_blob("a") is None
        assert disk.size("a") == 0
        disk.write_blob("a", b"hello")
        assert disk.read_blob("a") == b"hello"
        assert disk.size("a") == 5
        disk.write_blob("a", b"x")  # atomic replace, not append
        assert disk.read_blob("a") == b"x"

    def test_append_truncate_delete(self, disk):
        disk.append("log", b"abc")
        disk.append("log", b"def")
        assert disk.read_blob("log") == b"abcdef"
        disk.truncate("log", 4)
        assert disk.read_blob("log") == b"abcd"
        disk.truncate("log", 99)  # longer than the blob: no-op
        assert disk.size("log") == 4
        disk.delete("log")
        assert disk.read_blob("log") is None
        disk.delete("log")  # idempotent

    def test_capture_restore_is_the_rollback_attack(self, disk):
        disk.write_blob("snap", b"old")
        disk.append("log", b"records")
        token = disk.capture()
        disk.write_blob("snap", b"new")
        disk.delete("log")
        disk.write_blob("extra", b"later")
        disk.restore(token)
        assert disk.read_blob("snap") == b"old"
        assert disk.read_blob("log") == b"records"
        assert disk.read_blob("extra") is None  # post-capture state is gone

    def test_sync_is_idempotent_and_free_when_clean(self, disk,
                                                    fsync_events):
        flushed = fsync_events
        disk.sync()  # nothing ever appended
        disk.append("log", b"abc")
        disk.append("log", b"def")
        del flushed[:]  # a new file's directory entry is append's business
        disk.sync()
        after_first = len(flushed)
        assert after_first == (1 if isinstance(disk, FileDisk) else 0)
        disk.sync()
        disk.sync()
        assert len(flushed) == after_first
        assert disk.read_blob("log") == b"abcdef"

    @pytest.mark.parametrize("reset", ["delete", "truncate", "restore",
                                       "write_blob"])
    def test_append_after_a_log_reset_lands_in_the_new_file(self, disk, reset):
        disk.append("log", b"abcdef")
        if reset == "delete":
            disk.delete("log")
            kept = b""
        elif reset == "truncate":
            disk.truncate("log", 2)
            kept = b"ab"
        elif reset == "restore":
            token = disk.capture()
            disk.append("log", b"-later")
            disk.restore(token)
            kept = b"abcdef"
        else:
            disk.write_blob("log", b"Z")
            kept = b"Z"
        disk.append("log", b"xy")  # no stale descriptor: the file on disk
        assert disk.read_blob("log") == kept + b"xy"
        assert disk.size("log") == len(kept) + 2
        disk.sync()
        assert disk.read_blob("log") == kept + b"xy"

    def test_close_releases_every_descriptor(self, disk):
        before = len(os.listdir("/proc/self/fd"))
        for name in ("a.log", "b.log", "c.log"):
            disk.append(name, b"x")
        held = len(os.listdir("/proc/self/fd")) - before
        assert held == (3 if isinstance(disk, FileDisk) else 0)
        disk.sync()
        disk.close()
        assert len(os.listdir("/proc/self/fd")) == before
        disk.close()  # idempotent
        disk.append("a.log", b"y")  # and the disk stays usable
        assert disk.read_blob("a.log") == b"xy"
        disk.close()

    def test_an_abandoned_file_disk_leaks_no_descriptor(self, tmp_path):
        # The crash-without-close() path: the coordinator is dropped, a new
        # one is built over the same directory.
        before = len(os.listdir("/proc/self/fd"))
        disk = FileDisk(str(tmp_path / "data"))
        disk.append("a.log", b"x")
        disk.append("b.log", b"x")
        assert len(os.listdir("/proc/self/fd")) == before + 2
        del disk
        gc.collect()
        assert len(os.listdir("/proc/self/fd")) == before

    def test_file_disk_flushes_the_directory_entry_it_changes(
            self, tmp_path, fsync_events):
        disk = FileDisk(str(tmp_path / "data"))
        flushed = fsync_events
        disk.write_blob("p.snap", b"sealed")  # temp file, then the rename
        assert flushed == [("fsync", "p.snap.tmp"), ("fsync", "data")]
        del flushed[:]
        disk.append("p.log", b"first")  # a new file: its entry, once
        disk.append("p.log", b"second")
        assert flushed == [("fsync", "data")]
        del flushed[:]
        disk.delete("p.log")  # the unlink
        disk.delete("p.log")  # nothing removed, nothing flushed
        assert flushed == [("fsync", "data")]
        disk.close()

    def test_slashed_names_stay_inside_the_root(self, tmp_path):
        disk = FileDisk(str(tmp_path / "data"))
        disk.write_blob("shard-0/dur.log", b"x")
        assert disk.read_blob("shard-0/dur.log") == b"x"
        # Flattened to one file in the root, no subdirectory escape.
        assert (tmp_path / "data" / "shard-0_dur.log").exists()

    def test_file_disk_wraps_oserror(self, tmp_path):
        disk = FileDisk(str(tmp_path / "data"))
        with pytest.raises(DiskIOError):
            disk.append("a/../../" + "x" * 300, b"data")  # name too long


class TestMonotonicCounters:
    def test_create_read_increment(self):
        svc = MonotonicCounterService()
        assert svc.create("c") == 0
        assert svc.create("c") == 0  # idempotent
        assert svc.increment("c") == 1
        assert svc.increment("c") == 2
        assert svc.read("c") == 2
        assert svc.peek("c") == 2

    def test_increment_and_read_are_priced(self):
        svc = MonotonicCounterService()
        meter = CycleMeter()
        svc.create("c")
        svc.increment("c", meter=meter)
        after_inc = meter.cycles
        assert after_inc >= svc._costs.ctr_increment
        svc.read("c", meter=meter)
        assert meter.cycles - after_inc >= svc._costs.ctr_read
        # peek is the test/stats backdoor: free.
        before = meter.cycles
        svc.peek("c")
        assert meter.cycles == before

    def test_reset_is_the_attack_surface(self):
        svc = MonotonicCounterService()
        svc.create("c")
        svc.increment("c")
        svc.increment("c")
        svc.reset("c")
        assert svc.peek("c") == 0
        assert svc.stats()["resets"] == 1

    def test_counters_survive_a_process_restart_via_file(self, tmp_path):
        path = str(tmp_path / "counters.json")
        svc = MonotonicCounterService(path=path)
        svc.create("c")
        svc.increment("c")
        svc.increment("c")
        # A "new process" opens the same file: the value survived.
        svc2 = MonotonicCounterService(path=path)
        assert svc2.peek("c") == 2
        assert svc2.increment("c") == 3

    def test_increment_is_flushed_before_it_returns(self, tmp_path,
                                                    fsync_events):
        path = str(tmp_path / "counters.json")
        svc = MonotonicCounterService(path=path)
        svc.create("c")
        del fsync_events[:]
        assert svc.increment("c") == 1
        # The bytes, while the file still has its temp name: before the rename.
        assert fsync_events == [("fsync", "counters.json.tmp")]
        with open(path, encoding="utf-8") as fh:
            assert json.load(fh) == {"c": 1}

    @pytest.mark.parametrize("content", [b"", b"{\"c\": 1", b"[1, 2]",
                                         b"{\"c\": \"x\"}"])
    def test_unreadable_counter_file_is_a_typed_refusal(self, tmp_path,
                                                        content):
        path = tmp_path / "counters.json"
        path.write_bytes(content)
        with pytest.raises(RecoveryError, match="counter file"):
            MonotonicCounterService(path=str(path))


class TestWal:
    def setup_method(self):
        self.backend = FastCryptoBackend()
        self.key = derive_sealing_key(KeyMaterial.from_seed(7))
        self.log = wal.SealedLog(self.backend, self.key)
        self.log.reset(1)

    def _append(self, blob, kind, epoch, body):
        framed = self.log.encode_record(kind, epoch, body)
        self.log.advance(framed)
        return blob + framed

    def test_roundtrip_batches_and_epochs(self):
        blob = b""
        blob = self._append(blob, wal.RECORD_BATCH, 1, b"batch-0")
        blob = self._append(blob, wal.RECORD_EPOCH, 2, b"")
        blob = self._append(blob, wal.RECORD_BATCH, 2, b"batch-1")
        out = replay(self.backend, self.key, blob, 1)
        assert [(r.kind, r.epoch, r.body) for r in out.records] == [
            (wal.RECORD_BATCH, 1, b"batch-0"),
            (wal.RECORD_EPOCH, 2, b""),
            (wal.RECORD_BATCH, 2, b"batch-1"),
        ]
        assert out.last_epoch == 2
        assert out.next_seq == 3
        assert out.valid_bytes == len(blob)
        assert out.torn_bytes == 0

    def test_anchor_binds_the_log_to_its_snapshot_epoch(self):
        blob = self._append(b"", wal.RECORD_BATCH, 1, b"x")
        # Replaying against the wrong anchor epoch = grafting this log
        # onto a different snapshot: the chain root does not match.
        with pytest.raises(IntegrityError):
            replay(self.backend, self.key, blob, 2)
        assert anchor_mac(self.key, 1) != anchor_mac(self.key, 2)

    def test_bit_flip_in_any_record_is_tampering(self):
        blob = self._append(b"", wal.RECORD_BATCH, 1, b"payload")
        flipped = bytearray(blob)
        flipped[len(blob) // 2] ^= 0x01
        with pytest.raises(IntegrityError):
            replay(self.backend, self.key, bytes(flipped), 1)

    def test_dropping_a_middle_record_breaks_the_chain(self):
        first = self._append(b"", wal.RECORD_BATCH, 1, b"a")
        second = self._append(b"", wal.RECORD_BATCH, 1, b"b")[len(b""):]
        third_blob = self._append(first + second, wal.RECORD_BATCH, 1, b"c")
        third = third_blob[len(first) + len(second):]
        with pytest.raises(IntegrityError):
            replay(self.backend, self.key, first + third, 1)

    def test_torn_tail_is_trimmed_not_fatal(self):
        blob = self._append(b"", wal.RECORD_BATCH, 1, b"complete")
        whole = len(blob)
        torn = blob + self.log.encode_record(wal.RECORD_BATCH, 1, b"torn")[:9]
        out = replay(self.backend, self.key, torn, 1)
        assert len(out.records) == 1
        assert out.valid_bytes == whole
        assert out.torn_bytes == len(torn) - whole
        with pytest.raises(TornLogError):
            replay(self.backend, self.key, torn, 1, strict_tail=True)

    def test_epoch_records_must_strictly_advance(self):
        blob = self._append(b"", wal.RECORD_EPOCH, 2, b"")
        blob = self._append(blob, wal.RECORD_EPOCH, 2, b"")  # stuck epoch
        with pytest.raises(IntegrityError):
            replay(self.backend, self.key, blob, 1)

    def test_resume_continues_the_chain_seamlessly(self):
        blob = self._append(b"", wal.RECORD_BATCH, 1, b"before")
        out = replay(self.backend, self.key, blob, 1)
        writer = wal.SealedLog(self.backend, self.key)
        writer.resume(out)
        framed = writer.encode_record(wal.RECORD_BATCH, 1, b"after")
        writer.advance(framed)
        out2 = replay(self.backend, self.key, blob + framed, 1)
        assert [r.body for r in out2.records] == [b"before", b"after"]


class TestPartitionDurability:
    def test_fresh_partition_binds_epoch_one(self):
        dur, disk, counters = make_dur()
        assert dur.ready
        assert dur.epoch == 1
        assert counters.peek("part-0.epoch") == 1

    def test_commit_then_recover_roundtrip(self):
        dur, disk, counters = make_dur()
        dur.commit(puts((b"k1", b"v1"), (b"k2", b"v2")))
        dur.commit([Request(OpCode.PUT, b"k1", b"v1b"),
                    Request(OpCode.DELETE, b"k2", b"")])
        fresh = PartitionDurability("part-0", disk, counters, epoch_every=4)
        assert fresh.initialize()  # prior state: must recover first
        with pytest.raises(RecoveryError):
            fresh.commit(puts((b"k", b"v")))
        state = fresh.recover()
        assert state.pairs == {b"k1": b"v1b"}
        assert state.batches_replayed == 2
        assert state.counter == state.epoch == 1
        # And the resumed writer keeps committing on the same chain.
        fresh.commit(puts((b"k3", b"v3")))
        assert fresh.recover().pairs == {b"k1": b"v1b", b"k3": b"v3"}

    def test_epoch_advances_bind_the_counter(self):
        dur, disk, counters = make_dur(epoch_every=2)
        for i in range(5):
            dur.commit(puts((b"k%d" % i, b"v")))
        # epoch 1 at init + one advance per 2 commits = 3 total bindings.
        assert dur.epoch == 3
        assert counters.peek("part-0.epoch") == 3
        state = PartitionDurability(
            "part-0", disk, counters, epoch_every=2).recover()
        assert state.epoch == state.counter == 3
        assert len(state.pairs) == 5

    def test_snapshot_compacts_and_rebinds(self):
        dur, disk, counters = make_dur()
        dur.commit(puts((b"a", b"1"), (b"b", b"2")))
        epoch = dur.snapshot([(b"a", b"1"), (b"b", b"2")])
        assert epoch == 2
        assert dur.log_bytes == 0  # log reset under the new snapshot
        state = PartitionDurability("part-0", disk, counters).recover()
        assert state.pairs == {b"a": b"1", b"b": b"2"}
        assert state.snapshot_keys == 2
        assert state.batches_replayed == 0

    def test_stale_state_rollback_is_detected(self):
        dur, disk, counters = make_dur(epoch_every=2)
        dur.commit(puts((b"k", b"v1")))
        token = disk.capture()
        for i in range(4):  # crosses ≥1 epoch boundary → counter moves on
            dur.commit(puts((b"k", b"v%d" % (2 + i))))
        disk.restore(token)
        fresh = PartitionDurability("part-0", disk, counters, epoch_every=2)
        fresh.initialize()
        with pytest.raises(RollbackDetectedError, match="stale"):
            fresh.recover()

    def test_counter_reset_is_detected(self):
        dur, disk, counters = make_dur()
        dur.commit(puts((b"k", b"v")))
        counters.reset("part-0.epoch")
        fresh = PartitionDurability("part-0", disk, counters)
        fresh.initialize()
        with pytest.raises(RollbackDetectedError, match="rewound"):
            fresh.recover()

    def test_wiped_disk_with_live_counter_is_detected(self):
        dur, disk, counters = make_dur()
        dur.commit(puts((b"k", b"v")))
        disk.delete("part-0.snap")
        disk.delete("part-0.log")
        fresh = PartitionDurability("part-0", disk, counters)
        fresh.initialize()
        with pytest.raises(RollbackDetectedError, match="wiped"):
            fresh.recover()

    def test_truncation_across_an_epoch_boundary_is_rollback(self):
        dur, disk, counters = make_dur(epoch_every=1)
        dur.commit(puts((b"a", b"1")))  # commit + epoch advance
        cut = disk.size("part-0.log")
        dur.commit(puts((b"b", b"2")))  # next epoch lands after this point
        disk.truncate("part-0.log", cut)
        fresh = PartitionDurability("part-0", disk, counters, epoch_every=1)
        fresh.initialize()
        with pytest.raises(RollbackDetectedError):
            fresh.recover()

    def test_torn_tail_recovers_to_last_committed_batch(self):
        plan = FaultPlan()
        counters = MonotonicCounterService()
        dur, disk, counters = make_dur(
            FaultyDisk(MemoryDisk(), plan, counters), counters)
        dur.commit(puts((b"a", b"1")))
        plan.torn(dur_target("part-0"), at=dur.commit_attempts + 1)
        with pytest.raises(DiskIOError, match="torn"):
            dur.commit(puts((b"b", b"2")))  # never acked
        fresh = PartitionDurability("part-0", disk, counters)
        fresh.initialize()
        state = fresh.recover()
        assert state.pairs == {b"a": b"1"}
        assert state.repaired_tail
        # Strict mode refuses instead of trimming.
        dur2 = PartitionDurability("part-0", disk, counters)
        dur2.initialize()
        state2 = dur2.recover(strict_tail=True)  # already trimmed on disk
        assert not state2.repaired_tail

    def test_io_error_fault_fails_the_commit_cleanly(self):
        plan = FaultPlan().io_error(dur_target("part-0"), at=2)
        counters = MonotonicCounterService()
        dur, disk, counters = make_dur(
            FaultyDisk(MemoryDisk(), plan, counters), counters)
        dur.commit(puts((b"a", b"1")))
        with pytest.raises(DiskIOError, match="I/O"):
            dur.commit(puts((b"b", b"2")))
        # Nothing landed; the writer chain is still consistent with disk.
        dur.commit(puts((b"c", b"3")))
        state = PartitionDurability("part-0", disk, counters).recover()
        assert state.pairs == {b"a": b"1", b"c": b"3"}

    def test_online_truncation_is_caught_at_the_next_commit(self):
        dur, disk, counters = make_dur()
        dur.commit(puts((b"a", b"1")))
        disk.truncate("part-0.log", disk.size("part-0.log") // 2)
        with pytest.raises(DurabilityError, match="modified underneath"):
            dur.commit(puts((b"b", b"2")))

    def test_every_disk_touch_is_metered(self):
        dur, disk, counters = make_dur()
        init_cycles = dur.meter.cycles
        assert init_cycles > 0  # the epoch-1 snapshot already paid
        dur.commit(puts((b"k", b"v" * 100)))
        assert dur.meter.cycles > init_cycles
        events = dur.meter.events
        assert events["ocall"] >= 2
        assert events["ctr_increment"] == 1

    def test_commit_load_chunks_to_the_protocol_cap(self):
        from repro.server.protocol import MAX_BATCH_COUNT
        dur, disk, counters = make_dur(epoch_every=10_000)
        n = MAX_BATCH_COUNT + 5
        dur.commit_load((b"k%05d" % i, b"v") for i in range(n))
        assert dur.commits == 2
        state = PartitionDurability(
            "part-0", disk, counters, epoch_every=10_000).recover()
        assert len(state.pairs) == n
