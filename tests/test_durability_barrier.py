"""One durability barrier per coordinator call: what is flushed, when, and
what power loss may take.

``UntrustedDisk.append`` only *stages* bytes; ``sync()`` is the barrier,
and no OK for a write may leave before it (ARCHITECTURE §12 "Commit
protocol").  Two kinds of evidence, neither of them a clock:

* **flush counts** — a recording :class:`~repro.persist.FileDisk` sees every
  ``os.fsync`` the process makes, by file: an append flushes nothing, one
  ``execute`` flushes each log it wrote exactly once and only after the last
  shard staged, an epoch close flushes record, counter file, epoch record in
  that order, and a failed barrier un-acks one group's writes only;
* **the power-loss property** — :class:`PowerLossDisk` forgets every byte
  appended since the last ``sync()``; a seeded stream through a 2-partition
  R=2 cluster is cut after every stage and after every barrier, rebuilt from
  the disk alone, and must still hold every write acked before the cut.
"""

import os
import random

import pytest

from repro.cluster import ClusterConfig, build_replicated_cluster
from repro.errors import DiskIOError
from repro.persist import (
    FileDisk,
    MemoryDisk,
    attach_cluster_durability,
    restore_cluster_from_storage,
)
from repro.server import protocol
from repro.server.protocol import STATUS_OK, STATUS_UNAVAILABLE
from repro.sgx.monotonic import MonotonicCounterService

pytestmark = pytest.mark.durability

_CONFIG = dict(n_shards=2, replication=2, n_keys=64, scale=2048)


def build(disk, counters, *, epoch_every):
    coord = build_replicated_cluster(ClusterConfig(**_CONFIG))
    attach_cluster_durability(coord, disk, counters, epoch_every=epoch_every)
    return coord


def keys_for(coord, shard_id, n):
    """``n`` distinct keys the ring routes to ``shard_id``."""
    found = []
    for i in range(10_000):
        key = b"key-%05d" % i
        if coord.ring.route(key) == shard_id:
            found.append(key)
            if len(found) == n:
                return found
    raise AssertionError(f"ring never routed {n} keys to {shard_id}")


# -- flush counts ---------------------------------------------------------------


class RecordingFileDisk(FileDisk):
    """A FileDisk that writes down what it was asked, in order."""

    def __init__(self, root, events):
        super().__init__(root)
        self.events = events
        self.fail_next_sync = False

    def append(self, name, data):
        super().append(name, data)
        self.events.append(("append", name))

    def sync(self):
        if self.fail_next_sync:
            self.fail_next_sync = False
            raise DiskIOError("injected: the barrier's flush failed")
        super().sync()


@pytest.fixture()
def events(fsync_events):
    """The one ordered record: ``("fsync", file)`` from the process-wide
    patch, ``("append", log)`` from the recording disk."""
    return fsync_events


@pytest.fixture()
def durable(tmp_path, events):
    """``make(epoch_every)`` -> (coordinator, recording disk) on real files."""
    made = []

    def make(epoch_every=1000):
        data = tmp_path / "data"
        disk = RecordingFileDisk(str(data), events)
        counters = MonotonicCounterService(path=str(data / "counters.json"))
        coord = build(disk, counters, epoch_every=epoch_every)
        made.append(coord)
        return coord, disk

    yield make
    for coord in made:
        coord.close()


def fsyncs(events, start=0):
    return [name for kind, name in events[start:] if kind == "fsync"]


class TestFlushCounts:
    def test_append_flushes_nothing(self, tmp_path, events):
        disk = RecordingFileDisk(str(tmp_path / "data"), events)
        disk.append("p.log", b"first")
        # Creating the file flushed its directory entry, not the file.
        assert fsyncs(events) == ["data"]
        mark = len(events)
        disk.append("p.log", b"second")
        disk.append("p.log", b"third")
        assert fsyncs(events, mark) == []
        disk.sync()
        disk.sync()  # clean: free
        assert fsyncs(events, mark) == ["p.log"]
        disk.close()

    def test_one_execute_flushes_each_written_log_once(self, durable, events):
        coord, _ = durable()
        both = keys_for(coord, "shard-0", 3) + keys_for(coord, "shard-1", 3)
        coord.execute([protocol.put(k, b"warm") for k in both])

        mark = len(events)
        responses = coord.execute([protocol.put(k, b"v1") for k in both])
        assert all(r.status == STATUS_OK for r in responses)
        during = events[mark:]
        # Both shards staged before anything was flushed, each written log
        # was flushed exactly once, and all of it before execute returned.
        assert during == [("append", "shard-0.log"), ("append", "shard-1.log"),
                          ("fsync", "shard-0.log"), ("fsync", "shard-1.log")]

        mark = len(events)
        only_one = keys_for(coord, "shard-1", 3)
        coord.execute([protocol.put(k, b"v2") for k in only_one]
                      + [protocol.get(k) for k in both])
        # A log the call did not write is not flushed; reads flush nothing.
        assert events[mark:] == [("append", "shard-1.log"),
                                 ("fsync", "shard-1.log")]

    def test_trusted_path_and_load_flush_before_they_return(
            self, durable, events):
        coord, _ = durable()
        [key] = keys_for(coord, "shard-0", 1)
        coord.execute([protocol.put(k, b"warm") for k in
                       [key] + keys_for(coord, "shard-1", 1)])
        mark = len(events)
        coord.shards["shard-0"].store.put(key, b"migrated")
        assert events[mark:] == [("append", "shard-0.log"),
                                 ("fsync", "shard-0.log")]
        mark = len(events)
        coord.shards["shard-0"].store.delete(key)
        assert events[mark:] == [("append", "shard-0.log"),
                                 ("fsync", "shard-0.log")]
        mark = len(events)
        coord.load((k, b"loaded") for k in keys_for(coord, "shard-1", 5))
        assert events[mark:] == [("append", "shard-1.log"),
                                 ("fsync", "shard-1.log")]

    def test_epoch_close_flushes_record_counter_epoch_in_order(
            self, durable, events):
        coord, _ = durable(epoch_every=2)
        keys = keys_for(coord, "shard-0", 2)
        coord.execute([protocol.put(keys[0], b"a")])  # 1 of 2: rides the barrier
        mark = len(events)
        [response] = coord.execute([protocol.put(keys[1], b"b")])
        assert response.status == STATUS_OK
        assert events[mark:] == [
            ("append", "shard-0.log"), ("fsync", "shard-0.log"),
            ("fsync", "counters.json.tmp"),
            ("append", "shard-0.log"), ("fsync", "shard-0.log")]
        assert coord.shards["shard-0"].durability.epoch == 2

    def test_failed_barrier_unacks_one_group_only(self, durable, events):
        coord, disk = durable()
        k0 = keys_for(coord, "shard-0", 2)
        k1 = keys_for(coord, "shard-1", 2)
        coord.execute([protocol.put(k, b"old") for k in k0 + k1])
        g0, g1 = coord.shards["shard-0"], coord.shards["shard-1"]
        snapshots_before = g0.durability.snapshots

        disk.fail_next_sync = True
        mark = len(events)
        batch = [protocol.put(k, b"new") for k in k0 + k1]
        responses = coord.execute(batch)
        # shard-0 collects first and meets the failure: exactly its writes
        # of this call are un-acked, with the usual text.
        for request, response in zip(batch, responses):
            if request.key in k0:
                assert response.status == STATUS_UNAVAILABLE
                assert response.value == \
                    b"durability commit failed in shard-0"
            else:
                assert response.status == STATUS_OK
        assert (g0.durability_failures, g1.durability_failures) == (2, 0)
        # The repair snapshot landed (durable in place, log reset)...
        assert g0.durability_repairs == 1
        assert g0.durability.snapshots == snapshots_before + 1
        assert g0.durability.log_bytes == 0
        # ...and shard-1's acks stand on a flush of their own.
        assert ("fsync", "shard-1.log") in events[mark:]

        responses = coord.execute([protocol.put(k, b"again")
                                   for k in k0 + k1])
        assert all(r.status == STATUS_OK for r in responses)

    def test_failed_flush_poisons_the_log_until_it_is_replaced(
            self, tmp_path, monkeypatch):
        disk = FileDisk(str(tmp_path / "data"))
        disk.append("p.log", b"staged")
        real_fsync = os.fsync

        def failing_fsync(fd):
            raise OSError(5, "injected EIO")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(DiskIOError):
            disk.sync()
        monkeypatch.setattr(os, "fsync", real_fsync)
        # The kernel reports a write-back error once: a retry that read
        # "success" would ack bytes that may be gone.
        with pytest.raises(DiskIOError):
            disk.sync()
        with pytest.raises(DiskIOError):
            disk.append("p.log", b"more")
        disk.delete("p.log")  # what a repair snapshot does
        disk.sync()
        disk.append("p.log", b"fresh")
        disk.sync()
        assert disk.read_blob("p.log") == b"fresh"
        disk.close()


# -- the power-loss property ------------------------------------------------------


class PowerLossDisk(MemoryDisk):
    """A MemoryDisk whose unsynced appends do not survive :meth:`crash`.

    Remembers every blob's length at the last ``sync()``; ``write_blob`` and
    ``delete`` are durable in place, as on a :class:`FileDisk`.
    """

    def __init__(self):
        super().__init__()
        self._durable = {}

    def write_blob(self, name, data):
        super().write_blob(name, data)
        self._durable[name] = len(data)

    def delete(self, name):
        super().delete(name)
        self._durable.pop(name, None)

    def sync(self):
        self._durable = {name: len(blob)
                         for name, blob in self._blobs.items()}

    def crash(self, torn=0.0):
        """Power loss: cut each blob back to its length at the last barrier,
        plus ``torn`` (a fraction) of what was staged since — the part of a
        write-back the power happened to outlast."""
        for name, blob in list(self._blobs.items()):
            durable = self._durable.get(name, 0)
            del blob[durable + int((len(blob) - durable) * torn):]

    def after_crash(self, torn=0.0):
        """What :meth:`crash` would leave, on a copy."""
        image = PowerLossDisk()
        image.restore(self.capture())
        image._durable = dict(self._durable)
        image.crash(torn)
        return image


class TestPowerLoss:
    EPOCH_EVERY = 3
    N_CALLS = 14
    N_KEYS = 24

    def _drive(self):
        """A seeded write stream; returns the crash points taken after every
        stage (``commit``) and every barrier (``sync``) and the acked state
        after every call.

        An epoch-closing commit is one stage: its counter bump and epoch
        record are atomic by the model (durability module docstring,
        "Crash atomicity"), flushed in place before ``commit`` returns.
        """
        disk = PowerLossDisk()
        counters = MonotonicCounterService()
        coord = build(disk, counters, epoch_every=self.EPOCH_EVERY)
        points = []  # (call index, what, disk image x2, counter values)
        call = [0]

        def watch(sidecar):
            def after(what, method):
                def wrapped(*args):
                    method(*args)
                    points.append((call[0], f"{sidecar.partition_id} {what}",
                                   disk.after_crash(), disk.after_crash(0.5),
                                   counters.stats()["counters"]))
                return wrapped
            sidecar.commit = after("stage", sidecar.commit)
            sidecar.sync = after("barrier", sidecar.sync)

        rng = random.Random(0xD15C)
        keys = [b"key-%03d" % i for i in range(self.N_KEYS)]
        model = {key: b"loaded" for key in keys[: self.N_KEYS // 2]}
        coord.load(model.items())
        states = [dict(model)]  # states[c] = acked state before call c
        sidecars = [group.durability for group in coord.shard_list()]
        for sidecar in sidecars:
            watch(sidecar)
        for call[0] in range(self.N_CALLS):
            batch = []
            for _ in range(rng.randrange(1, 9)):
                key = rng.choice(keys)
                if rng.random() < 0.2:
                    batch.append(protocol.delete(key))
                else:
                    batch.append(protocol.put(key, b"v%d-%d" % (
                        call[0], rng.randrange(1000))))
            for request, response in zip(batch, coord.execute(batch)):
                if response.status != STATUS_OK:
                    continue  # a delete that found nothing
                if request.opcode == protocol.OpCode.DELETE:
                    model.pop(request.key, None)
                else:
                    model[request.key] = request.value
            states.append(dict(model))
        epochs = [sidecar.epoch for sidecar in sidecars]
        coord.close()
        return points, states, keys, epochs

    @staticmethod
    def _rebuild(image, counter_values):
        """A cold start that has the disk and the counters, nothing else."""
        counters = MonotonicCounterService()
        for counter_id, value in counter_values.items():
            counters.create(counter_id)
            counters.reset(counter_id, value)
        coord = build(image, counters, epoch_every=TestPowerLoss.EPOCH_EVERY)
        restored = restore_cluster_from_storage(coord)
        return coord, restored

    def test_every_acked_write_survives_a_cut_at_any_stage_or_barrier(self):
        points, states, keys, epochs = self._drive()
        # The stream really crossed epoch-closing commits on both partitions
        # and was cut both before and after barriers.
        assert all(epoch >= 3 for epoch in epochs)
        assert {what.split()[1] for _, what, *_ in points} \
            == {"stage", "barrier"}
        assert len(points) >= 4 * self.N_CALLS // 2

        torn_tails = 0
        for call, what, clean, torn, counter_values in points:
            before, after = states[call], states[call + 1]
            for image in (clean, torn):
                # RollbackDetectedError / IntegrityError here would mean
                # recovery took the cut for an attack: it must not raise.
                coord, restored = self._rebuild(image, counter_values)
                torn_tails += sum(state.repaired_tail
                                  for state in restored.values())
                responses = coord.execute([protocol.get(k) for k in keys])
                for key, response in zip(keys, responses):
                    got = response.value if response.status == STATUS_OK \
                        else None
                    # Acked before the cut: there.  The call in flight was
                    # acked to nobody, so either side of it is fine.
                    assert got in (before.get(key), after.get(key)), \
                        (call, what, key)
                coord.close()
        assert torn_tails > 0  # the mid-record cuts were trimmed, not fatal

    def test_a_cut_after_the_call_returns_loses_nothing(self):
        disk = PowerLossDisk()
        counters = MonotonicCounterService()
        coord = build(disk, counters, epoch_every=self.EPOCH_EVERY)
        model = {}
        for call in range(7):  # crosses two epoch closes per partition
            batch = [protocol.put(b"key-%03d" % i, b"c%d" % call)
                     for i in range(call, call + 6)]
            responses = coord.execute(batch)
            assert all(r.status == STATUS_OK for r in responses)
            model.update((r.key, r.value) for r in batch)
        cuts = [(disk.after_crash(), counters.stats()["counters"],
                 dict(model))]
        for i in range(4):  # the trusted path acks by returning
            key = b"direct-%d" % i
            coord.shard_for(key).store.put(key, b"trusted-path")
            model[key] = b"trusted-path"
        cuts.append((disk.after_crash(), counters.stats()["counters"], model))
        coord.close()
        # Nothing staged is unflushed once the acks are out.
        for image, counter_values, acked in cuts:
            rebuilt, _ = self._rebuild(image, counter_values)
            for key, value in acked.items():
                assert rebuilt.get(key) == value
            rebuilt.close()
