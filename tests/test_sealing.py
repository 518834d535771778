"""Restart recovery: sealing primitives, and a store that survives a
restart through ``repro.persist`` (sealed snapshot + WAL bound to a
monotonic counter), with downtime tampering and rollback refused."""

import shutil

import pytest

from repro.cluster import ClusterConfig, DurabilityConfig
from repro.crypto.backend import FastCryptoBackend
from repro.crypto.keys import KeyMaterial
from repro.errors import IntegrityError, KeyNotFoundError, RollbackDetectedError
from repro.sgx.sealing import derive_sealing_key, seal, unseal


def build(data_dir, index="hash", seed=0, epoch_every=32):
    """A 1-shard durable cluster over ``data_dir``: built fresh, or
    restored from what an earlier one left there."""
    return ClusterConfig(
        n_shards=1, n_keys=256, scale=2048, index=index, seed=seed,
        durability=DurabilityConfig(data_dir=str(data_dir),
                                    epoch_every=epoch_every)).build()


def flip_byte(path, offset):
    """The host flips one byte of a sealed file while the store is down."""
    data = bytearray(path.read_bytes())
    data[offset] ^= 0x01
    path.write_bytes(bytes(data))

class TestSealingPrimitives:
    BACKEND = FastCryptoBackend()
    KEY = derive_sealing_key(KeyMaterial.from_seed(3))

    def test_roundtrip(self):
        blob = seal(self.BACKEND, self.KEY, b"trusted state")
        assert unseal(self.BACKEND, self.KEY, blob) == b"trusted state"

    def test_blob_hides_payload(self):
        blob = seal(self.BACKEND, self.KEY, b"super secret root MAC")
        assert b"super secret" not in blob

    def test_nonce_randomizes(self):
        first = seal(self.BACKEND, self.KEY, b"same")
        second = seal(self.BACKEND, self.KEY, b"same")
        assert first != second

    def test_tampered_blob_rejected(self):
        blob = bytearray(seal(self.BACKEND, self.KEY, b"payload"))
        blob[25] ^= 0x01
        with pytest.raises(IntegrityError):
            unseal(self.BACKEND, self.KEY, bytes(blob))

    def test_wrong_identity_rejected(self):
        blob = seal(self.BACKEND, self.KEY, b"payload")
        other = derive_sealing_key(KeyMaterial.from_seed(4))
        with pytest.raises(IntegrityError):
            unseal(self.BACKEND, other, blob)

    def test_garbage_rejected(self):
        with pytest.raises(IntegrityError):
            unseal(self.BACKEND, self.KEY, b"x")


@pytest.mark.parametrize("index", ["hash", "btree", "bplustree"])
class TestRestartRecovery:
    def test_data_survives_restart(self, index, tmp_path):
        store = build(tmp_path, index)
        for i in range(150):
            store.put(f"key-{i:03d}".encode(), f"value-{i}".encode())
        store.delete(b"key-010")
        store.close()

        revived = build(tmp_path, index)
        assert len(revived.durability_restored["shard-0"].pairs) == 149
        for i in range(150):
            key = f"key-{i:03d}".encode()
            if i == 10:
                with pytest.raises(KeyNotFoundError):
                    revived.get(key)
            else:
                assert revived.get(key) == f"value-{i}".encode()
        revived.close()

    def test_revived_store_accepts_writes(self, index, tmp_path):
        store = build(tmp_path, index)
        for i in range(60):
            store.put(f"key-{i:03d}".encode(), b"v")
        store.close()
        revived = build(tmp_path, index)
        revived.put(b"key-012", b"updated after restart")
        revived.put(b"brand-new", b"inserted after restart")
        assert revived.get(b"key-012") == b"updated after restart"
        assert revived.get(b"brand-new") == b"inserted after restart"
        revived.close()
        # The writes after the restart are durable too.
        again = build(tmp_path, index)
        assert again.get(b"brand-new") == b"inserted after restart"
        assert len(again.durability_restored["shard-0"].pairs) == 61
        again.close()

    def test_downtime_tampering_detected(self, index, tmp_path):
        store = build(tmp_path, index)
        for i in range(60):
            store.put(f"key-{i:03d}".encode(), b"v")
        store.close()
        # The host modifies a sealed WAL record while the enclave is down.
        flip_byte(tmp_path / "shard-0.log", 20)
        with pytest.raises(IntegrityError, match="failed authentication"):
            build(tmp_path, index)


class TestRestoreRejections:
    def test_tampered_blob(self, tmp_path):
        store = build(tmp_path)
        store.put(b"k", b"v")
        store.close()
        flip_byte(tmp_path / "shard-0.snap", 40)
        with pytest.raises(IntegrityError, match="failed authentication"):
            build(tmp_path)

    def test_wrong_identity(self, tmp_path):
        store = build(tmp_path, seed=5)
        store.put(b"k", b"v")
        store.close()
        with pytest.raises(IntegrityError, match="failed authentication"):
            build(tmp_path, seed=0)
        # The right identity succeeds.
        revived = build(tmp_path, seed=5)
        assert revived.get(b"k") == b"v"
        revived.close()

    def test_rollback_limitation_documented(self, tmp_path):
        """Sealing alone cannot stop a full-state rollback; the monotonic
        counter does.

        The attacker keeps a copy of the sealed snapshot and log, lets the
        store run on, then puts the consistent old pair back.  The counter
        has moved past the old pair's epoch, so the restart refuses it.
        With ``epoch_every=1`` every acked batch binds the counter; a
        larger value leaves that many batches inside one epoch, where an
        offline rollback goes unnoticed (``DurabilityConfig.epoch_every``).
        """
        store = build(tmp_path, epoch_every=1)
        store.put(b"balance", b"1000")
        store.close()
        stale = tmp_path / "stale"
        stale.mkdir()
        for name in ("shard-0.snap", "shard-0.log"):
            shutil.copy(tmp_path / name, stale / name)

        store = build(tmp_path, epoch_every=1)
        store.put(b"balance", b"0")  # the legitimate newer state
        store.close()
        for name in ("shard-0.snap", "shard-0.log"):
            shutil.copy(stale / name, tmp_path / name)
        with pytest.raises(RollbackDetectedError, match="stale"):
            build(tmp_path, epoch_every=1)

    def test_a_pair_copied_after_a_restart_is_stale_at_the_next(
            self, tmp_path):
        """Recovery binds a fresh epoch before the store serves.

        At the default ``epoch_every`` the writes after a restart stay
        inside one epoch; if recovery resumed the epoch it found, a pair
        copied right after the restart would still match the counter once
        the store had moved on, and the old balance would be served."""
        store = build(tmp_path)
        store.put(b"balance", b"1000")
        store.close()
        store = build(tmp_path)
        stale = tmp_path / "stale"
        stale.mkdir()
        for name in ("shard-0.snap", "shard-0.log"):
            shutil.copy(tmp_path / name, stale / name)
        store.put(b"balance", b"0")
        store.close()
        build(tmp_path).close()
        for name in ("shard-0.snap", "shard-0.log"):
            shutil.copy(stale / name, tmp_path / name)
        with pytest.raises(RollbackDetectedError, match="stale"):
            build(tmp_path)
