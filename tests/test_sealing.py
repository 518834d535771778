"""Enclave restart recovery tests: sealing, restore, downtime attacks."""

import pytest

from repro.core.config import AriaConfig
from repro.core.persistence import restore_store, seal_store
from repro.core.store import AriaStore
from repro.crypto.backend import FastCryptoBackend
from repro.crypto.keys import KeyMaterial
from repro.errors import IntegrityError, ReplayError
from repro.sgx.costs import SgxPlatform
from repro.sgx.sealing import derive_sealing_key, seal, unseal

PLATFORM = SgxPlatform(epc_bytes=8 << 20)


def make_store(index="hash", seed=0):
    return AriaStore(
        AriaConfig(index=index, n_buckets=64, btree_order=6,
                   initial_counters=2048, secure_cache_bytes=1 << 16,
                   pin_levels=1, stop_swap_enabled=False, seed=seed),
        platform=PLATFORM,
    )


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
    def test_data_survives_restart(self, index):
        store = make_store(index)
        for i in range(150):
            store.put(f"key-{i:03d}".encode(), f"value-{i}".encode())
        store.delete(b"key-010")
        blob = seal_store(store)

        revived = restore_store(blob, store.enclave.untrusted,
                                platform=PLATFORM)
        assert len(revived) == 149
        for i in range(150):
            key = f"key-{i:03d}".encode()
            if i == 10:
                assert key not in revived
            else:
                assert revived.get(key) == f"value-{i}".encode()
        revived.index.audit()

    def test_revived_store_accepts_writes(self, index):
        store = make_store(index)
        for i in range(60):
            store.put(f"key-{i:03d}".encode(), b"v")
        revived = restore_store(seal_store(store), store.enclave.untrusted,
                                platform=PLATFORM)
        revived.put(b"key-012", b"updated after restart")
        revived.put(b"brand-new", b"inserted after restart")
        assert revived.get(b"key-012") == b"updated after restart"
        assert revived.get(b"brand-new") == b"inserted after restart"
        revived.index.audit()
        revived.audit()

    def test_downtime_tampering_detected(self, index):
        store = make_store(index)
        for i in range(60):
            store.put(f"key-{i:03d}".encode(), b"v")
        blob = seal_store(store)
        # The attacker modifies a Merkle leaf while the enclave is down.
        area = store.counters.areas[0]
        addr = area.tree.node_addr(0, 2)
        byte = store.enclave.untrusted.snoop(addr, 1)[0]
        store.enclave.untrusted.tamper(addr, bytes([byte ^ 1]))
        revived = restore_store(blob, store.enclave.untrusted,
                                platform=PLATFORM)
        with pytest.raises((IntegrityError, ReplayError)):
            revived.audit()


class TestRestoreRejections:
    def test_tampered_blob(self):
        store = make_store()
        store.put(b"k", b"v")
        blob = bytearray(seal_store(store))
        blob[40] ^= 0x01
        with pytest.raises(IntegrityError):
            restore_store(bytes(blob), store.enclave.untrusted,
                          platform=PLATFORM)

    def test_wrong_identity(self):
        store = make_store(seed=5)
        store.put(b"k", b"v")
        blob = seal_store(store)
        with pytest.raises(IntegrityError):
            restore_store(blob, store.enclave.untrusted, seed=0,
                          platform=PLATFORM)
        # The right identity succeeds.
        revived = restore_store(blob, store.enclave.untrusted, seed=5,
                                platform=PLATFORM)
        assert revived.get(b"k") == b"v"

    def test_tampered_top_merkle_node(self):
        # Pinning the top level checks it against the sealed root MAC, so
        # the restore itself refuses, before any request reads a counter.
        from repro.attacks.primitives import UntrustedAttacker

        store = make_store()
        store.put(b"k", b"v")
        blob = seal_store(store)
        tree = store.counters.areas[0].tree
        UntrustedAttacker(store.enclave.untrusted).flip_bit(
            tree.node_addr(tree.layout.top_level, 0))
        with pytest.raises(ReplayError):
            restore_store(blob, store.enclave.untrusted, platform=PLATFORM)

    def test_rollback_limitation_documented(self):
        """Sealing alone cannot stop a full-state rollback (by design).

        The attacker snapshots the sealed blob and ALL of untrusted memory,
        lets the enclave run on, then restores the consistent old pair.
        The restore succeeds and serves stale data — which is why real
        deployments pair sealing with a monotonic counter.
        """
        import copy

        store = make_store()
        store.put(b"balance", b"1000")
        old_blob = seal_store(store)
        old_memory = copy.deepcopy(store.enclave.untrusted)
        store.put(b"balance", b"0")  # the legitimate newer state
        revived = restore_store(old_blob, old_memory, platform=PLATFORM)
        assert revived.get(b"balance") == b"1000"  # stale, undetected


def watch_fifo_order(cache):
    """Check each of ``cache``'s evictions against a FIFO model of its
    inserts; returns the model (resident keys, oldest first)."""
    order = []
    insert, evict_one = cache._insert, cache._evict_one

    def spy_insert(key, data, dirty, locked=None):
        resident = insert(key, data, dirty, locked)
        if resident is not None and key not in order:
            order.append(key)
        return resident

    def spy_evict(locked, *, partition=True):
        expected = next(key for key in order if key not in locked)
        if not evict_one(locked, partition=partition):
            return False
        assert not cache.is_cached(*expected), (
            f"FIFO kept its oldest unlocked node {expected}")
        order.remove(expected)
        return True

    cache._insert, cache._evict_one = spy_insert, spy_evict
    return order


def test_fifo_order_holds_across_seals():
    """Sealing flushes the Secure Cache, which drops its cached inner
    nodes; the store keeps operating after it, and an inner node swapped
    in again must be evicted as the newest entry, not at its old place."""
    import random

    # 512 counters at arity 8: 64 leaves under 8 inner nodes under the
    # pinned root, and a 12-entry FIFO cache holding both levels.
    store = AriaStore(
        AriaConfig(n_buckets=64, initial_counters=512,
                   secure_cache_bytes=12 * (8 * 16 + 16), pin_levels=1,
                   stop_swap_enabled=False, seed=5),
        platform=PLATFORM)
    cache = store.counters.primary_cache()
    order = watch_fifo_order(cache)
    rng = random.Random(8)
    values = {}
    for step in range(1, 1501):
        key = b"k%d" % rng.randrange(300)
        if key in values and rng.random() < 0.3:
            assert store.get(key) == values[key]
        else:
            values[key] = b"v%d" % step
            store.put(key, values[key])
        if step % 100 == 0:
            seal_store(store)
            order[:] = [node for node in order if cache.is_cached(*node)]
    assert cache.stats.evictions > 500
    for key, value in values.items():
        assert store.get(key) == value
