"""Baseline scheme tests: correctness plus the cost properties the paper uses."""

import pytest

from repro.baselines.aria_nocache import AriaNoCacheStore
from repro.baselines.enclave_baseline import EnclaveBaselineStore
from repro.baselines.plain_kv import PlainKvStore
from repro.baselines.shieldstore import ShieldStore
from repro.errors import ConfigurationError, IntegrityError, KeyNotFoundError
from repro.index import AriaBPlusTreeIndex
from repro.sgx.costs import PAGE_SIZE, SgxPlatform

PLATFORM = SgxPlatform(epc_bytes=2 << 20)


FACTORIES = {
    "shieldstore": lambda: ShieldStore(n_buckets=64, platform=PLATFORM),
    "aria_nocache": lambda: AriaNoCacheStore(
        initial_counters=4096, n_buckets=64, platform=PLATFORM
    ),
    "baseline": lambda: EnclaveBaselineStore(n_buckets=64, platform=PLATFORM),
    "plain": lambda: PlainKvStore(n_buckets=64, platform=PLATFORM),
}


@pytest.fixture(params=sorted(FACTORIES), ids=lambda name: name)
def store(request):
    return FACTORIES[request.param]()


class TestCommonBehaviour:
    def test_put_get_roundtrip(self, store):
        store.put(b"k1", b"v1")
        assert store.get(b"k1") == b"v1"

    def test_update(self, store):
        store.put(b"k", b"old")
        store.put(b"k", b"new")
        assert store.get(b"k") == b"new"
        assert len(store) == 1

    def test_update_larger_value(self, store):
        store.put(b"k", b"tiny")
        store.put(b"k", b"a considerably longer replacement value " * 3)
        assert store.get(b"k").startswith(b"a considerably")

    def test_delete(self, store):
        store.put(b"k", b"v")
        store.delete(b"k")
        with pytest.raises(KeyNotFoundError):
            store.get(b"k")

    def test_missing_key(self, store):
        with pytest.raises(KeyNotFoundError):
            store.get(b"missing")

    def test_many_keys(self, store):
        for i in range(300):
            store.put(f"key-{i}".encode(), f"value-{i}".encode())
        for i in range(300):
            assert store.get(f"key-{i}".encode()) == f"value-{i}".encode()
        assert set(store.keys()) == {f"key-{i}".encode() for i in range(300)}

    def test_load_is_unmetered(self, store):
        store.load((f"k{i}".encode(), b"v") for i in range(20))
        assert store.enclave.meter.cycles == 0


class TestShieldStoreSpecifics:
    def test_roots_reserved_in_epc(self):
        store = ShieldStore(n_buckets=128, platform=PLATFORM)
        assert store.epc_report()["shieldstore_roots"] == 128 * 16

    def test_tampered_entry_detected(self):
        store = ShieldStore(n_buckets=4, platform=PLATFORM)
        store.put(b"key", b"value")
        # Flip a ciphertext byte: entry MAC mismatch.
        head_slot = store._bucket_base + store._bucket_slot(b"key")[0] * 8
        addr = int.from_bytes(store.enclave.untrusted.snoop(head_slot, 8),
                              "little")
        offset = addr + 36  # inside the ciphertext (header is 32 bytes)
        byte = store.enclave.untrusted.snoop(offset, 1)[0]
        store.enclave.untrusted.tamper(offset, bytes([byte ^ 1]))
        with pytest.raises(IntegrityError):
            store.get(b"key")

    def test_replayed_entry_detected_by_root(self):
        store = ShieldStore(n_buckets=4, platform=PLATFORM)
        store.put(b"key", b"old-value")
        head_slot = store._bucket_base + store._bucket_slot(b"key")[0] * 8
        addr = int.from_bytes(store.enclave.untrusted.snoop(head_slot, 8),
                              "little")
        size = 32 + len(b"key") + len(b"old-value") + 16
        stale = store.enclave.untrusted.snoop(addr, size)
        store.put(b"key", b"new-value")  # same size: updated in place
        store.enclave.untrusted.tamper(addr, stale)
        with pytest.raises(IntegrityError):
            store.get(b"key")

    def test_cost_scales_with_bucket_length(self):
        # Bucket-granularity verification: one hot key costs more when its
        # bucket is longer (the paper's amplification argument).
        short = ShieldStore(n_buckets=256, platform=PLATFORM)
        long = ShieldStore(n_buckets=2, platform=PLATFORM)
        for store in (short, long):
            store.load((f"key-{i}".encode(), b"v" * 16) for i in range(200))
        for store in (short, long):
            store.enclave.meter.reset()
            for _ in range(50):
                store.get(b"key-0")
        assert long.enclave.meter.cycles > 3 * short.enclave.meter.cycles


class TestAriaNoCacheSpecifics:
    def test_counters_fit_no_paging(self):
        # Counter array smaller than the EPC: zero swaps in steady state.
        store = AriaNoCacheStore(initial_counters=1024, n_buckets=64,
                                 platform=PLATFORM)
        store.load((f"key-{i}".encode(), b"v") for i in range(500))
        store.enclave.meter.reset()
        for i in range(200):
            store.get(f"key-{i}".encode())
        assert store.enclave.meter.events["page_swap"] == 0

    def test_counters_exceed_epc_causes_paging(self):
        # 8-page EPC: the metadata sliver leaves ~6 pages (1536 counters) of
        # residency against 3000 live counters, so the tail must page.
        tiny = SgxPlatform(epc_bytes=8 * PAGE_SIZE)
        store = AriaNoCacheStore(initial_counters=64 * PAGE_SIZE // 16,
                                 n_buckets=512, platform=tiny)
        store.load((f"key-{i:06d}".encode(), b"v") for i in range(3000))
        store.enclave.meter.reset()
        for i in range(0, 3000, 7):
            store.get(f"key-{i:06d}".encode())
        assert store.enclave.meter.events["page_swap"] > 0

    def test_record_tampering_detected(self):
        store = AriaNoCacheStore(initial_counters=256, n_buckets=8,
                                 platform=PLATFORM)
        store.put(b"key", b"value")
        _, entry_addr, _, _, _ = store.index._find(b"key")
        byte = store.enclave.untrusted.snoop(entry_addr + 20, 1)[0]
        store.enclave.untrusted.tamper(entry_addr + 20, bytes([byte ^ 1]))
        with pytest.raises(IntegrityError):
            store.get(b"key")

    def test_btree_variant_works(self):
        store = AriaNoCacheStore(initial_counters=512, index="btree",
                                 btree_order=5, platform=PLATFORM)
        for i in range(100):
            store.put(f"key-{i:04d}".encode(), b"v")
        assert store.get(b"key-0042") == b"v"

    def test_index_name_selects_the_index(self):
        store = AriaNoCacheStore(initial_counters=512, index="bplustree",
                                 btree_order=4, platform=PLATFORM)
        assert isinstance(store.index, AriaBPlusTreeIndex)
        for i in range(40):
            store.put(f"key-{i:04d}".encode(), b"v")
        assert store.index.height > 1
        assert store.get(b"key-0017") == b"v"
        with pytest.raises(ConfigurationError, match="hsah"):
            AriaNoCacheStore(initial_counters=512, index="hsah",
                             platform=PLATFORM)


class TestBaselinePaging:
    def test_small_working_set_no_swaps(self):
        store = EnclaveBaselineStore(n_buckets=64, platform=PLATFORM)
        store.load((f"key-{i}".encode(), b"v" * 16) for i in range(200))
        store.enclave.meter.reset()
        for i in range(200):
            store.get(f"key-{i}".encode())
        assert store.enclave.meter.events["page_swap"] == 0

    def test_oversized_working_set_swaps(self):
        tiny = SgxPlatform(epc_bytes=8 * PAGE_SIZE)
        store = EnclaveBaselineStore(n_buckets=256, platform=tiny)
        store.load((f"key-{i:05d}".encode(), b"v" * 64) for i in range(2000))
        store.enclave.meter.reset()
        for i in range(0, 2000, 11):
            store.get(f"key-{i:05d}".encode())
        assert store.enclave.meter.events["page_swap"] > 0


class TestPlainKv:
    def test_no_crypto_costs(self):
        store = PlainKvStore(n_buckets=64, platform=PLATFORM)
        store.put(b"k", b"v")
        store.get(b"k")
        assert store.enclave.meter.events["mac_bytes"] == 0
        assert store.enclave.meter.events["enc_bytes"] == 0
        assert store.enclave.meter.events["page_swap"] == 0
