"""Attack scenarios: every attack the paper discusses must be detected."""

import pytest

from repro.attacks import (
    replay_stale_record,
    snoop_learns_only_ciphertext,
    swap_slot_pointers,
    tamper_merkle_node,
    tamper_record_body,
    unauthorized_delete,
)
from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.errors import IntegrityError
from repro.sgx.costs import SgxPlatform


@pytest.fixture
def store():
    store = AriaStore(
        AriaConfig(index="hash", n_buckets=32, initial_counters=1 << 10,
                   secure_cache_bytes=1 << 16, pin_levels=1,
                   stop_swap_enabled=False),
        platform=SgxPlatform(epc_bytes=16 << 20),
    )
    for i in range(100):
        store.put(f"key-{i:04d}".encode(), f"value-{i}".encode())
    return store


def test_record_tampering_detected(store):
    outcome = tamper_record_body(store, b"key-0042")
    assert outcome.detected
    assert "IntegrityError" in outcome.error


def test_record_tampering_raises_require_macs_error(store):
    """``RecordCodec.open`` checks the MAC inline; its error is the one
    ``Enclave.require_mac`` raises for a KV record."""
    outcome = tamper_record_body(store, b"key-0042")
    with pytest.raises(IntegrityError) as expected:
        store.enclave.require_mac(b"message", bytes(16), "KV record")
    assert outcome.error == f"IntegrityError: {expected.value}"


def test_record_replay_detected(store):
    outcome = replay_stale_record(store, b"key-0042", b"value-X!")
    assert outcome.detected


def test_slot_pointer_swap_detected(store):
    # Fig 7: exchanging two bucket pointers must not go unnoticed.
    outcome = swap_slot_pointers(store, b"key-0001", b"key-0002")
    assert outcome.detected


def test_unauthorized_deletion_detected(store):
    outcome = unauthorized_delete(store, b"key-0007")
    assert outcome.detected
    assert "Deletion" in outcome.error or "Integrity" in outcome.error


def test_merkle_node_tampering_detected(store):
    # Pick an uncached counter so the verification actually re-reads
    # untrusted memory: counters beyond the loaded keys are untouched.
    outcome = tamper_merkle_node(store, counter_id=900)
    assert outcome.detected


def test_confidentiality_of_records(store):
    assert snoop_learns_only_ciphertext(store, b"key-0042", b"value-42")


def test_honest_reads_still_work_elsewhere(store):
    # An attack on one key must not break unrelated keys.
    tamper_record_body(store, b"key-0042")
    assert store.get(b"key-0050") == b"value-50"


def test_scenarios_reject_wrong_index():
    tree_store = AriaStore(
        AriaConfig(index="btree", initial_counters=256,
                   secure_cache_bytes=1 << 16, pin_levels=1),
        platform=SgxPlatform(epc_bytes=16 << 20),
    )
    tree_store.put(b"a", b"1")
    with pytest.raises(TypeError):
        unauthorized_delete(tree_store, b"a")


class TestBTreeAttacks:
    @pytest.fixture
    def tree_store(self):
        store = AriaStore(
            AriaConfig(index="btree", btree_order=5, initial_counters=1 << 10,
                       secure_cache_bytes=1 << 16, pin_levels=1,
                       stop_swap_enabled=False),
            platform=SgxPlatform(epc_bytes=16 << 20),
        )
        for i in range(60):
            store.put(f"key-{i:04d}".encode(), f"value-{i}".encode())
        return store

    def test_cross_node_entry_swap_detected(self, tree_store):
        # Swap record pointers between the root and a leaf: both records are
        # then anchored to the wrong node, so their MACs fail.
        from repro.attacks.primitives import UntrustedAttacker
        from repro.errors import IntegrityError

        index = tree_store.index
        root = index._read_node(index._root)
        assert not root.is_leaf
        leaf = index._read_node(root.children[0])
        while not leaf.is_leaf:
            leaf = index._read_node(leaf.children[0])
        attacker = UntrustedAttacker(tree_store.enclave.untrusted)
        # Entry slot 0 of root sits at root.addr + 8; same for the leaf.
        attacker.swap(root.addr + 8, leaf.addr + 8, 8)
        with pytest.raises(IntegrityError):
            for key in tree_store.keys():
                pass

    def test_truncated_descent_detected(self, tree_store):
        # Null out a child pointer: descents through it must raise.
        from repro.attacks.primitives import UntrustedAttacker
        from repro.errors import DeletionError, IntegrityError

        index = tree_store.index
        root = index._read_node(index._root)
        child_slot = root.addr + 8 + index._max_keys * 8  # children[0]
        attacker = UntrustedAttacker(tree_store.enclave.untrusted)
        attacker.write(child_slot, (0).to_bytes(8, "little"))
        with pytest.raises((DeletionError, IntegrityError)):
            tree_store.get(b"key-0000")
