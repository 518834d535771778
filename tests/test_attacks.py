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


def _tree_store(kind, order, ids):
    store = AriaStore(
        AriaConfig(index=kind, btree_order=order, initial_counters=1 << 10,
                   secure_cache_bytes=1 << 16, pin_levels=1,
                   stop_swap_enabled=False),
        platform=SgxPlatform(epc_bytes=16 << 20),
    )
    for i in ids:
        store.put(f"key-{i:04d}".encode(), f"value-{i}".encode())
    return store


TREES = pytest.mark.parametrize("kind, order",
                                [("btree", 5), ("bplustree", 4)],
                                ids=["btree", "bplustree"])


class TestBTreeAttacks:
    @pytest.fixture
    def tree_store(self):
        return _tree_store("btree", 5, range(60))

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

    @TREES
    def test_truncated_descent_detected(self, kind, order):
        # Null out a child pointer: descents through it must raise.
        from repro.attacks.primitives import UntrustedAttacker
        from repro.errors import DeletionError, IntegrityError

        tree_store = _tree_store(kind, order, range(60))
        index = tree_store.index
        root = index._read_node(index._root)
        child_slot = root.addr + index.HEADER + index._max_keys * 8
        attacker = UntrustedAttacker(tree_store.enclave.untrusted)
        attacker.write(child_slot, (0).to_bytes(8, "little"))
        with pytest.raises((DeletionError, IntegrityError)):
            tree_store.get(b"key-0000")

    @TREES
    def test_miss_at_wrong_height_is_a_deletion(self, kind, order):
        # Skip a level: the root's first child pointer now names its own
        # grandchild.  Every record there is still bound to its node, so the
        # descent verifies; only the enclave-held height can tell.
        from repro.attacks.primitives import UntrustedAttacker
        from repro.errors import DeletionError

        tree_store = _tree_store(kind, order, range(0, 120, 2))
        index = tree_store.index
        assert index.height == 4
        root = index._read_node(index._root)
        grandchild = index._read_node(root.children[0]).children[0]
        child_slot = root.addr + index.HEADER + index._max_keys * 8
        UntrustedAttacker(tree_store.enclave.untrusted).write(
            child_slot, grandchild.to_bytes(8, "little"))
        with pytest.raises(DeletionError, match="traversed 3 nodes"):
            tree_store.get(b"key-0001")

    @TREES
    def test_overfull_node_header_detected(self, kind, order):
        from repro.attacks.primitives import UntrustedAttacker
        from repro.errors import DeletionError

        tree_store = _tree_store(kind, order, range(60))
        index = tree_store.index
        UntrustedAttacker(tree_store.enclave.untrusted).write(
            index._root + 1, (index._max_keys + 1).to_bytes(2, "little"))
        with pytest.raises(DeletionError, match="corrupted"):
            tree_store.get(b"key-0000")

    @TREES
    @pytest.mark.parametrize("walk", ["keys", "range_scan", "audit"])
    def test_in_leaf_swap_breaks_every_walk(self, kind, order, walk):
        # Swap the first two entry pointers of the first leaf: both records
        # stay bound to their node, so every MAC verifies; only the walk's
        # key order can tell.
        from repro.attacks.primitives import UntrustedAttacker
        from repro.errors import DeletionError

        tree_store = _tree_store(kind, order, range(60))
        index = tree_store.index
        leaf = index._read_node(index._root)
        while not leaf.is_leaf:
            leaf = index._read_node(leaf.children[0])
        slot = leaf.addr + index.HEADER
        UntrustedAttacker(tree_store.enclave.untrusted).swap(slot, slot + 8, 8)
        walks = {
            "keys": lambda: list(tree_store.keys()),
            "range_scan": lambda: tree_store.range_scan(b"key-0000",
                                                        b"key-0010"),
            "audit": index.audit,
        }
        with pytest.raises(DeletionError, match="out of order"):
            walks[walk]()
