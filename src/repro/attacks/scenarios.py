"""End-to-end attack scenarios against an AriaStore.

Each scenario stages exactly the attack the paper discusses and reports
whether Aria detected it.  The attacker only ever writes untrusted memory
(via :class:`UntrustedAttacker`); locating the bytes to corrupt uses
white-box knowledge of the layout, which a real adversary obtains by
watching access patterns — the paper itself concedes key-access frequencies
and hashed-key distributions leak (Section VII).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.attacks.primitives import UntrustedAttacker
from repro.core.store import AriaStore
from repro.errors import AriaError, DeletionError, IntegrityError
from repro.index.hashtable import AriaHashIndex


@dataclass
class AttackOutcome:
    """What happened when the victim next touched the corrupted state."""

    detected: bool
    error: str = ""

    @classmethod
    def run(cls, operation) -> "AttackOutcome":
        try:
            operation()
        except (IntegrityError, DeletionError) as exc:
            # A genuine alarm: the store noticed tampering.
            return cls(detected=True, error=f"{type(exc).__name__}: {exc}")
        except AriaError as exc:
            # Any other error (e.g. KeyNotFoundError) is NOT detection: the
            # store silently gave a wrong answer about its own contents.
            return cls(detected=False, error=f"{type(exc).__name__}: {exc}")
        return cls(detected=False)


def _hash_index(store: AriaStore) -> AriaHashIndex:
    if not isinstance(store.index, AriaHashIndex):
        raise TypeError("this scenario targets the hash index (Aria-H)")
    return store.index


def _entry_addr(store: AriaStore, key: bytes) -> int:
    index = _hash_index(store)
    _, entry_addr, _, _, _ = index._find(key)
    return entry_addr


def corrupt_record_in_place(store: AriaStore, key: bytes) -> None:
    """Flip a ciphertext bit of ``key``'s record — and stop there.

    The positioning (index walk to find the entry) runs unmetered: it is
    the *attacker's* work, not the victim's.  Unlike the scenario
    functions this does not drive the victim operation; the cluster fault
    injector uses it to plant corruption that a later, ordinary request
    trips over (surfacing as ``STATUS_INTEGRITY_FAILURE``).

    ``store`` is a local store: a remote enclave's untrusted memory lives
    in its worker or host, where ``ShardHandle.plant_corruption`` runs.
    """
    from repro.sgx.meter import MeterPause

    with MeterPause(store.enclave.meter):
        entry_addr = _entry_addr(store, key)
    attacker = UntrustedAttacker(store.enclave.untrusted)
    attacker.flip_bit(entry_addr + 12 + 8)  # inside the ciphertext


def plant_corruption(store: AriaStore, key: bytes = b"") -> bool:
    """Flip a ciphertext bit of one record in ``store``'s untrusted memory.

    The whole plant — victim selection (unmetered: it is the attacker's
    work) plus the bit flip — runs against the *real* store, so it must
    execute wherever the enclave lives: ``ShardHandle.plant_corruption``
    calls it directly, remote handles run it beside the enclave via the
    ``plant_corruption`` RPC.  Returns whether a corruption landed (an
    empty store, a vanished key, or a previously-tripped alarm all mean
    there was nothing to tamper with).
    """
    from repro.sgx.meter import MeterPause

    if len(store) == 0:
        return False
    try:
        with MeterPause(store.enclave.meter):
            victim = key or next(iter(store.keys()))
        corrupt_record_in_place(store, victim)
    except AriaError:
        return False
    return True


def tamper_record_body(store: AriaStore, key: bytes) -> AttackOutcome:
    """Flip one ciphertext bit of a record; the next Get must detect it."""
    entry_addr = _entry_addr(store, key)
    attacker = UntrustedAttacker(store.enclave.untrusted)
    attacker.flip_bit(entry_addr + 12 + 8)  # inside the ciphertext
    return AttackOutcome.run(lambda: store.get(key))


def replay_stale_record(store: AriaStore, key: bytes,
                        new_value: bytes) -> AttackOutcome:
    """Capture a record, let the owner update it, then restore the old bytes.

    Without the Merkle tree over the counters this would succeed: the stale
    record carries a valid MAC for its stale counter.  Freshness (Section II-C)
    is exactly what the replayed state violates.
    """
    index = _hash_index(store)
    entry_addr = _entry_addr(store, key)
    _, _, _, blob, _ = index._find(key)
    attacker = UntrustedAttacker(store.enclave.untrusted)
    stale = attacker.snapshot(entry_addr, 12 + len(blob))
    store.put(key, new_value)  # legitimate update (same size -> in place)
    attacker.replay(entry_addr, stale)
    return AttackOutcome.run(lambda: store.get(key))


def swap_slot_pointers(store: AriaStore, key_a: bytes,
                       key_b: bytes) -> AttackOutcome:
    """Fig 7: exchange two bucket head pointers without touching records."""
    index = _hash_index(store)
    bucket_a, slot_a, _ = index._bucket_slot(key_a)
    bucket_b, slot_b, _ = index._bucket_slot(key_b)
    if bucket_a == bucket_b:
        raise ValueError("pick keys that land in different buckets")
    attacker = UntrustedAttacker(store.enclave.untrusted)
    attacker.swap(slot_a, slot_b, 8)
    return AttackOutcome.run(lambda: store.get(key_a))


def unauthorized_delete(store: AriaStore, key: bytes) -> AttackOutcome:
    """Clear the slot pointing at a key's entry, hiding it from lookups.

    The per-bucket entry count in the EPC (Section V-C) notices that the chain is
    shorter than it should be.
    """
    index = _hash_index(store)
    _, slot_addr, _ = index._bucket_slot(key)
    attacker = UntrustedAttacker(store.enclave.untrusted)
    attacker.write(slot_addr, (0).to_bytes(8, "little"))
    return AttackOutcome.run(lambda: store.get(key))


def tamper_merkle_node(store: AriaStore, counter_id: int = 0) -> AttackOutcome:
    """Corrupt a Merkle leaf in untrusted memory; verification must fail.

    Only meaningful for counters that are not currently cached or pinned —
    EPC-resident copies are authoritative and never re-read from untrusted
    memory.
    """
    area = store.counters.areas[0]
    leaf_index, _ = area.tree.layout.counter_slot(counter_id)
    attacker = UntrustedAttacker(store.enclave.untrusted)
    attacker.flip_bit(area.tree.node_addr(0, leaf_index))
    return AttackOutcome.run(
        lambda: area.cache._verified_node_bytes(0, leaf_index)
    )


def snoop_learns_only_ciphertext(store: AriaStore, key: bytes,
                                 value: bytes) -> bool:
    """Confidentiality check: plaintext never appears in untrusted memory."""
    entry_addr = _entry_addr(store, key)
    attacker = UntrustedAttacker(store.enclave.untrusted)
    observed = attacker.read(entry_addr, 12 + 12 + len(key) + len(value) + 16)
    return key not in observed and value not in observed
