#!/usr/bin/env python3
"""Scenario: the enclave restarts — recover the store, catch the saboteur.

Enclave memory is volatile: a crash, upgrade, or host reboot wipes Aria's
trust anchors (Merkle roots, bitmaps, counts).  ``repro.persist`` keeps a
store across that: every acked write lands in a sealed, chained WAL on the
untrusted disk, next to a sealed snapshot, and both are bound to a
monotonic counter the host cannot rewind.  This example runs a 1-shard
durable cluster and:

1. "restarts" it — a new coordinator and enclave over the same data
   directory — and proves the 500 accounts are intact and writable,
2. flips one byte of the sealed snapshot while the store is down, and
   shows the restart refusing it,
3. copies an old snapshot/log pair back over the current counter — the
   full-state rollback that sealing alone cannot see — and shows the
   restart refusing that too.

Run:  python examples/restart_recovery.py
"""

import shutil
import tempfile
from pathlib import Path

from repro.cluster import ClusterConfig, DurabilityConfig
from repro.errors import IntegrityError, RollbackDetectedError

N_ACCOUNTS = 500
STALE_FILES = ("shard-0.snap", "shard-0.log")


def build(data_dir: Path):
    """Build the store, restoring whatever ``data_dir`` holds.

    ``epoch_every=1`` binds the counter on every acked batch, so any older
    snapshot/log pair is stale; a larger value batches the binding and
    leaves that many batches inside one epoch.
    """
    return ClusterConfig(
        n_shards=1, n_keys=4 * N_ACCOUNTS, scale=2048,
        durability=DurabilityConfig(data_dir=str(data_dir),
                                    epoch_every=1)).build()


def refused(data_dir: Path, expected: type) -> str:
    try:
        build(data_dir).close()
    except expected as exc:
        return f"{type(exc).__name__}: {exc}"
    raise SystemExit("the restart was not refused — this is a bug")


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        data_dir = Path(tmp) / "data"

        # -- clean restart -----------------------------------------------------
        store = build(data_dir)
        store.load([(f"account-{i:04d}".encode(),
                     f"balance={i * 10}".encode()) for i in range(N_ACCOUNTS)])
        store.close()
        on_disk = sum(p.stat().st_size for p in data_dir.iterdir())
        print(f"sealed snapshot + WAL + counter: {on_disk:,} bytes on disk")

        revived = build(data_dir)
        restored = revived.durability_restored["shard-0"]
        assert len(restored.pairs) == N_ACCOUNTS
        assert revived.get(b"account-0042") == b"balance=420"
        revived.put(b"account-0042", b"balance=999")
        assert revived.get(b"account-0042") == b"balance=999"
        revived.close()
        print(f"clean restart: {N_ACCOUNTS} accounts recovered and writable "
              f"(epoch {restored.epoch}, {restored.batches_replayed} WAL "
              "batch(es) replayed)")

        # The attacker keeps today's files for later.
        stale = Path(tmp) / "stale"
        stale.mkdir()
        for name in STALE_FILES:
            shutil.copy(data_dir / name, stale / name)
        store = build(data_dir)
        store.put(b"account-0042", b"balance=0")  # the newer, real state
        store.close()

        # -- a flipped byte of the sealed snapshot ------------------------------
        snap = data_dir / "shard-0.snap"
        good = snap.read_bytes()
        flipped = bytearray(good)
        flipped[40] ^= 0x01
        snap.write_bytes(bytes(flipped))
        print("\nattacker flipped one snapshot byte while the store was "
              "down...")
        print(f"restart refused: {refused(data_dir, IntegrityError)}")
        snap.write_bytes(good)

        # -- rollback: an old, validly sealed pair put back ---------------------
        for name in STALE_FILES:
            shutil.copy(stale / name, data_dir / name)
        print("\nattacker put back yesterday's snapshot and log "
              "(balance=999, not 0)...")
        print(f"restart refused: {refused(data_dir, RollbackDetectedError)}")


if __name__ == "__main__":
    main()
