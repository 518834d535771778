"""Enclave restart recovery: seal trusted state, restore over surviving
untrusted memory (extension — the paper does not cover restarts).

The problem: all of Aria's *trusted* state — Merkle roots, occupancy
bitmaps, free-ring cursors, per-bucket counts, allocator bitmaps — lives in
the EPC and is lost when the enclave restarts, while the KV data in
untrusted memory survives.  Without a recovery path the surviving data is
unverifiable (no root of trust) and must be discarded.

The solution mirrors real SGX deployments:

* :func:`seal_store` first flushes every Secure Cache so the untrusted tree
  is self-consistent, then captures the trusted state and seals it under
  the enclave's sealing key (:mod:`repro.sgx.sealing`).
* :func:`restore_store` builds a fresh enclave **around the surviving
  untrusted memory**, unseals the state, and reconstructs every component.
  Pinning re-verifies the Merkle path against the sealed roots, so any
  tampering with untrusted memory *during the downtime* is detected the
  moment it is touched.

What this does NOT give (faithfully): rollback protection.  An attacker who
snapshots the sealed blob *together with* all of untrusted memory can
restore that consistent pair wholesale; defeating that needs a monotonic
counter outside the attacker's control (SGX provides one; modeling it is
out of scope and demonstrated in ``tests/test_sealing.py``).
"""

from __future__ import annotations

import json
from dataclasses import asdict
from typing import Optional

from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.crypto.keys import KeyMaterial
from repro.errors import IntegrityError
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.memory import UntrustedMemory
from repro.sgx.sealing import derive_sealing_key, seal, unseal

_STATE_VERSION = 1


def capture_store_state(store: AriaStore) -> dict:
    """Flush caches and snapshot every piece of trusted state."""
    for area in store.counters.areas:
        area.cache.flush_to_untrusted()
    return {
        "version": _STATE_VERSION,
        "config": asdict(store.config),
        "areas": store.counters.capture_state(),
        "area_cache_bytes": [
            area.cache._capacity_bytes for area in store.counters.areas
        ],
        "allocator": store.allocator.capture_state(),
        "index": store.index.capture_state(),
    }


def seal_store(store: AriaStore) -> bytes:
    """Serialize + seal the store's trusted state for an enclave shutdown."""
    payload = json.dumps(capture_store_state(store)).encode()
    key = derive_sealing_key(store.enclave.keys)
    return seal(store.enclave.crypto, key, payload)


def restore_store(
    sealed_blob: bytes,
    untrusted: UntrustedMemory,
    *,
    seed: int = 0,
    platform: Optional[SgxPlatform] = None,
) -> AriaStore:
    """Rebuild an AriaStore from a sealed blob + surviving untrusted memory.

    ``seed`` is the enclave identity (a real enclave derives exactly one
    sealing key from hardware; the simulator's identity is the config seed,
    supplied by the operator out of band).  Raises
    :class:`IntegrityError` if the blob was tampered with or sealed by a
    different identity; Merkle verification catches tampering with the
    untrusted memory itself as it is touched during reconstruction.
    """
    platform = platform or SgxPlatform()
    keys = KeyMaterial.from_seed(seed)
    probe = Enclave(platform, keys=keys, untrusted=untrusted)
    payload = unseal(probe.crypto, derive_sealing_key(keys), sealed_blob)
    state = json.loads(payload)
    if state.get("version") != _STATE_VERSION:
        raise IntegrityError("sealed state version mismatch")

    config = AriaConfig(**state["config"])
    if config.seed != seed:
        raise IntegrityError("sealed state does not match this identity")
    enclave = Enclave(
        platform,
        keys=keys,
        crypto_backend=config.crypto_backend,
        untrusted=untrusted,
    )
    return AriaStore(config, enclave=enclave, sealed=state)
