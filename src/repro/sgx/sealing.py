"""SGX-style sealing: protecting enclave state across restarts (extension).

An enclave's memory — including Aria's Merkle roots, bitmaps and cursors —
vanishes when the enclave (or machine) restarts, while untrusted memory can
survive.  Real SGX solves this with *sealing*: `EGETKEY` derives a key bound
to the CPU and the enclave's identity (MRENCLAVE), and state encrypted+MACed
under it can only be recovered by the same enclave on the same platform.

This module models that: the sealing key is derived deterministically from
the enclave's session keys (our stand-in for platform+identity), and sealed
blobs are AES-CTR-encrypted with a random nonce and CMAC-authenticated.

Sealing alone gives confidentiality and integrity but **not freshness**: an
attacker who keeps an old sealed blob can hand it back later, and it still
unseals.  Rollback protection is layered on top, exactly as real deployments
do it:
:mod:`repro.persist` binds every sealed snapshot and log epoch to a
non-volatile monotonic counter (:mod:`repro.sgx.monotonic`), so replaying a
stale-but-validly-sealed copy fails recovery with a typed
:class:`~repro.errors.RollbackDetectedError` instead of going undetected.
"""

from __future__ import annotations

import hashlib
import os

from repro.crypto.backend import CryptoBackend
from repro.crypto.keys import KeyMaterial
from repro.errors import IntegrityError

_NONCE_SIZE = 16
_MAC_SIZE = 16
_MAGIC = b"SEAL"


def derive_sealing_key(keys: KeyMaterial) -> bytes:
    """The EGETKEY model: a key only this enclave identity can re-derive."""
    return hashlib.blake2b(
        keys.encryption_key + keys.mac_key,
        key=b"repro-sealing-v1",
        digest_size=16,
    ).digest()


def seal(backend: CryptoBackend, sealing_key: bytes, payload: bytes) -> bytes:
    """Encrypt and authenticate ``payload``; returns the sealed blob."""
    nonce = os.urandom(_NONCE_SIZE)
    ciphertext = backend.encrypt(sealing_key, nonce, payload)
    mac = backend.mac(sealing_key, _MAGIC + nonce + ciphertext)
    return _MAGIC + nonce + ciphertext + mac


def unseal(backend: CryptoBackend, sealing_key: bytes, blob: bytes) -> bytes:
    """Verify and decrypt a sealed blob; raises IntegrityError on tampering."""
    if len(blob) < len(_MAGIC) + _NONCE_SIZE + _MAC_SIZE or \
            blob[: len(_MAGIC)] != _MAGIC:
        raise IntegrityError("not a sealed blob")
    nonce = blob[len(_MAGIC) : len(_MAGIC) + _NONCE_SIZE]
    ciphertext = blob[len(_MAGIC) + _NONCE_SIZE : -_MAC_SIZE]
    mac = blob[-_MAC_SIZE:]
    if not backend.mac_verify(sealing_key, blob[:-_MAC_SIZE], mac):
        raise IntegrityError("sealed blob failed authentication")
    return backend.decrypt(sealing_key, nonce, ciphertext)
