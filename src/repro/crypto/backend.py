"""Pluggable crypto backends behind one interface.

Two backends implement the same contract (CTR-style encryption keyed by a
per-item 16-byte counter, and a 16-byte keyed MAC):

``RealCryptoBackend``
    The from-scratch AES-128 primitives (:mod:`repro.crypto.aes`,
    :mod:`repro.crypto.ctr`, :mod:`repro.crypto.cmac`) — byte-for-byte what
    the SGX SDK's ``sgx_aes_ctr_encrypt`` / ``sgx_rijndael128_cmac`` compute.
    Used in crypto unit tests and attack demonstrations.

``FastCryptoBackend``
    Keyed blake2s for the MAC and a hash-derived keystream for encryption:
    one keyed blake2b digest for a plaintext of up to 64 bytes (a KV pair),
    one SHAKE-128 squeeze of ``key | counter`` for anything longer (a
    128 B / 512 B record, a sealed frame, a WAL record, a snapshot).  Either
    way the keystream is **one C call** — no per-block loop in Python — so
    the simulator's wall-clock time is not dominated by pure-Python AES or
    by the interpreter.  These are genuine keyed cryptographic functions
    (tampering still fails verification).  The *simulated* cycle cost
    charged by the enclave is identical for both backends — the cost model
    charges per byte processed, not per wall-clock second.

    The split at 64 bytes is on plaintext length, which the code observes,
    and it stays because each side is measured faster on its own inputs:
    blake2b's fixed 64-byte digest beats the XOF on short plaintexts (SHAKE
    for every length cost ``store_zipf_rd95``, 32-byte plaintexts, 1.4-2.2 %
    in every pair run), and the XOF beats any number of blake2b blocks past
    one (``store_uniform_wr50``, 144-byte plaintexts, 1.07x; ARCHITECTURE
    §18 "The keystream").

Both backends are deterministic given (key, counter, data), which the replay
attack tests rely on.
"""

from __future__ import annotations

import hmac
from hashlib import blake2b, blake2s, shake_128

from repro.crypto import cmac as _cmac
from repro.crypto import ctr as _ctr

MAC_SIZE = 16
COUNTER_SIZE = 16

#: Longest plaintext the fast backend covers with one blake2b digest; a
#: longer one takes its whole keystream from one SHAKE-128 squeeze.
_KEYSTREAM_BLOCK = 64
#: Suffix of the blake2b input: what a short plaintext's keystream has
#: always been derived from, so its ciphertext bytes never moved.
_BLOCK_ZERO = (0).to_bytes(8, "little")


class CryptoBackend:
    """Interface: counter-mode encryption plus a keyed 16-byte MAC."""

    name = "abstract"

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        raise NotImplementedError

    def decrypt(self, key: bytes, counter: bytes, ciphertext: bytes) -> bytes:
        raise NotImplementedError

    def mac(self, key: bytes, message: bytes) -> bytes:
        raise NotImplementedError

    def mac_verify(self, key: bytes, message: bytes, tag: bytes) -> bool:
        return hmac.compare_digest(self.mac(key, message), tag)


class RealCryptoBackend(CryptoBackend):
    """AES-128-CTR + AES-CMAC, exactly the SGX SDK primitives."""

    name = "real"

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        return _ctr.ctr_transform(key, counter, plaintext)

    def decrypt(self, key: bytes, counter: bytes, ciphertext: bytes) -> bytes:
        return _ctr.ctr_transform(key, counter, ciphertext)

    def mac(self, key: bytes, message: bytes) -> bytes:
        return _cmac.cmac(key, message)


class FastCryptoBackend(CryptoBackend):
    """Hash-keystream stream cipher + keyed blake2s MAC (C-speed, still keyed)."""

    name = "fast"

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        if len(counter) != COUNTER_SIZE:
            raise ValueError(f"counter must be {COUNTER_SIZE} bytes")
        length = len(plaintext)
        if length <= _KEYSTREAM_BLOCK:
            # The common case (a KV pair): one keyed digest, truncated.
            keystream = blake2b(counter + _BLOCK_ZERO, key=key,
                                digest_size=_KEYSTREAM_BLOCK).digest()[:length]
        else:
            # Anything longer squeezes its whole keystream out of one XOF.
            keystream = shake_128(key + counter).digest(length)
        # One big-integer XOR instead of a per-byte generator.
        return (int.from_bytes(plaintext, "little")
                ^ int.from_bytes(keystream, "little")).to_bytes(length, "little")

    #: A stream cipher: decryption is the same transform.
    decrypt = encrypt

    def mac(self, key: bytes, message: bytes) -> bytes:
        return blake2s(message, key=key, digest_size=MAC_SIZE).digest()

    def mac_verify(self, key: bytes, message: bytes, tag: bytes) -> bool:
        return hmac.compare_digest(
            blake2s(message, key=key, digest_size=MAC_SIZE).digest(), tag)


_BACKENDS = {
    "real": RealCryptoBackend,
    "fast": FastCryptoBackend,
}


def get_backend(name: str) -> CryptoBackend:
    """Return a backend instance by name (``"real"`` or ``"fast"``)."""
    try:
        return _BACKENDS[name]()
    except KeyError:
        raise ValueError(
            f"unknown crypto backend {name!r}; choose from {sorted(_BACKENDS)}"
        ) from None
