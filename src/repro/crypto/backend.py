"""Pluggable crypto backends behind one interface.

Two backends implement the same contract (CTR-style encryption keyed by a
per-item 16-byte counter, and a 16-byte keyed MAC):

``RealCryptoBackend``
    The from-scratch AES-128 primitives (:mod:`repro.crypto.aes`,
    :mod:`repro.crypto.ctr`, :mod:`repro.crypto.cmac`) — byte-for-byte what
    the SGX SDK's ``sgx_aes_ctr_encrypt`` / ``sgx_rijndael128_cmac`` compute.
    Used in crypto unit tests and attack demonstrations.

``FastCryptoBackend``
    Keyed blake2s for the MAC and a blake2b-derived keystream for encryption.
    These are genuine keyed cryptographic functions (tampering still fails
    verification), but run at C speed so the simulator's wall-clock time is
    not dominated by pure-Python AES.  The *simulated* cycle cost charged by
    the enclave is identical for both backends — the cost model charges per
    byte processed, not per wall-clock second.

Both backends are deterministic given (key, counter, data), which the replay
attack tests rely on.
"""

from __future__ import annotations

import hmac
from hashlib import blake2b, blake2s

from repro.crypto import cmac as _cmac
from repro.crypto import ctr as _ctr

MAC_SIZE = 16
COUNTER_SIZE = 16

#: The fast backend's keystream comes in blake2b-sized blocks.
_KEYSTREAM_BLOCK = 64
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
    """blake2-based stream cipher + keyed blake2s MAC (C-speed, still keyed)."""

    name = "fast"

    def _keystream(self, key: bytes, counter: bytes, length: int) -> bytes:
        """``length`` bytes: blake2b(counter | block index) blocks, truncated.
        ``key | counter`` is absorbed once, forked per block: same bytes."""
        prefix = blake2b(counter, key=key, digest_size=_KEYSTREAM_BLOCK)
        blocks = []
        for index in range(-(-length // _KEYSTREAM_BLOCK)):
            block = prefix.copy()
            block.update(index.to_bytes(8, "little"))
            blocks.append(block.digest())
        return b"".join(blocks)[:length]

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        if len(counter) != COUNTER_SIZE:
            raise ValueError(f"counter must be {COUNTER_SIZE} bytes")
        length = len(plaintext)
        if length <= _KEYSTREAM_BLOCK:
            # The common case (a KV pair) needs only block 0.
            keystream = blake2b(counter + _BLOCK_ZERO, key=key,
                                digest_size=_KEYSTREAM_BLOCK).digest()[:length]
        else:
            keystream = self._keystream(key, counter, length)
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
