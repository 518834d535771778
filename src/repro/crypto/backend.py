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

    Each key's schedule is absorbed once, by the key's owner.  An owner that
    uses one key for its whole life (an enclave, a session, a durable
    partition's log) holds ``backend.prepare(key)``: for this backend a
    :class:`PreparedKey`, still the key's bytes, carrying a blake2s MAC
    state and a blake2b short-keystream state that have absorbed only the
    key.  ``mac``, ``mac_verify`` and a <= 64-byte ``encrypt`` copy that
    state and feed it the message, so every tag and ciphertext is
    byte-identical to what the one-shot keyed constructor gives; a bare
    key is absorbed for that one use.  A prepared state is only ever
    copied, never updated, so threads may share it.  The backend itself
    keeps no per-key state: a key's schedule lives and dies with its
    owner.  The SHAKE-128 side is unchanged: its key and counter fit in
    one block either way.

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

    def prepare(self, key: bytes) -> bytes:
        """What the owner of ``key`` holds and passes as ``key`` on every use.

        The key itself here; the fast backend's also carries the key's
        absorbed schedule (:class:`PreparedKey`).
        """
        return key


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

    def prepare(self, key: bytes) -> PreparedKey:
        return PreparedKey(key)

    def encrypt(self, key: bytes, counter: bytes, plaintext: bytes) -> bytes:
        if len(counter) != COUNTER_SIZE:
            raise ValueError(f"counter must be {COUNTER_SIZE} bytes")
        length = len(plaintext)
        if length <= _KEYSTREAM_BLOCK:
            # The common case (a KV pair): one keyed digest, truncated.
            try:
                state = key.stream_state.copy()
            except AttributeError:  # a bare key, absorbed for this use
                state = _stream_schedule(key)
            state.update(counter + _BLOCK_ZERO)
            keystream = state.digest()[:length]
        else:
            # Anything longer squeezes its whole keystream out of one XOF.
            keystream = shake_128(key + counter).digest(length)
        # One big-integer XOR instead of a per-byte generator.
        return (int.from_bytes(plaintext, "little")
                ^ int.from_bytes(keystream, "little")).to_bytes(length, "little")

    #: A stream cipher: decryption is the same transform.
    decrypt = encrypt

    def mac(self, key: bytes, message: bytes) -> bytes:
        try:
            state = key.mac_state.copy()
        except AttributeError:  # a bare key, absorbed for this use
            state = _mac_schedule(key)
        state.update(message)
        return state.digest()

    def mac_verify(self, key: bytes, message: bytes, tag: bytes) -> bool:
        try:
            state = key.mac_state.copy()
        except AttributeError:  # a bare key, absorbed for this use
            state = _mac_schedule(key)
        state.update(message)
        return hmac.compare_digest(state.digest(), tag)


def _mac_schedule(key: bytes):
    """A blake2s MAC state that has absorbed only ``key``."""
    return blake2s(key=key, digest_size=MAC_SIZE)


def _stream_schedule(key: bytes):
    """A blake2b short-keystream state that has absorbed only ``key``."""
    return blake2b(key=key, digest_size=_KEYSTREAM_BLOCK)


class PreparedKey(bytes):
    """A fast-backend key whose BLAKE2 schedules are absorbed once.

    Still the key's bytes, so the SHAKE-128 side, the real backend and
    every comparison read it as the key.  ``mac_state`` and
    ``stream_state`` are only ever copied, never updated.  Pickles as the
    bare key; unpickling prepares it again.
    """

    def __new__(cls, key: bytes) -> PreparedKey:
        self = super().__new__(cls, key)
        self.mac_state = _mac_schedule(key)
        self.stream_state = _stream_schedule(key)
        return self

    def __reduce__(self):
        return PreparedKey, (bytes(self),)


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
