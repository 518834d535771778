"""Backend-interface tests: both backends satisfy the same contract."""

import hashlib
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import FastCryptoBackend, RealCryptoBackend, get_backend
from repro.crypto.keys import KeyMaterial
from repro.server.protocol import MAX_FRAME_BYTES

BACKENDS = [RealCryptoBackend(), FastCryptoBackend()]
KEYS = KeyMaterial.from_seed(42)
COUNTER = (1).to_bytes(16, "little")


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_encrypt_decrypt_roundtrip(backend):
    plaintext = b"key=alpha value=The quick brown fox"
    ciphertext = backend.encrypt(KEYS.encryption_key, COUNTER, plaintext)
    assert ciphertext != plaintext
    assert backend.decrypt(KEYS.encryption_key, COUNTER, ciphertext) == plaintext


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_different_counters_give_different_ciphertexts(backend):
    plaintext = b"0123456789abcdef"
    other_counter = (2).to_bytes(16, "little")
    first = backend.encrypt(KEYS.encryption_key, COUNTER, plaintext)
    second = backend.encrypt(KEYS.encryption_key, other_counter, plaintext)
    assert first != second


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_mac_verify_detects_tampering(backend):
    message = b"record bytes"
    tag = backend.mac(KEYS.mac_key, message)
    assert len(tag) == 16
    assert backend.mac_verify(KEYS.mac_key, message, tag)
    assert not backend.mac_verify(KEYS.mac_key, b"record byteX", tag)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_mac_is_deterministic(backend):
    message = b"determinism matters for replay detection"
    assert backend.mac(KEYS.mac_key, message) == backend.mac(KEYS.mac_key, message)


@pytest.mark.parametrize("backend", BACKENDS, ids=lambda b: b.name)
def test_encryption_is_deterministic_given_counter(backend):
    # CTR with a fixed counter is deterministic; Aria increments the counter
    # before each encryption to get fresh ciphertexts.
    plaintext = b"value"
    first = backend.encrypt(KEYS.encryption_key, COUNTER, plaintext)
    second = backend.encrypt(KEYS.encryption_key, COUNTER, plaintext)
    assert first == second


def test_get_backend_by_name():
    assert get_backend("real").name == "real"
    assert get_backend("fast").name == "fast"
    with pytest.raises(ValueError):
        get_backend("quantum")


def test_fast_backend_rejects_bad_counter():
    with pytest.raises(ValueError):
        FastCryptoBackend().encrypt(KEYS.encryption_key, b"bad", b"data")


def _reference_fast_encrypt(key: bytes, counter: bytes, plaintext: bytes) -> bytes:
    """The fast backend's stream cipher, spelled the slow and obvious way:
    up to 64 bytes the keystream is keyed blake2b(counter | block index 0),
    beyond that SHAKE-128(key | counter) — XORed byte by byte."""
    if len(plaintext) <= 64:
        keystream = hashlib.blake2b(
            counter + (0).to_bytes(8, "little"), key=key, digest_size=64
        ).digest()
    else:
        keystream = hashlib.shake_128(key + counter).digest(len(plaintext))
    return bytes(a ^ b for a, b in zip(plaintext, keystream))


@given(key=st.binary(min_size=16, max_size=16),
       counter=st.binary(min_size=16, max_size=16),
       plaintext=st.binary(min_size=0, max_size=300))
@settings(max_examples=300, deadline=None)
def test_fast_encrypt_is_byte_identical_to_the_reference(key, counter, plaintext):
    backend = FastCryptoBackend()
    ciphertext = backend.encrypt(key, counter, plaintext)
    assert type(ciphertext) is bytes
    assert ciphertext == _reference_fast_encrypt(key, counter, plaintext)
    assert backend.decrypt(key, counter, ciphertext) == plaintext


#: Both sides of the 64-byte split, the old block edges, and the largest
#: plaintext a sealed frame can carry.
BOUNDARY_LENGTHS = [0, 1, 63, 64, 65, 127, 128, 129, 300, 4096, MAX_FRAME_BYTES]
#: The same without the empty plaintext and the 8 MiB one, for the
#: properties that need a byte to differ and gain nothing from size.
KEYSTREAM_LENGTHS = BOUNDARY_LENGTHS[1:-1]


def _pattern(length: int) -> bytes:
    return (bytes(range(256)) * (length // 256 + 1))[:length]


@pytest.mark.parametrize("length", BOUNDARY_LENGTHS)
def test_fast_encrypt_block_boundaries(length):
    plaintext = _pattern(length)
    backend = FastCryptoBackend()
    ciphertext = backend.encrypt(KEYS.encryption_key, COUNTER, plaintext)
    assert ciphertext == _reference_fast_encrypt(
        KEYS.encryption_key, COUNTER, plaintext)
    assert backend.decrypt(KEYS.encryption_key, COUNTER, ciphertext) == plaintext


@pytest.mark.parametrize("length", KEYSTREAM_LENGTHS)
def test_fast_keystream_is_distinct_per_key_and_counter(length):
    """XOR with zeros: ``encrypt`` *is* the keystream.  Another counter or
    another key gives another one, on both sides of the split."""
    backend = FastCryptoBackend()
    zeros = bytes(length)
    other_key = KeyMaterial.from_seed(43).encryption_key
    streams = {
        backend.encrypt(key, counter, zeros)
        for key in (KEYS.encryption_key, other_key)
        for counter in (COUNTER, (2).to_bytes(16, "little"),
                        (1).to_bytes(16, "big"))
    }
    assert len(streams) == 6


@pytest.mark.parametrize("length", KEYSTREAM_LENGTHS)
def test_fast_bit_flip_in_a_long_ciphertext_still_fails_mac_verify(length):
    backend = FastCryptoBackend()
    ciphertext = backend.encrypt(KEYS.encryption_key, COUNTER, _pattern(length))
    tag = backend.mac(KEYS.mac_key, COUNTER + ciphertext)
    assert backend.mac_verify(KEYS.mac_key, COUNTER + ciphertext, tag)
    for bit in (0, length * 4, length * 8 - 1):
        flipped = bytearray(ciphertext)
        flipped[bit >> 3] ^= 1 << (bit & 7)
        assert not backend.mac_verify(
            KEYS.mac_key, COUNTER + bytes(flipped), tag)


def _calls(thunk) -> int:
    """Calls ``thunk`` makes, Python-level and into C alike
    (``sys.setprofile``, no wall clock)."""
    calls = 0

    def profiler(frame, event, arg):
        nonlocal calls
        if event in ("call", "c_call"):
            calls += 1

    sys.setprofile(profiler)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


def test_fast_encrypt_makes_the_same_calls_at_65_bytes_and_64_kib():
    """No per-block loop, as a property: a plaintext a thousand blocks
    longer costs not one more call — not a Python-level one, and not a
    ``copy``/``update``/``digest`` into C per block either."""
    backend = FastCryptoBackend()

    def calls(length):
        plaintext = bytes(length)
        return _calls(
            lambda: backend.encrypt(KEYS.encryption_key, COUNTER, plaintext))

    assert calls(65) == calls(64 << 10)


@pytest.mark.parametrize("bad", [b"", b"x" * 15, b"x" * 17])
def test_fast_backend_rejects_wrong_length_counters(bad):
    backend = FastCryptoBackend()
    with pytest.raises(ValueError):
        backend.encrypt(KEYS.encryption_key, bad, b"data")
    with pytest.raises(ValueError):
        backend.decrypt(KEYS.encryption_key, bad, b"data")


def test_key_material_seed_deterministic_and_random_distinct():
    assert KeyMaterial.from_seed(7) == KeyMaterial.from_seed(7)
    assert KeyMaterial.from_seed(7) != KeyMaterial.from_seed(8)
    assert KeyMaterial.random() != KeyMaterial.random()


def test_key_material_rejects_short_keys():
    with pytest.raises(ValueError):
        KeyMaterial(encryption_key=b"short", mac_key=b"x" * 16)
