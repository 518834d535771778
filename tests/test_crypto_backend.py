"""Backend-interface tests: both backends satisfy the same contract."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.backend import FastCryptoBackend, RealCryptoBackend, get_backend
from repro.crypto.keys import KeyMaterial

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
    blake2b(counter | block index) keystream blocks, XORed byte by byte."""
    keystream = b""
    index = 0
    while len(keystream) < len(plaintext):
        keystream += hashlib.blake2b(
            counter + index.to_bytes(8, "little"), key=key, digest_size=64
        ).digest()
        index += 1
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


@pytest.mark.parametrize("length", [0, 1, 63, 64, 65, 127, 128, 129, 300])
def test_fast_encrypt_block_boundaries(length):
    plaintext = bytes(range(256)) * 2
    plaintext = plaintext[:length]
    assert FastCryptoBackend().encrypt(
        KEYS.encryption_key, COUNTER, plaintext
    ) == _reference_fast_encrypt(KEYS.encryption_key, COUNTER, plaintext)


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
