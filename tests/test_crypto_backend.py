"""Backend-interface tests: both backends satisfy the same contract."""

import hashlib
import pickle
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto import backend as backend_module
from repro.crypto.backend import (
    FastCryptoBackend,
    PreparedKey,
    RealCryptoBackend,
    get_backend,
)
from repro.cluster.session import SecureSession
from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.crypto.keys import KeyMaterial
from repro.server.protocol import MAX_FRAME_BYTES
from repro.sgx.costs import CostModel, SgxPlatform
from repro.sgx.meter import CycleMeter

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


# -- the key schedule: absorbed once, by the key's owner, only ever copied ---


@given(uses=st.lists(
    st.tuples(st.integers(0, 3), st.booleans(),
              st.binary(min_size=0, max_size=300)),
    min_size=1, max_size=12),
    keys=st.lists(st.binary(min_size=0, max_size=32), min_size=4,
                  max_size=4))
@settings(max_examples=200, deadline=None)
def test_prepared_mac_is_the_one_shot_keyed_blake2s(uses, keys):
    """Interleaved keys on one backend, prepared and bare: each tag is what
    the one-shot keyed constructor gives, ``mac_verify`` accepts exactly
    that tag, and each ciphertext is the reference cipher's."""
    backend = FastCryptoBackend()
    prepared = [backend.prepare(key) for key in keys]
    for which, bare, message in uses:
        key = keys[which] if bare else prepared[which]
        expected = hashlib.blake2s(
            message, key=keys[which], digest_size=16).digest()
        assert backend.mac(key, message) == expected
        assert backend.mac_verify(key, message, expected)
        assert not backend.mac_verify(
            key, message, bytes(b ^ 1 for b in expected))
        assert backend.encrypt(key, COUNTER, message) == \
            _reference_fast_encrypt(keys[which], COUNTER, message)


def test_a_thousand_keys_leave_no_state_on_the_backend():
    backend = FastCryptoBackend()
    message = b"a KV record's MAC input"
    counter = (7).to_bytes(16, "little")
    for i in range(1000):
        key = i.to_bytes(16, "little")
        for form in (key, backend.prepare(key)):
            assert backend.mac(form, message) == hashlib.blake2s(
                message, key=key, digest_size=16).digest()
            assert backend.encrypt(form, counter, message) == \
                _reference_fast_encrypt(key, counter, message)
    assert vars(backend) == {}


def test_a_prepared_state_is_never_updated():
    backend = FastCryptoBackend()
    mac_key = backend.prepare(KEYS.mac_key)
    encryption_key = backend.prepare(KEYS.encryption_key)
    mac_state, stream_state = mac_key.mac_state, encryption_key.stream_state
    before = mac_state.digest(), stream_state.digest()
    for i in range(100):
        message = b"use %d" % i
        tag = backend.mac(mac_key, message)
        assert backend.mac_verify(mac_key, message, tag)
        ciphertext = backend.encrypt(encryption_key, COUNTER, message)
        assert backend.decrypt(encryption_key, COUNTER,
                               ciphertext) == message
    assert mac_key.mac_state is mac_state
    assert encryption_key.stream_state is stream_state
    assert (mac_state.digest(), stream_state.digest()) == before


def test_a_prepared_key_is_the_key():
    key = KEYS.encryption_key
    prepared = FastCryptoBackend().prepare(key)
    assert isinstance(prepared, PreparedKey) and prepared == key
    # The > 64-byte side and the real backend read it as the key's bytes.
    long = b"x" * 300
    assert FastCryptoBackend().encrypt(prepared, COUNTER, long) == \
        _reference_fast_encrypt(key, COUNTER, long)
    assert RealCryptoBackend().encrypt(prepared, COUNTER, long) == \
        RealCryptoBackend().encrypt(key, COUNTER, long)
    assert RealCryptoBackend().prepare(key) is key
    # It pickles as the bare key and comes back prepared.
    copy = pickle.loads(pickle.dumps(prepared))
    assert isinstance(copy, PreparedKey) and copy == key
    assert FastCryptoBackend().mac(copy, b"m") == \
        FastCryptoBackend().mac(key, b"m")


@pytest.fixture
def schedules(monkeypatch):
    """Count every key absorption the fast backend makes."""
    counts = {"absorbed": 0}

    def counted(make):
        def absorb(key):
            counts["absorbed"] += 1
            return make(key)
        return absorb

    for name in ("_mac_schedule", "_stream_schedule"):
        monkeypatch.setattr(backend_module, name,
                            counted(getattr(backend_module, name)))
    return counts


def test_forty_interleaved_sessions_absorb_no_key_per_frame(schedules):
    """Every session owns its keys' schedules from construction, so a door
    whose sessions interleave absorbs no key on any frame."""
    crypto = FastCryptoBackend()
    pairs = []
    for i in range(40):
        c2s = KeyMaterial.from_seed(2 * i)
        s2c = KeyMaterial.from_seed(2 * i + 1)
        pairs.append(tuple(
            SecureSession(i, send_keys=send, recv_keys=recv, crypto=crypto,
                          costs=CostModel(), meter=CycleMeter(),
                          from_server=from_server)
            for send, recv, from_server in ((c2s, s2c, False),
                                            (s2c, c2s, True))))
    assert schedules["absorbed"] == 40 * 2 * 4 * 2
    schedules["absorbed"] = 0
    for round_ in range(5):
        for client, server in pairs:
            request = b"request %d" % round_
            assert server.open(client.seal(request)) == request
            reply = b"reply %d" % round_ * 20  # past the 64-byte split
            assert client.open(server.seal(reply)) == reply
    assert schedules["absorbed"] == 0
    assert vars(crypto) == {}


def test_store_ops_absorb_no_key(schedules):
    store = AriaStore(AriaConfig(index="hash", n_buckets=32,
                                 initial_counters=1 << 10,
                                 secure_cache_bytes=1 << 16),
                      platform=SgxPlatform(epc_bytes=16 << 20))
    schedules["absorbed"] = 0
    for i in range(50):
        store.put(b"key-%d" % i, b"value-%d" % i)
    for i in range(50):
        assert store.get(b"key-%d" % i) == b"value-%d" % i
    assert schedules["absorbed"] == 0


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
