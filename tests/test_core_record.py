"""Record codec tests: sealing, opening, AdField binding, tamper detection."""

import pytest

from repro.core.config import AriaConfig
from repro.core.counters import CounterManager
from repro.core.record import RecordCodec, record_size
from repro.errors import IntegrityError
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause


@pytest.fixture
def codec_env():
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    with MeterPause(enclave.meter):
        counters = CounterManager(enclave, AriaConfig(
            initial_counters=64, merkle_arity=4, secure_cache_bytes=1 << 16,
            stop_swap_enabled=False,
        ))
    return RecordCodec(enclave, counters), counters, enclave


def test_seal_open_roundtrip(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = codec.seal(b"user:1", b"Alice", red_ptr, ad_field=0xBEEF)
    opened = codec.open(blob, ad_field=0xBEEF)
    assert opened.key == b"user:1"
    assert opened.value == b"Alice"
    assert opened.red_ptr == red_ptr


def test_record_size_matches_blob(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = codec.seal(b"kk", b"vvv", red_ptr, ad_field=1)
    assert len(blob) == record_size(2, 3)


def test_ciphertext_hides_plaintext(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = codec.seal(b"secretkey", b"secretvalue", red_ptr, ad_field=1)
    assert b"secretkey" not in blob
    assert b"secretvalue" not in blob


def test_resealing_same_pair_changes_ciphertext(codec_env):
    # The counter increments on every seal, so ciphertexts never repeat.
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    first = codec.seal(b"k", b"v", red_ptr, ad_field=1)
    second = codec.seal(b"k", b"v", red_ptr, ad_field=1)
    assert first != second


def test_wrong_ad_field_rejected(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = codec.seal(b"k", b"v", red_ptr, ad_field=100)
    with pytest.raises(IntegrityError):
        codec.open(blob, ad_field=101)


def test_tampered_ciphertext_rejected(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = bytearray(codec.seal(b"k", b"v", red_ptr, ad_field=1))
    blob[12] ^= 0x01  # first ciphertext byte
    with pytest.raises(IntegrityError):
        codec.open(bytes(blob), ad_field=1)


def test_tampered_length_field_rejected(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = bytearray(codec.seal(b"key", b"value", red_ptr, ad_field=1))
    blob[8] ^= 0x01  # k_len low byte
    with pytest.raises(IntegrityError):
        codec.open(bytes(blob), ad_field=1)


def test_truncated_record_rejected(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = codec.seal(b"key", b"value", red_ptr, ad_field=1)
    with pytest.raises(IntegrityError):
        codec.open(blob[:-1], ad_field=1)


def test_stale_record_replay_rejected(codec_env):
    # Seal twice with the same counter id; the first (stale but once-valid)
    # blob must fail because the counter has moved on.
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    stale = codec.seal(b"k", b"old", red_ptr, ad_field=1)
    fresh = codec.seal(b"k", b"new", red_ptr, ad_field=1)
    assert codec.open(fresh, ad_field=1).value == b"new"
    with pytest.raises(IntegrityError):
        codec.open(stale, ad_field=1)


def test_reseal_ad_field_rebinds(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = codec.seal(b"k", b"v", red_ptr, ad_field=10)
    rebound = codec.reseal_ad_field(blob, old_ad=10, new_ad=20)
    assert codec.open(rebound, ad_field=20).value == b"v"
    with pytest.raises(IntegrityError):
        codec.open(rebound, ad_field=10)


def test_reseal_with_wrong_old_ad_rejected(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    blob = codec.seal(b"k", b"v", red_ptr, ad_field=10)
    with pytest.raises(IntegrityError):
        codec.reseal_ad_field(blob, old_ad=11, new_ad=20)


def test_oversized_key_rejected(codec_env):
    codec, counters, _ = codec_env
    red_ptr = counters.fetch()
    with pytest.raises(ValueError):
        codec.seal(b"x" * 70_000, b"v", red_ptr, ad_field=1)
