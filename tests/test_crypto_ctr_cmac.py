"""CTR mode (NIST SP 800-38A) and AES-CMAC (RFC 4493) test vectors."""

import pytest

from repro.crypto.cmac import cmac
from repro.crypto.ctr import ctr_transform

KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

# NIST SP 800-38A F.5.1 CTR-AES128.Encrypt
CTR_INIT = bytes.fromhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
CTR_PLAINTEXT = bytes.fromhex(
    "6bc1bee22e409f96e93d7e117393172a"
    "ae2d8a571e03ac9c9eb76fac45af8e51"
    "30c81c46a35ce411e5fbc1191a0a52ef"
    "f69f2445df4f9b17ad2b417be66c3710"
)
CTR_CIPHERTEXT = bytes.fromhex(
    "874d6191b620e3261bef6864990db6ce"
    "9806f66b7970fdff8617187bb9fffdff"
    "5ae4df3edbd5d35e5b4f09020db03eab"
    "1e031dda2fbe03d1792170a0f3009cee"
)

# RFC 4493 test vectors (AES-CMAC with the same key).
RFC4493_CASES = [
    (b"", "bb1d6929e95937287fa37d129b756746"),
    (bytes.fromhex("6bc1bee22e409f96e93d7e117393172a"), "070a16b46b4d4144f79bdd9dd04a287c"),
    (
        bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        ),
        "dfa66747de9ae63030ca32611497c827",
    ),
    (CTR_PLAINTEXT, "51f0bebf7e3b9d92fc49741779363cfe"),
]


def test_ctr_nist_vector_encrypt():
    assert ctr_transform(KEY, CTR_INIT, CTR_PLAINTEXT) == CTR_CIPHERTEXT


def test_ctr_nist_vector_decrypt():
    assert ctr_transform(KEY, CTR_INIT, CTR_CIPHERTEXT) == CTR_PLAINTEXT


def test_ctr_partial_block():
    data = b"17 bytes of data!"
    assert len(data) == 17
    ciphertext = ctr_transform(KEY, CTR_INIT, data)
    assert len(ciphertext) == 17
    assert ctr_transform(KEY, CTR_INIT, ciphertext) == data


def test_ctr_empty_input():
    assert ctr_transform(KEY, CTR_INIT, b"") == b""


def test_ctr_rejects_bad_counter():
    with pytest.raises(ValueError):
        ctr_transform(KEY, b"short", b"data")


def test_ctr_counter_low_bits_wrap():
    # Counter with all-ones low 32 bits: block 1 must wrap without touching
    # the high 96 bits.
    counter = bytes.fromhex("000102030405060708090a0b" + "ffffffff")
    data = b"\x00" * 32
    out = ctr_transform(KEY, counter, data)
    # Must equal AES(counter) || AES(counter with low32=0)
    from repro.crypto.aes import AES128

    cipher = AES128(KEY)
    expected = cipher.encrypt_block(counter) + cipher.encrypt_block(
        bytes.fromhex("000102030405060708090a0b" + "00000000")
    )
    assert out == expected


@pytest.mark.parametrize("message,tag_hex", RFC4493_CASES)
def test_cmac_rfc4493(message, tag_hex):
    assert cmac(KEY, message) == bytes.fromhex(tag_hex)


def test_cmac_distinct_keys_distinct_tags():
    other_key = bytes(16)
    message = b"same message"
    assert cmac(KEY, message) != cmac(other_key, message)
