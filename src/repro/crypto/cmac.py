"""AES-CMAC (RFC 4493) — the reproduction of ``sgx_rijndael128_cmac``.

Aria computes a 16-byte keyed MAC over ``(RedPtr, encrypted KV, counter,
AdField)`` for every record, and over every Merkle-tree node.  The SGX SDK
primitive is AES-CMAC with a 128-bit key; we implement it from scratch on top
of :mod:`repro.crypto.aes` and validate against the RFC 4493 test vectors.
"""

from __future__ import annotations

from repro.crypto.aes import AES128, BLOCK_SIZE

MAC_SIZE = 16
_RB = 0x87  # The constant for the 128-bit CMAC subkey derivation.


def _left_shift_one(block: bytes) -> tuple[bytes, bool]:
    value = int.from_bytes(block, "big") << 1
    return (value & ((1 << 128) - 1)).to_bytes(16, "big"), bool(value >> 128)


def _generate_subkeys(cipher: AES128) -> tuple[bytes, bytes]:
    l_value = cipher.encrypt_block(b"\x00" * BLOCK_SIZE)
    k1, carry = _left_shift_one(l_value)
    if carry:
        k1 = k1[:-1] + bytes([k1[-1] ^ _RB])
    k2, carry = _left_shift_one(k1)
    if carry:
        k2 = k2[:-1] + bytes([k2[-1] ^ _RB])
    return k1, k2


def _xor_block(a: bytes, b: bytes) -> bytes:
    return bytes(x ^ y for x, y in zip(a, b))


def cmac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte AES-CMAC of ``message`` under ``key``."""
    cipher = AES128(key)
    k1, k2 = _generate_subkeys(cipher)

    n_blocks = (len(message) + BLOCK_SIZE - 1) // BLOCK_SIZE
    if n_blocks == 0:
        n_blocks = 1
        last_complete = False
    else:
        last_complete = len(message) % BLOCK_SIZE == 0

    last = message[(n_blocks - 1) * BLOCK_SIZE :]
    if last_complete:
        last = _xor_block(last, k1)
    else:
        padded = last + b"\x80" + b"\x00" * (BLOCK_SIZE - len(last) - 1)
        last = _xor_block(padded, k2)

    state = b"\x00" * BLOCK_SIZE
    for i in range(n_blocks - 1):
        block = message[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE]
        state = cipher.encrypt_block(_xor_block(state, block))
    return cipher.encrypt_block(_xor_block(state, last))
