"""On-wire KV record format and the sealing/opening codec (paper Section V-D).

A sealed record in untrusted memory has the layout::

    RedPtr (8) | k_len (2) | v_len (2) | ciphertext (k_len + v_len) | MAC (16)

The ciphertext is ``AES-CTR(key || value)`` under the per-KV counter.  The
MAC covers::

    RedPtr | counter value | k_len | v_len | ciphertext | AdField

where **AdField** is the address of the pointer slot that points at this
record (Section V-C's index protection).  Swapping two records' pointers in the
index relocates each record under a foreign AdField, so both MACs fail —
that is the Fig 7 attack and its defence.

The codec does real crypto (so attacks genuinely fail) and charges cycle
costs through the enclave.
"""

from __future__ import annotations

import struct
from typing import NamedTuple

from repro.core.counters import CounterManager
from repro.errors import IntegrityError
from repro.sgx.enclave import MAC_MISMATCH, Enclave

HEADER = struct.Struct("<QHH")  # RedPtr, k_len, v_len
MAC_SIZE = 16
_AD_BYTES = 8

MAX_KEY_LEN = 0xFFFF
MAX_VALUE_LEN = 0xFFFF


class OpenedRecord(NamedTuple):
    """A record after verification + decryption, plus its RedPtr."""

    red_ptr: int
    key: bytes
    value: bytes


_tuple_new = tuple.__new__
#: ``Enclave.require_mac``'s error for this record, formatted once.
_KV_RECORD_MISMATCH = MAC_MISMATCH.format("KV record")


def record_size(k_len: int, v_len: int) -> int:
    """Total serialized size for given key/value lengths."""
    return HEADER.size + k_len + v_len + MAC_SIZE


class RecordCodec:
    """Seals plaintext KV pairs into records and opens them verified."""

    def __init__(self, enclave: Enclave, counters: CounterManager):
        self._enclave = enclave
        self._counters = counters

    # -- sealing ----------------------------------------------------------------

    def seal(self, key: bytes, value: bytes, red_ptr: int, ad_field: int) -> bytes:
        """Encrypt and MAC a KV pair; increments its counter first (Section V-D).

        ``ad_field`` is the address of the slot that will point at this
        record once the caller installs it in the index.
        """
        if len(key) > MAX_KEY_LEN or len(value) > MAX_VALUE_LEN:
            raise ValueError("key/value too long for the record format")
        counter = self._counters.increment_counter(red_ptr)
        ciphertext = self._enclave.encrypt(counter, key + value)
        header = HEADER.pack(red_ptr, len(key), len(value))
        mac = self._enclave.mac(
            header + counter + ciphertext + ad_field.to_bytes(_AD_BYTES, "little")
        )
        return header + ciphertext + mac

    # -- opening -----------------------------------------------------------------

    def parse_header(self, blob: bytes) -> tuple[int, int, int]:
        """Split a record's header; returns (red_ptr, k_len, v_len)."""
        return HEADER.unpack_from(blob)

    def open(self, blob: bytes, ad_field: int) -> OpenedRecord:
        """Verify a sealed record (MAC + counter path) and decrypt it.

        Raises :class:`IntegrityError` if the record, its counter binding, or
        its index connection (AdField) was tampered with.
        """
        red_ptr, k_len, v_len = HEADER.unpack_from(blob)
        body_end = HEADER.size + k_len + v_len
        if len(blob) < body_end + MAC_SIZE:
            raise IntegrityError("record truncated: untrusted data modified")
        ciphertext = blob[HEADER.size:body_end]
        counter = self._counters.read_counter(red_ptr)
        enclave = self._enclave
        # ``Enclave.require_mac`` spelled inline: same charge, same error.
        if not enclave.mac_verify(
            blob[:HEADER.size] + counter + ciphertext
            + ad_field.to_bytes(_AD_BYTES, "little"),
            blob[body_end : body_end + MAC_SIZE],
        ):
            raise IntegrityError(_KV_RECORD_MISMATCH)
        plaintext = enclave.decrypt(counter, ciphertext)
        # The NamedTuple's ``__new__`` is a Python function; this is not.
        return _tuple_new(
            OpenedRecord, (red_ptr, plaintext[:k_len], plaintext[k_len:]))

    def reseal_ad_field(self, blob: bytes, old_ad: int, new_ad: int) -> bytes:
        """Re-bind a record to a new pointer-slot address.

        Used when an index operation relocates the slot pointing at a record
        (chain splice on delete, B-tree node split): the record is verified
        under the old AdField, then its MAC is recomputed for the new one.
        The ciphertext and counter are untouched.
        """
        red_ptr, k_len, v_len = HEADER.unpack_from(blob)
        body_end = HEADER.size + k_len + v_len
        counter = self._counters.read_counter(red_ptr)
        # Everything the MAC covers except the AdField, built once.
        bound = blob[:HEADER.size] + counter + blob[HEADER.size:body_end]
        enclave = self._enclave
        enclave.require_mac(
            bound + old_ad.to_bytes(_AD_BYTES, "little"),
            blob[body_end : body_end + MAC_SIZE],
            "KV record (rebind)",
        )
        new_mac = enclave.mac(bound + new_ad.to_bytes(_AD_BYTES, "little"))
        return blob[:body_end] + new_mac
