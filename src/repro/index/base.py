"""The index interface Aria's decoupled design targets (paper Section V-C).

Security metadata (counters + Merkle tree + Secure Cache) is built over KV
pairs only; any index that can store 8-byte record pointers in untrusted
memory and route operations through the :class:`repro.core.record.RecordCodec`
plugs in.  Three are provided: chained hashing (Aria-H), a B-tree (Aria-T)
and a B+-tree, the two trees on one substrate (:mod:`repro.index.tree`).
"""

from __future__ import annotations

from typing import Iterator


class SecureIndex:
    """Interface: keyed access to sealed records in untrusted memory."""

    name = "abstract"

    def get(self, key: bytes) -> bytes:
        """Return the value for ``key``; raises KeyNotFoundError / DeletionError."""
        raise NotImplementedError

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or update ``key``."""
        raise NotImplementedError

    def delete(self, key: bytes) -> None:
        """Remove ``key``; raises KeyNotFoundError if absent."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def keys(self) -> Iterator[bytes]:
        """Iterate all keys (verified full scan; used by audits and tests)."""
        raise NotImplementedError

    def epc_bytes(self) -> int:
        """EPC bytes this index's trusted metadata occupies."""
        raise NotImplementedError
