"""Index schemes for Aria's decoupled design: hash table, B-tree, B+-tree."""

from repro.errors import ConfigurationError
from repro.index.base import SecureIndex
from repro.index.bplustree import AriaBPlusTreeIndex
from repro.index.btree import AriaBTreeIndex
from repro.index.hashtable import AriaHashIndex
from repro.index.tree import SealedTreeIndex

__all__ = [
    "AriaBPlusTreeIndex",
    "AriaBTreeIndex",
    "AriaHashIndex",
    "SealedTreeIndex",
    "SecureIndex",
    "make_index",
]

_TREES = {"btree": AriaBTreeIndex, "bplustree": AriaBPlusTreeIndex}


def make_index(kind: str, enclave, codec, allocator, counters, *,
               n_buckets: int, order: int,
               dummy_bucket_reads: int = 0) -> SecureIndex:
    """Build the index ``kind`` names over ``counters``' fetch/free."""
    if kind == "hash":
        return AriaHashIndex(enclave, codec, allocator, n_buckets=n_buckets,
                             fetch_counter=counters.fetch,
                             free_counter=counters.free,
                             dummy_bucket_reads=dummy_bucket_reads)
    if kind not in _TREES:
        raise ConfigurationError(f"unknown index scheme {kind!r}")
    return _TREES[kind](enclave, codec, allocator, order=order,
                        fetch_counter=counters.fetch,
                        free_counter=counters.free)
