"""Secure Cache: software-managed EPC caching of Merkle-tree nodes."""

from repro.cache.policies import EvictionPolicy, FifoPolicy, LruPolicy, make_policy
from repro.cache.secure_cache import ENTRY_METADATA_BYTES, SecureCache
from repro.cache.stats import CacheStats

__all__ = [
    "ENTRY_METADATA_BYTES",
    "CacheStats",
    "EvictionPolicy",
    "FifoPolicy",
    "LruPolicy",
    "SecureCache",
    "make_policy",
]
