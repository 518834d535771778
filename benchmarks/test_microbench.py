"""Wall-clock micro-benchmarks of the hot code paths (pytest-benchmark).

These time the *Python implementation itself* (not simulated cycles):
useful for tracking regressions in the reproduction's own hot paths.
"""

import random

from repro.bench.harness import build_aria, build_shieldstore, scaled_platform
from repro.cache.secure_cache import ENTRY_METADATA_BYTES, SecureCache
from repro.core.config import AriaConfig
from repro.merkle.layout import MerkleLayout
from repro.merkle.tree import MerkleTree
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause

N_KEYS = 4096


def _loaded_aria():
    store = build_aria(n_keys=N_KEYS, platform=scaled_platform(2048))
    store.load((b"u%015d" % i, b"v" * 16) for i in range(N_KEYS))
    return store


def test_aria_get_hot_key(benchmark):
    store = _loaded_aria()
    store.get(b"u%015d" % 7)  # warm the cache
    benchmark(store.get, b"u%015d" % 7)


def test_aria_put_hot_key(benchmark):
    store = _loaded_aria()
    benchmark(store.put, b"u%015d" % 7, b"w" * 16)


def test_shieldstore_get(benchmark):
    store = build_shieldstore(n_keys=N_KEYS, platform=scaled_platform(2048))
    store.load((b"u%015d" % i, b"v" * 16) for i in range(N_KEYS))
    benchmark(store.get, b"u%015d" % 7)


def test_secure_cache_hit(benchmark):
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    layout = MerkleLayout(n_counters=4096, arity=8)
    with MeterPause(enclave.meter):
        tree = MerkleTree(enclave, layout, rng=random.Random(0))
        cache = SecureCache(
            enclave, tree,
            capacity_bytes=64 * (layout.node_size + ENTRY_METADATA_BYTES),
            config=AriaConfig(pin_levels=1, stop_swap_enabled=False),
        )
    cache.read_counter(5)
    benchmark(cache.read_counter, 5)


def test_secure_cache_miss_with_eviction(benchmark):
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    layout = MerkleLayout(n_counters=4096, arity=8)
    with MeterPause(enclave.meter):
        tree = MerkleTree(enclave, layout, rng=random.Random(0))
        cache = SecureCache(
            enclave, tree,
            capacity_bytes=8 * (layout.node_size + ENTRY_METADATA_BYTES),
            config=AriaConfig(pin_levels=1, stop_swap_enabled=False),
        )
    rng = random.Random(1)
    benchmark(lambda: cache.read_counter(rng.randrange(4096)))
