"""Property-based tests of the Secure Cache consistency invariant.

The proof-sketch invariant (paper Section IV-B): whatever interleaving of reads,
writes, evictions and stop-swap transitions occurs, (1) a read always returns
the last value written, and (2) all verification passes — i.e. the newest
information of every leaf is always reachable from an EPC-resident node.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.secure_cache import ENTRY_METADATA_BYTES, SecureCache
from repro.core.config import AriaConfig
from repro.merkle.layout import MerkleLayout
from repro.merkle.tree import MerkleTree
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause

N_COUNTERS = 64


def build(arity, cache_nodes, policy, pin_levels, stop_window):
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    layout = MerkleLayout(N_COUNTERS, arity)
    with MeterPause(enclave.meter):
        tree = MerkleTree(enclave, layout, rng=random.Random(0))
        cache = SecureCache(
            enclave,
            tree,
            capacity_bytes=cache_nodes * (layout.node_size + ENTRY_METADATA_BYTES),
            config=AriaConfig(eviction_policy=policy, pin_levels=pin_levels,
                              stop_swap_window=stop_window),
        )
    return cache


operations = st.lists(
    st.tuples(
        st.sampled_from(["read", "write", "increment"]),
        st.integers(0, N_COUNTERS - 1),
        st.integers(0, (1 << 64) - 1),
    ),
    min_size=1,
    max_size=200,
)


@settings(max_examples=40, deadline=None)
@given(
    ops=operations,
    arity=st.sampled_from([2, 4, 8]),
    cache_nodes=st.integers(1, 6),
    policy=st.sampled_from(["fifo", "lru"]),
    pin_levels=st.integers(0, 2),
    stop_window=st.sampled_from([32, 100_000]),  # tiny window forces stop-swap
)
def test_reads_always_return_last_write(ops, arity, cache_nodes, policy,
                                        pin_levels, stop_window):
    cache = build(arity, cache_nodes, policy, pin_levels, stop_window)
    model = {}
    for action, cid, raw in ops:
        if action == "write":
            value = raw.to_bytes(16, "little")
            cache.write_counter(cid, value)
            model[cid] = value
        elif action == "increment":
            new = cache.increment_counter(cid)
            if cid in model:
                expected = (
                    (int.from_bytes(model[cid], "little") + 1) % (1 << 128)
                ).to_bytes(16, "little")
                assert new == expected
            model[cid] = new
        else:
            got = cache.read_counter(cid)
            if cid in model:
                assert got == model[cid]
    # Final sweep: every written counter still verifies and reads back.
    for cid, value in model.items():
        assert cache.read_counter(cid) == value


@settings(max_examples=15, deadline=None)
@given(ops=operations, flip_at=st.integers(0, 63))
def test_tampering_is_always_detected_or_harmless(ops, flip_at):
    """Flipping one untrusted leaf byte can never silently corrupt a read.

    Either the byte lands in a node whose EPC copy is authoritative (pinned /
    cached, so the read ignores untrusted memory entirely), or the next
    uncached access to it raises.  A read that *succeeds* must return the
    model value.
    """
    cache = build(arity=4, cache_nodes=2, policy="fifo", pin_levels=1,
                  stop_window=100_000)
    model = {}
    for action, cid, raw in ops[: len(ops) // 2]:
        value = raw.to_bytes(16, "little")
        cache.write_counter(cid, value)
        model[cid] = value

    tree = cache._tree
    enclave = cache._enclave
    addr = tree.node_addr(0, flip_at // 4)
    original = enclave.untrusted.snoop(addr, 1)
    enclave.untrusted.tamper(addr, bytes([original[0] ^ 0x01]))

    from repro.errors import IntegrityError

    for cid, value in model.items():
        try:
            got = cache.read_counter(cid)
        except IntegrityError:
            continue  # detected: acceptable outcome
        assert got == value  # undetected reads must still be correct
