"""Golden simulated-clock test: the store's numbers, pinned bit for bit.

Aria's claim is a count claim, so a change meant only to make the
*simulator* faster on the host must leave every simulated statistic where
it was.  This test replays one seeded ~3 000-op stream (get / put-new /
put-update-same-size / put-grow-forcing-splice / delete / get-miss) on every
index scheme plus the hash index with dummy bucket reads, with tenant
quotas armed, and under a non-dyadic cost model (where float reassociation
of the charges would show in the last ulp), and pins:

* the exact ``meter.cycles`` float,
* the full ``meter.events`` counter,
* sha256 of every response,
* sha256 of every untrusted region — so ciphertext, MAC, pointer and
  Merkle-node bytes are pinned too.

The constants in :data:`GOLDEN` were produced at the commit *before* the
host-time hot-path rewrite (PR 13's parent) by running this file as a
script (``PYTHONPATH=src python tests/test_cycle_golden.py``).  Regenerate
them only for a change that *means* to move the simulated clock, and say so
in the PR.  The six ``untrusted`` digests alone were regenerated once since
(PR 20): the fast cipher's keystream for a plaintext of more than 64 bytes
became one SHAKE-128 squeeze, so those ciphertext bytes — and nothing else:
no ``events``, ``cycles`` or ``responses`` line — changed by construction.
The ``hash_lru`` variant came later; its constants were recorded at the
parent of the change that took the uncharged helper calls off the write
path, before any of that change's edits.  The ``btree`` and ``bplustree``
entries were re-pinned once, by the change that gave both trees one walk
and one binary search: Aria-T's delete reads each sibling once
(``untrusted_access`` only), and a B+-tree descent stops at a separator
equal to its key, so fewer separators are opened and the Secure Cache
sees a shorter access stream.
"""

import hashlib
import random

import pytest

from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.core.tenant import prefixed_key, tenant_token
from repro.errors import KeyNotFoundError
from repro.sgx.costs import CostModel, SgxPlatform

N_OPS = 3000
N_KEYS = 240
_TENANTS = ("whale", "minnow", "krill")   # krill holds no quota

#: Nothing here is a multiple of a power of two, so summing the charges in a
#: different order (or batching them) changes the float total.
_NON_DYADIC = CostModel().scaled(
    untrusted_access=101.3, epc_access=203.7, mem_per_byte=0.37,
    mac_base=811.1, mac_per_byte=4.1, enc_base=503.3, enc_per_byte=2.7,
    hash_compute=31.3, compare_per_byte=0.23, ecall=10_007.9,
)

VARIANTS = {
    "hash": dict(index="hash"),
    "btree": dict(index="btree"),
    # A cache too small for the tree's working set: stop-swap fires.
    "bplustree": dict(index="bplustree",
                      secure_cache_bytes=6 * (8 * 16 + 16)),
    "hash_dummy2": dict(index="hash", dummy_bucket_reads=2),
    "hash_tenants": dict(index="hash", tenant_quotas={
        tenant_token("whale"): 0.5, tenant_token("minnow"): 0.5}),
    "hash_non_dyadic": dict(index="hash"),
    # Every other variant evicts FIFO, whose hit costs nothing: LRU's
    # three metadata operations per hit put the hit charge in the clock.
    "hash_lru": dict(index="hash", eviction_policy="lru"),
}


def _build(variant: str) -> AriaStore:
    settings = dict(
        n_buckets=32,            # chains of ~5: hint skips, splices, rebinds
        btree_order=6,           # splits and merges within 3 000 ops
        initial_counters=256,    # 32 leaves under arity 8 ...
        expansion_counters=256,
        secure_cache_bytes=20 * (8 * 16 + 16),   # ... 20 of them cacheable
        expansion_cache_bytes=4 * (8 * 16 + 16),
        pin_levels=1,
        stop_swap_window=1024,
        heap_chunk_bytes=1 << 16,
        seed=13,
    )
    settings.update(VARIANTS[variant])
    config = AriaConfig(**settings)
    costs = _NON_DYADIC if variant == "hash_non_dyadic" else CostModel()
    return AriaStore(config,
                     platform=SgxPlatform(epc_bytes=16 << 20, costs=costs))


def _key(variant: str, i: int) -> bytes:
    key = b"key-%05d" % i
    if variant == "hash_tenants":
        return prefixed_key(_TENANTS[i % len(_TENANTS)], key)
    return key


def observe(variant: str) -> dict:
    """Run the seeded stream on one variant and digest everything it did."""
    store = _build(variant)
    rng = random.Random(0xA41A)
    live = {}
    for i in range(N_KEYS // 2):          # unmetered load phase
        live[i] = b"load-%04d-" % i + bytes(rng.randrange(256)
                                            for _ in range(rng.randrange(40)))
    store.load((_key(variant, i), value) for i, value in live.items())
    store.counters.reset_stats()

    responses = hashlib.sha256()

    def respond(blob: bytes) -> None:
        responses.update(len(blob).to_bytes(4, "little") + blob)

    for _ in range(N_OPS):
        store.enclave.ecall()
        roll = rng.random()
        if roll < 0.45 and live:                      # get (zipf-ish: low ids)
            i = min(live, key=lambda k: (k * rng.random(), k))
            respond(store.get(_key(variant, i)))
        elif roll < 0.55:                             # get-miss
            i = rng.randrange(N_KEYS, 2 * N_KEYS)
            with pytest.raises(KeyNotFoundError):
                store.get(_key(variant, i))
            respond(b"\x00MISS")
        elif roll < 0.70:                             # put-new
            i = rng.randrange(N_KEYS)
            if i in live:
                continue
            live[i] = b"new-%04d" % i + b"n" * rng.randrange(60)
            store.put(_key(variant, i), live[i])
            respond(b"\x01OK")
        elif roll < 0.82 and live:                    # put-update, same size
            i = rng.choice(sorted(live))
            live[i] = bytes((b + 1) % 256 for b in live[i])
            store.put(_key(variant, i), live[i])
            respond(b"\x01OK")
        elif roll < 0.91 and live:                    # put-grow: splice+retail
            i = rng.choice(sorted(live))
            live[i] = live[i] + b"g" * (70 + rng.randrange(120))
            store.put(_key(variant, i), live[i])
            respond(b"\x01OK")
        elif live:                                    # delete
            i = rng.choice(sorted(live))
            del live[i]
            store.delete(_key(variant, i))
            respond(b"\x02DEL")
    for i in sorted(live):                            # final verified read-back
        assert store.get(_key(variant, i)) == live[i]

    memory = hashlib.sha256()
    untrusted = store.enclave.untrusted
    for base, region in untrusted.regions():
        memory.update(base.to_bytes(8, "little")
                      + len(region).to_bytes(8, "little") + bytes(region))
    meter = store.enclave.meter
    return {
        "cycles": meter.cycles,
        "events": dict(sorted(meter.events.items())),
        "responses": responses.hexdigest(),
        "untrusted": memory.hexdigest(),
    }


GOLDEN = {'bplustree': {'cycles': 113471344.0,
               'events': {'cache_evict': 1024,
                          'cache_hit': 2156,
                          'cache_miss': 21464,
                          'cache_writeback': 208,
                          'ecall': 3000,
                          'enc_bytes': 669627,
                          'epc_access': 29602,
                          'heap_alloc': 514,
                          'heap_free': 507,
                          'mac_bytes': 4485943,
                          'mac_ops': 46148,
                          'mt_verify': 23326,
                          'op_delete': 288,
                          'op_get': 1418,
                          'op_put': 859,
                          'stop_swap': 1,
                          'untrusted_access': 83722},
               'responses': '5be6fc0e930215ebe5a542949ba0b82310bb993c172dffe5b282c487ad01391d',
               'untrusted': '5a6fd76dac6ee218b57a9d58020fe66efa8bc8730c3a361fb74664b9e5549a46'},
 'btree': {'cycles': 102423771.0,
           'events': {'cache_evict': 2152,
                      'cache_hit': 22288,
                      'cache_miss': 1913,
                      'cache_writeback': 795,
                      'ecall': 3000,
                      'enc_bytes': 2670812,
                      'epc_access': 31234,
                      'heap_alloc': 611,
                      'heap_free': 666,
                      'mac_bytes': 4363004,
                      'mac_ops': 28212,
                      'mt_verify': 3723,
                      'op_delete': 288,
                      'op_get': 1418,
                      'op_put': 859,
                      'untrusted_access': 68423},
           'responses': '5be6fc0e930215ebe5a542949ba0b82310bb993c172dffe5b282c487ad01391d',
           'untrusted': '913492fdb0d8fe5d525d43bc0557e46909d87a6d812507b18d8afe5074007318'},
 'hash': {'cycles': 45992692.75,
          'events': {'cache_evict': 881,
                     'cache_hit': 4566,
                     'cache_miss': 763,
                     'cache_writeback': 550,
                     'ecall': 3000,
                     'enc_bytes': 400223,
                     'epc_access': 10472,
                     'heap_alloc': 465,
                     'heap_free': 497,
                     'mac_bytes': 865947,
                     'mac_ops': 6442,
                     'mt_verify': 1645,
                     'op_delete': 288,
                     'op_get': 1418,
                     'op_put': 859,
                     'untrusted_access': 17836},
          'responses': '5be6fc0e930215ebe5a542949ba0b82310bb993c172dffe5b282c487ad01391d',
          'untrusted': 'a0e494c0663d07e71ae849dfd02bf385de15a278e563da18f60b280b60b7b6aa'},
 'hash_dummy2': {'cycles': 47189892.75,
                 'events': {'cache_evict': 881,
                            'cache_hit': 4566,
                            'cache_miss': 763,
                            'cache_writeback': 550,
                            'ecall': 3000,
                            'enc_bytes': 400223,
                            'epc_access': 10472,
                            'heap_alloc': 465,
                            'heap_free': 497,
                            'mac_bytes': 865947,
                            'mac_ops': 6442,
                            'mt_verify': 1645,
                            'op_delete': 288,
                            'op_get': 1418,
                            'op_put': 859,
                            'untrusted_access': 29808},
                 'responses': '5be6fc0e930215ebe5a542949ba0b82310bb993c172dffe5b282c487ad01391d',
                 'untrusted': 'a0e494c0663d07e71ae849dfd02bf385de15a278e563da18f60b280b60b7b6aa'},
 'hash_lru': {'cycles': 48608196.75,
              'events': {'cache_evict': 787,
                         'cache_hit': 4679,
                         'cache_miss': 650,
                         'cache_writeback': 493,
                         'ecall': 3000,
                         'enc_bytes': 400223,
                         'epc_access': 10264,
                         'heap_alloc': 465,
                         'heap_free': 497,
                         'mac_bytes': 852891,
                         'mac_ops': 6340,
                         'mt_verify': 1543,
                         'op_delete': 288,
                         'op_get': 1418,
                         'op_put': 859,
                         'untrusted_access': 17734},
              'responses': '5be6fc0e930215ebe5a542949ba0b82310bb993c172dffe5b282c487ad01391d',
              'untrusted': 'e254080557a0793a95066babc6c63196aded9e9bb5b336e1c28cac56d6339518'},
 'hash_non_dyadic': {'cycles': 46272784.609991096,
                     'events': {'cache_evict': 881,
                                'cache_hit': 4566,
                                'cache_miss': 763,
                                'cache_writeback': 550,
                                'ecall': 3000,
                                'enc_bytes': 400223,
                                'epc_access': 10472,
                                'heap_alloc': 465,
                                'heap_free': 497,
                                'mac_bytes': 865947,
                                'mac_ops': 6442,
                                'mt_verify': 1645,
                                'op_delete': 288,
                                'op_get': 1418,
                                'op_put': 859,
                                'untrusted_access': 17836},
                     'responses': '5be6fc0e930215ebe5a542949ba0b82310bb993c172dffe5b282c487ad01391d',
                     'untrusted': 'a0e494c0663d07e71ae849dfd02bf385de15a278e563da18f60b280b60b7b6aa'},
 'hash_tenants': {'cycles': 46196824.5,
                  'events': {'cache_evict': 758,
                             'cache_hit': 4541,
                             'cache_miss': 773,
                             'cache_writeback': 492,
                             'ecall': 3000,
                             'enc_bytes': 441304,
                             'epc_access': 10268,
                             'heap_alloc': 459,
                             'heap_free': 491,
                             'mac_bytes': 904798,
                             'mac_ops': 6405,
                             'mt_verify': 1615,
                             'op_delete': 288,
                             'op_get': 1418,
                             'op_put': 859,
                             'tenant_evict_denied': 120,
                             'tenant_evict_denied:b233ffabb8a92620': 120,
                             'untrusted_access': 17911},
                  'responses': '5be6fc0e930215ebe5a542949ba0b82310bb993c172dffe5b282c487ad01391d',
                  'untrusted': 'e9ceb643f78828d07ec1c46d4b376277aa28300178b10c48b07c077465b74da4'}}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_simulated_clock_is_bit_identical(variant):
    seen = observe(variant)
    want = GOLDEN[variant]
    assert seen["events"] == want["events"]
    assert seen["cycles"] == want["cycles"], (
        f"{seen['cycles']!r} != {want['cycles']!r} "
        f"(off by {seen['cycles'] - want['cycles']!r})")
    assert seen["responses"] == want["responses"]
    assert seen["untrusted"] == want["untrusted"]


def test_stream_covers_the_paths_it_claims_to_pin():
    """The pins are only worth something if the stream reaches the code."""
    events = GOLDEN["hash"]["events"]
    for name in ("cache_hit", "cache_miss", "cache_evict", "cache_writeback",
                 "mt_verify", "heap_alloc", "heap_free", "op_get", "op_put",
                 "op_delete", "mac_ops", "enc_bytes", "ecall"):
        assert events.get(name, 0) > 0, name
    assert GOLDEN["hash_dummy2"]["events"]["untrusted_access"] \
        > events["untrusted_access"]
    assert GOLDEN["hash_non_dyadic"]["events"] == events
    assert GOLDEN["hash_non_dyadic"]["cycles"] != GOLDEN["hash"]["cycles"]
    assert GOLDEN["hash_non_dyadic"]["cycles"] % 0.25 != 0.0
    assert any(name.startswith("tenant_evict_denied")
               for name in GOLDEN["hash_tenants"]["events"])


if __name__ == "__main__":  # regenerate the constants (see module docstring)
    import pprint
    print("GOLDEN = " + pprint.pformat(
        {variant: observe(variant) for variant in sorted(VARIANTS)},
        width=79, sort_dicts=False))
