"""Golden cluster-construction test: what ``ClusterConfig`` builds, pinned.

The cluster's construction path carries a handful of rules nothing else
states: shard ids (``shard-<i>``, ``shard-<i>/r<j>``), the per-enclave EPC
carve, and the seed derivations that give every enclave its own key
material (``+i`` for plain shards, ``+101*i`` per replica group,
``+17*j+1`` per replica, ``+7919*incarnation`` per restart, ``+101*(n+k)``
per elastic add).  A refactor of the builders must leave all of them — and
therefore every simulated cycle and response byte — exactly where they
were.  For each scenario this test pins:

* the enclave ids, in (sorted shard, replica) order,
* each enclave's ``epc_bytes``,
* a sha256 prefix of each enclave's ``mac_key`` (the seed rule, observed),
* a digest of ring ownership over a fixed key set,
* ``(sum of enclave cycles, sha256 of responses)`` after one seeded
  512-op stream.

The constants in :data:`GOLDEN` were produced at the commit *before* the
one-recipe refactor (PR 14's parent) by running this file as a script
(``PYTHONPATH=src python tests/test_cluster_build_golden.py``).
Regenerate them only for a change that *means* to move what gets built,
and say so in the PR.
"""

import hashlib
import random
import tempfile

import pytest

from repro.cluster import (
    ClusterConfig,
    DurabilityConfig,
    TenancyConfig,
    TenantConfig,
)
from repro.server import protocol

N_OPS = 512
N_KEYS = 256
BATCH = 32

_ROSTER = TenancyConfig(tenants=(
    TenantConfig("whale", cache_quota=0.2),
    TenantConfig("minnow", cache_quota=0.3),
))

#: Every scenario runs inline at an explicit worker count, so the
#: ``ARIA_CLUSTER_BACKEND``/``ARIA_SHARD_WORKERS`` CI matrices cannot move
#: what this file observes.
_BASE = dict(n_keys=N_KEYS, scale=2048, batch_window=8, seed=5,
             backend="inline", workers=1)

SCENARIOS = {
    "plain_1": dict(n_shards=1),
    "plain_2": dict(n_shards=2),
    "plain_4": dict(n_shards=4),
    "replicated_r2": dict(n_shards=2, replication=2),
    "durable_r1": dict(n_shards=2),          # + DurabilityConfig(tmp dir)
    "tenancy": dict(n_shards=2, tenancy=_ROSTER),
    "dict_vnodes": dict(n_shards=2, vnodes={"shard-0": 96, "shard-1": 32}),
    "workers_4": dict(n_shards=2, workers=4),
    # Both carve formulas at their 4096-byte floor (46592 B / 12 < 4096).
    "floor_plain": dict(n_shards=12),
    "floor_r2": dict(n_shards=6, replication=2),
}


def _config(scenario: str, data_dir: str) -> ClusterConfig:
    fields = dict(_BASE)
    fields.update(SCENARIOS[scenario])
    if scenario == "durable_r1":
        fields["durability"] = DurabilityConfig(data_dir=data_dir)
    return ClusterConfig(**fields)


def _enclaves(coordinator) -> list:
    """Every real enclave-bearing shard, in sorted (shard, replica) order."""
    found = []
    for shard in coordinator.shard_list():
        replicas = getattr(shard, "replicas", None)
        members = [r.shard for r in replicas] if replicas is not None \
            else [shard]
        found.extend(getattr(m, "inner", m) for m in members)
    return found


def _describe(enclaves) -> dict:
    return {
        "ids": [e.shard_id for e in enclaves],
        "epc_bytes": [e.epc_bytes for e in enclaves],
        "mac_keys": [hashlib.sha256(e.store.enclave.keys.mac_key)
                     .hexdigest()[:12] for e in enclaves],
    }


def _ring_digest(coordinator) -> str:
    digest = hashlib.sha256()
    for i in range(1024):
        digest.update(coordinator.ring.route(b"ring-%05d" % i).encode()
                      + b"\0")
    return digest.hexdigest()[:16]


def _drive(coordinator, tenant=None) -> tuple:
    rng = random.Random(0xC1A5)
    coordinator.load(((b"key-%04d" % i, b"load-%04d" % i)
                      for i in range(N_KEYS // 2)), tenant=tenant)
    responses = hashlib.sha256()
    for _ in range(N_OPS // BATCH):
        batch = []
        for _ in range(BATCH):
            key = b"key-%04d" % rng.randrange(N_KEYS)
            roll = rng.random()
            if roll < 0.5:
                batch.append(protocol.get(key))
            elif roll < 0.9:
                batch.append(protocol.put(
                    key, b"v" * rng.randrange(1, 48)))
            else:
                batch.append(protocol.delete(key))
        for response in coordinator.execute(batch, tenant=tenant):
            value = bytes(response.value)
            responses.update(bytes([int(response.status)])
                             + len(value).to_bytes(4, "little") + value)
    cycles = sum(e.meter.cycles for e in _enclaves(coordinator))
    return cycles, responses.hexdigest()


def observe(scenario: str) -> dict:
    with tempfile.TemporaryDirectory() as data_dir:
        coordinator = _config(scenario, data_dir).build()
        try:
            seen = _describe(_enclaves(coordinator))
            seen["ring"] = _ring_digest(coordinator)
            tenant = "whale" if scenario == "tenancy" else None
            seen["cycles"], seen["responses"] = _drive(coordinator, tenant)
            return seen
        finally:
            coordinator.close()


def observe_restart() -> dict:
    """Kill and restart ``shard-1/r0`` twice: the ``+7919`` rule."""
    coordinator = ClusterConfig(n_shards=2, replication=2, **_BASE).build()
    try:
        replica = coordinator.shards["shard-1"].replicas[0]
        incarnations = []
        for _ in range(2):
            replica.shard.kill()
            replica.restart()
            incarnations.append(replica.shard)
        return _describe(incarnations)
    finally:
        coordinator.close()


def observe_elastic_add() -> dict:
    """One live add on an R=2 cluster: the ``+101*(n+k)`` rule."""
    coordinator = ClusterConfig(n_shards=2, replication=2, max_shards=3,
                                **_BASE).build()
    try:
        coordinator.load((b"key-%04d" % i, b"load-%04d" % i)
                         for i in range(N_KEYS // 2))
        plan = coordinator.elastic.add_shard()
        coordinator.elastic.run_to_completion()
        [added] = plan.delta.add_shards
        seen = _describe([e for e in _enclaves(coordinator)
                          if e.shard_id.startswith(added + "/")])
        seen["ring"] = _ring_digest(coordinator)
        seen["keys_migrated"] = coordinator.elastic.keys_migrated
        return seen
    finally:
        coordinator.close()


GOLDEN = {'dict_vnodes': {'ids': ['shard-0', 'shard-1'],
                 'epc_bytes': [23296, 23296],
                 'mac_keys': ['dad11322610b', '136557dd1920'],
                 'ring': '96a0fc9ccf95692c',
                 'cycles': 2270305.0,
                 'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'durable_r1': {'ids': ['shard-0/r0', 'shard-1/r0'],
                'epc_bytes': [23296, 23296],
                'mac_keys': ['136557dd1920', '8b7e15528303'],
                'ring': 'dc3839bac47cebce',
                'cycles': 2271477.5,
                'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'floor_plain': {'ids': ['shard-0',
                         'shard-1',
                         'shard-10',
                         'shard-11',
                         'shard-2',
                         'shard-3',
                         'shard-4',
                         'shard-5',
                         'shard-6',
                         'shard-7',
                         'shard-8',
                         'shard-9'],
                 'epc_bytes': [4096,
                               4096,
                               4096,
                               4096,
                               4096,
                               4096,
                               4096,
                               4096,
                               4096,
                               4096,
                               4096,
                               4096],
                 'mac_keys': ['dad11322610b',
                              '136557dd1920',
                              'd2c978cd4767',
                              '046db679515b',
                              '4904655fa212',
                              '4be567e895a7',
                              'd688bfb850f7',
                              '953995cda513',
                              'a53ce27285a1',
                              'c08d3990ec4e',
                              '86f8a50b454d',
                              '4122ac063ba5'],
                 'ring': '398fb43b1ee98d2e',
                 'cycles': 3185231.0,
                 'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'floor_r2': {'ids': ['shard-0/r0',
                      'shard-0/r1',
                      'shard-1/r0',
                      'shard-1/r1',
                      'shard-2/r0',
                      'shard-2/r1',
                      'shard-3/r0',
                      'shard-3/r1',
                      'shard-4/r0',
                      'shard-4/r1',
                      'shard-5/r0',
                      'shard-5/r1'],
              'epc_bytes': [4096,
                            4096,
                            4096,
                            4096,
                            4096,
                            4096,
                            4096,
                            4096,
                            4096,
                            4096,
                            4096,
                            4096],
              'mac_keys': ['136557dd1920',
                           '24940ea97b8f',
                           '8b7e15528303',
                           '0762243820fe',
                           '47ebde33544e',
                           'ed41dba33126',
                           '3261b9535f90',
                           '447cb8d03e50',
                           'd4b714af5c2b',
                           'bb1e584b3ade',
                           '94348d2163b1',
                           'cddb143a7784'],
              'ring': '058e08cef73cbb97',
              'cycles': 4439706.5,
              'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'plain_1': {'ids': ['shard-0'],
             'epc_bytes': [46592],
             'mac_keys': ['dad11322610b'],
             'ring': '10c37c4aa945626b',
             'cycles': 2290894.0,
             'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'plain_2': {'ids': ['shard-0', 'shard-1'],
             'epc_bytes': [23296, 23296],
             'mac_keys': ['dad11322610b', '136557dd1920'],
             'ring': 'dc3839bac47cebce',
             'cycles': 2271477.5,
             'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'plain_4': {'ids': ['shard-0', 'shard-1', 'shard-2', 'shard-3'],
             'epc_bytes': [11648, 11648, 11648, 11648],
             'mac_keys': ['dad11322610b',
                          '136557dd1920',
                          '4904655fa212',
                          '4be567e895a7'],
             'ring': 'f7ea3694bf6b88d2',
             'cycles': 2366493.0,
             'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'replicated_r2': {'ids': ['shard-0/r0',
                           'shard-0/r1',
                           'shard-1/r0',
                           'shard-1/r1'],
                   'epc_bytes': [11648, 11648, 11648, 11648],
                   'mac_keys': ['136557dd1920',
                                '24940ea97b8f',
                                '8b7e15528303',
                                '0762243820fe'],
                   'ring': 'dc3839bac47cebce',
                   'cycles': 4031494.5,
                   'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'tenancy': {'ids': ['shard-0', 'shard-1'],
             'epc_bytes': [23296, 23296],
             'mac_keys': ['dad11322610b', '136557dd1920'],
             'ring': 'dc3839bac47cebce',
             'cycles': 2261929.75,
             'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'},
 'workers_4': {'ids': ['shard-0', 'shard-1'],
               'epc_bytes': [23296, 23296],
               'mac_keys': ['dad11322610b', '136557dd1920'],
               'ring': 'dc3839bac47cebce',
               'cycles': 2271477.5,
               'responses': '4b88e678184aa9bdcb0d1283b65d9c8fb20dd3b88531496521b8ae941bdcc0a3'}}
GOLDEN_RESTART = {'ids': ['shard-1/r0', 'shard-1/r0'],
 'epc_bytes': [11648, 11648],
 'mac_keys': ['1da17e896ad3', '63f967129cc8']}
GOLDEN_ELASTIC_ADD = {'ids': ['shard-2/r0', 'shard-2/r1'],
 'epc_bytes': [11648, 11648],
 'mac_keys': ['3261b9535f90', '447cb8d03e50'],
 'ring': '55bf27ad8a9533e0',
 'keys_migrated': 46}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_build_is_bit_identical(scenario):
    assert observe(scenario) == GOLDEN[scenario]


def test_restart_seed_rule_is_pinned():
    assert observe_restart() == GOLDEN_RESTART


def test_elastic_add_seed_rule_is_pinned():
    assert observe_elastic_add() == GOLDEN_ELASTIC_ADD


def test_scenarios_cover_the_rules_they_claim_to_pin():
    """The pins are only worth something if they tell the rules apart."""
    built = GOLDEN["replicated_r2"]["mac_keys"]
    for seen in list(GOLDEN.values()) + [GOLDEN_RESTART, GOLDEN_ELASTIC_ADD]:
        assert len(set(seen["mac_keys"])) == len(seen["mac_keys"])
    # Restarted and added enclaves never inherit a built enclave's keys.
    assert not set(GOLDEN_RESTART["mac_keys"]) & set(built)
    assert not set(GOLDEN_ELASTIC_ADD["mac_keys"]) & set(built)
    assert GOLDEN["plain_2"]["mac_keys"] == GOLDEN["plain_4"]["mac_keys"][:2]
    assert GOLDEN["replicated_r2"]["ids"] == [
        "shard-0/r0", "shard-0/r1", "shard-1/r0", "shard-1/r1"]
    assert GOLDEN["durable_r1"]["ids"] == ["shard-0/r0", "shard-1/r0"]
    assert GOLDEN["replicated_r2"]["epc_bytes"][0] * 2 \
        == GOLDEN["plain_2"]["epc_bytes"][0]
    assert GOLDEN["dict_vnodes"]["ring"] != GOLDEN["plain_2"]["ring"]
    # Worker count never moves the simulated clock or a response byte.
    assert (GOLDEN["workers_4"]["cycles"], GOLDEN["workers_4"]["responses"]) \
        == (GOLDEN["plain_2"]["cycles"], GOLDEN["plain_2"]["responses"])
    assert GOLDEN["tenancy"]["responses"] != GOLDEN["plain_2"]["responses"] \
        or GOLDEN["tenancy"]["cycles"] != GOLDEN["plain_2"]["cycles"]
    assert GOLDEN_ELASTIC_ADD["ids"] == ["shard-2/r0", "shard-2/r1"]
    assert GOLDEN_ELASTIC_ADD["keys_migrated"] > 0


if __name__ == "__main__":  # regenerate the constants (see module docstring)
    import pprint
    print("GOLDEN = " + pprint.pformat(
        {scenario: observe(scenario) for scenario in sorted(SCENARIOS)},
        width=79, sort_dicts=False))
    print("GOLDEN_RESTART = " + pprint.pformat(
        observe_restart(), width=79, sort_dicts=False))
    print("GOLDEN_ELASTIC_ADD = " + pprint.pformat(
        observe_elastic_add(), width=79, sort_dicts=False))
