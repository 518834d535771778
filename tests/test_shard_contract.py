"""The shard contract, observed from above: one seeded stream per handle kind.

Everything above a shard — coordinator, replica groups, fault wrappers,
health monitor, elastic engine, stats — reads the same members off
whatever handle it holds.  :func:`observe` drives one seeded stream
through a cluster of each kind (inline / process / socket handles, bare,
behind ``FaultyShard`` in R=1 groups, in R=2 groups with a kill, a
partition and a corruption healed by a ``HealthMonitor``, and one fully
armed durable + tenant + overload + elastic build) and returns what an
operator would see: the ``OP_HEALTH`` JSON and ``ClusterStats.report()``.

The second half checks the contract itself: every concrete handle is a
:class:`~repro.cluster.ShardHandle` and answers every declared member with
the documented default or its own override — so a new handle kind cannot be
half-implemented without a test noticing.

The constants in :data:`PARENT` were produced at the commit *before* the
``ShardHandle`` base class existed (PR 19's parent) by running this file as
a script (``PYTHONPATH=src python tests/test_shard_contract.py``): the
typed contract must leave every one of them where the capability probes
left it.  Regenerate them only for a change that *means* to move what the
health probe or the report says, and say so in the PR.  One was: when fault
injection moved into a backend wrapper, the ``armed`` cluster's replicas
became bare handles, so its report rows lost the wrapper's ``crashed``,
``restarts``, ``partitions``, ``reconnects`` and ``stalls`` keys (every one
0/False there); ``armed``'s ``report_sha256`` is re-recorded for that,
nothing else moved.  Another was: the health monitor's re-sync now deletes
the keys a reconnected replica still holds but its peer deleted, so in
``group_r2`` the partitioned replica's stale key is deleted on re-sync —
one more executed operation (``window_ops`` 732 → 733, and the derived
``aggregate_throughput``) and a new ``report_sha256``; every other
constant is unchanged.
"""

import hashlib
import json
import random
import tempfile

import pytest

from repro.cluster import (
    ClusterConfig,
    DurabilityConfig,
    FaultPlan,
    FaultyBackend,
    FaultyShard,
    HealthMonitor,
    OverloadConfig,
    ProcessShard,
    Replica,
    ReplicaGroup,
    Shard,
    ShardHandle,
    SocketBackend,
    SocketShard,
    TenancyConfig,
    TenantConfig,
    build_replicated_cluster,
    resolve_backend,
)
from repro.errors import ShardCrashedError, ShardUnreachableError
from repro.server import protocol
from repro.server.protocol import Status

N_KEYS = 256
N_FRAMES = 24
FRAME_OPS = 16

#: Explicit worker count and backend everywhere, so the
#: ``ARIA_CLUSTER_BACKEND``/``ARIA_SHARD_WORKERS`` CI matrices cannot move
#: what this file observes.
_BASE = dict(n_shards=2, n_keys=N_KEYS, scale=2048, batch_window=8, seed=11,
             workers=1)

BACKENDS = [
    pytest.param("inline"),
    pytest.param("process", marks=pytest.mark.procs),
    pytest.param("socket", marks=pytest.mark.dist),
]


def _backend(name):
    return SocketBackend(n_hosts=2, seed=3) if name == "socket" else name


class _CountingClock:
    """Every read advances one millisecond: the same decisions on any host."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 0.001
        return self.now


def _build(kind: str, backend: str, data_dir: str):
    """One cluster per handle kind, on ``backend``."""
    factory = _backend(backend)
    if kind == "plain":
        return ClusterConfig(backend=factory, **_BASE).build()
    if kind == "faulty_r1":
        # R=1 groups: every handle the coordinator's groups hold is a
        # FaultyShard around a backend handle.  The partition heals by
        # reconnect (state intact); the corruption surfaces as an alarm.
        plan = (FaultPlan().partition("shard-0/r0", at=40)
                .corrupt("shard-1/r0", at=90))
        coordinator = build_replicated_cluster(ClusterConfig(
            backend=FaultyBackend(factory, plan), **_BASE))
    elif kind == "group_r2":
        # R=2: a kill (restart + re-sync), a partition (reconnect +
        # catch-up) and a corruption (quarantine + failover).
        plan = (FaultPlan().kill("shard-0/r0", at=30)
                .partition("shard-1/r1", at=50)
                .corrupt("shard-1/r0", at=120))
        coordinator = build_replicated_cluster(ClusterConfig(
            backend=FaultyBackend(factory, plan), replication=2, **_BASE))
    else:
        assert kind == "armed"
        # The whole build() path: durable R=2 groups, tenancy, overload,
        # and one live elastic add mid-stream (see observe()).
        return ClusterConfig(
            backend=factory, replication=2, max_shards=3,
            durability=DurabilityConfig(data_dir=data_dir),
            overload=OverloadConfig(),
            tenancy=TenancyConfig(tenants=(
                TenantConfig("whale", rate=400.0, burst=24.0,
                             cache_quota=0.2),
                TenantConfig("minnow", cache_quota=0.3))),
            **_BASE).build(clock=_CountingClock())
    coordinator.health_monitor = HealthMonitor(coordinator, check_every=32)
    return coordinator


def _drive(coordinator, kind: str) -> str:
    rng = random.Random(0x5EA1)
    tenant = "whale" if kind == "armed" else None
    coordinator.load(((b"key-%04d" % i, b"load-%04d" % i)
                      for i in range(N_KEYS // 2)), tenant=tenant)
    digest = hashlib.sha256()
    for frame in range(N_FRAMES):
        if kind == "armed" and frame == N_FRAMES // 3:
            coordinator.elastic.add_shard()
        batch = []
        for _ in range(FRAME_OPS):
            key = b"key-%04d" % rng.randrange(N_KEYS)
            roll = rng.random()
            if roll < 0.5:
                batch.append(protocol.get(key))
            elif roll < 0.9:
                batch.append(protocol.put(key, b"v" * rng.randrange(1, 48)))
            else:
                batch.append(protocol.delete(key))
        for response in coordinator.execute(batch, tenant=tenant):
            value = bytes(response.value)
            digest.update(bytes([int(response.status)])
                          + len(value).to_bytes(4, "little") + value)
    return digest.hexdigest()


def _scrub(node):
    """Drop what is host-dependent by design: OS pids, wall seconds."""
    if isinstance(node, dict):
        return {key: _scrub(value) for key, value in node.items()
                if key not in ("pid", "brownout_seconds")}
    if isinstance(node, list):
        return [_scrub(value) for value in node]
    return node


def observe(kind: str, backend: str) -> dict:
    with tempfile.TemporaryDirectory() as data_dir:
        coordinator = _build(kind, backend, data_dir)
        try:
            stats = coordinator.stats()
            responses = _drive(coordinator, kind)
            health = json.loads(coordinator.health_response().value)
            report = stats.report()
        finally:
            coordinator.close()
    canonical = json.dumps(_scrub(report), sort_keys=True, default=repr)
    return {
        "responses": responses,
        "health": _scrub(health),
        "report_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "cluster": _scrub(report["cluster"]),
    }


KINDS = ("plain", "faulty_r1", "group_r2", "armed")

PARENT = {'plain': {'responses': 'cbfeec5041e15935d88e6c9193c7c6d72d293b14a70351e047b1f15592397149',
           'health': {'elastic': {'active': None,
                                  'dual_applied': 0,
                                  'keys_migrated': 0,
                                  'keys_retired': 0,
                                  'last_abort_reason': '',
                                  'migrations_aborted': 0,
                                  'migrations_completed': 0,
                                  'migrations_started': 0,
                                  'plans_approved': 0,
                                  'plans_rejected': 0,
                                  'rejections': {}},
                      'flush_failures': 0,
                      'n_serving': 2,
                      'n_shards': 2,
                      'ops_routed': 384,
                      'shards': {'shard-0': 'up', 'shard-1': 'up'}},
           'report_sha256': 'd757ae494b93ca3b1f2d357683d8fe0f30de271b210e52e1845b74b1374dfd8e',
           'cluster': {'n_shards': 2,
                       'keys': 176,
                       'window_ops': 293,
                       'cycles_max': 1071228.5,
                       'cycles_sum': 1777974.0,
                       'parallel_efficiency': 0.8298761655426456,
                       'aggregate_throughput': 1148774.51449434,
                       'ecalls': 66,
                       'cache_hit_ratio': 0.0,
                       'elastic': {'migrations_started': 0,
                                   'migrations_completed': 0,
                                   'migrations_aborted': 0,
                                   'keys_migrated': 0,
                                   'keys_retired': 0,
                                   'dual_applied': 0,
                                   'plans_approved': 0,
                                   'plans_rejected': 0,
                                   'rejections': {},
                                   'last_abort_reason': '',
                                   'active': None}}},
 'faulty_r1': {'responses': 'f073ccc7299883645b6190d9229637758901b38eaef25d89625c3dda0d14e7a7',
               'health': {'flush_failures': 0,
                          'n_serving': 1,
                          'n_shards': 2,
                          'ops_routed': 384,
                          'shards': {'shard-0': {'shard-0/r0': 'recovering'},
                                     'shard-1': {'shard-1/r0': 'up'}}},
               'report_sha256': '38d7178ba74b81db02ff66bbcdd69bc80b380209e35245fb96491ab36a95ab09',
               'cluster': {'n_shards': 2,
                           'keys': 158,
                           'window_ops': 140,
                           'cycles_max': 706745.5,
                           'cycles_sum': 901764.0,
                           'parallel_efficiency': 0.6379693963385689,
                           'aggregate_throughput': 831982.6585383281,
                           'ecalls': 35,
                           'cache_hit_ratio': 0.0,
                           'replicas': 2,
                           'replicas_down': 1,
                           'failovers': 1}},
 'group_r2': {'responses': 'cbfeec5041e15935d88e6c9193c7c6d72d293b14a70351e047b1f15592397149',
              'health': {'flush_failures': 0,
                         'n_serving': 2,
                         'n_shards': 2,
                         'ops_routed': 384,
                         'shards': {'shard-0': {'shard-0/r0': 'up',
                                                'shard-0/r1': 'up'},
                                    'shard-1': {'shard-1/r0': 'up',
                                                'shard-1/r1': 'up'}}},
              'report_sha256': 'fb7ca7c1e4bb0fc53dc8068721446def40bd96e6fb55ac4a2133a9ae139387f7',
              'cluster': {'n_shards': 2,
                          'keys': 176,
                          'window_ops': 733,
                          'cycles_max': 1218896.0,
                          'cycles_sum': 2201397.5,
                          'parallel_efficiency': 0.9030292576232919,
                          'aggregate_throughput': 2525728.199944868,
                          'ecalls': 118,
                          'cache_hit_ratio': 0.9715017382043244,
                          'replicas': 4,
                          'replicas_down': 0,
                          'failovers': 1}},
 'armed': {'responses': '38e5f6a32bf76240c5d721e2c2e29e4dbcd9654c7e068c7f0e5fee7a89739a97',
           'health': {'elastic': {'active': None,
                                  'dual_applied': 3,
                                  'keys_migrated': 51,
                                  'keys_retired': 51,
                                  'last_abort_reason': '',
                                  'migrations_aborted': 0,
                                  'migrations_completed': 1,
                                  'migrations_started': 1,
                                  'plans_approved': 1,
                                  'plans_rejected': 0,
                                  'rejections': {}},
                      'flush_failures': 0,
                      'n_serving': 3,
                      'n_shards': 3,
                      'ops_routed': 384,
                      'overload': {'breaker_read_routes': 0,
                                   'breaker_shed': 0,
                                   'breaker_trips': 0,
                                   'breakers': {'shard-0': {'probes': 0,
                                                            'shed': 0,
                                                            'state': 'closed',
                                                            'trips': 0},
                                                'shard-1': {'probes': 0,
                                                            'shed': 0,
                                                            'state': 'closed',
                                                            'trips': 0},
                                                'shard-2': {'probes': 0,
                                                            'shed': 0,
                                                            'state': 'closed',
                                                            'trips': 0}},
                                   'breakers_open': 0,
                                   'brownout_engagements': 0,
                                   'brownout_shed': 0,
                                   'deadline_shed': 0,
                                   'shed': 0},
                      'shards': {'shard-0': {'shard-0/r0': 'up',
                                             'shard-0/r1': 'up'},
                                 'shard-1': {'shard-1/r0': 'up',
                                             'shard-1/r1': 'up'},
                                 'shard-2': {'shard-2/r0': 'up',
                                             'shard-2/r1': 'up'}},
                      'tenancy': {'admitted': {'minnow': 0, 'whale': 278},
                                  'repartitions': 0,
                                  'shed': {'minnow': 0, 'whale': 106},
                                  'tenants': ['minnow', 'whale'],
                                  'unknown_shed': 0}},
           'report_sha256': '70c5c6d3fa698a51662f1e26b69449918f787545d0e4b3352aa83af78a15d10a',
           'cluster': {'n_shards': 2,
                       'keys': 107,
                       'window_ops': 419,
                       'cycles_max': 980769.25,
                       'cycles_sum': 1766565.0,
                       'parallel_efficiency': 0.9006017470470246,
                       'aggregate_throughput': 1794305.8471704735,
                       'ecalls': 94,
                       'cache_hit_ratio': 0.9734666487072039,
                       'replicas': 4,
                       'replicas_down': 0,
                       'failovers': 0,
                       'overload': {'shed': 0,
                                    'deadline_shed': 0,
                                    'breaker_shed': 0,
                                    'brownout_shed': 0,
                                    'breaker_read_routes': 0,
                                    'breaker_trips': 0,
                                    'breakers_open': 0,
                                    'brownout_engagements': 0,
                                    'breakers': {'shard-0': {'state': 'closed',
                                                             'trips': 0,
                                                             'probes': 0,
                                                             'shed': 0},
                                                 'shard-1': {'state': 'closed',
                                                             'trips': 0,
                                                             'probes': 0,
                                                             'shed': 0},
                                                 'shard-2': {'state': 'closed',
                                                             'trips': 0,
                                                             'probes': 0,
                                                             'shed': 0}}},
                       'tenancy': {'tenants': ['minnow', 'whale'],
                                   'admitted': {'minnow': 0, 'whale': 278},
                                   'shed': {'minnow': 0, 'whale': 106},
                                   'unknown_shed': 0,
                                   'repartitions': 0,
                                   'window_evict_denied': 0},
                       'elastic': {'migrations_started': 1,
                                   'migrations_completed': 1,
                                   'migrations_aborted': 0,
                                   'keys_migrated': 51,
                                   'keys_retired': 51,
                                   'dual_applied': 3,
                                   'plans_approved': 1,
                                   'plans_rejected': 0,
                                   'rejections': {},
                                   'last_abort_reason': '',
                                   'active': None}}}}


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("kind", KINDS)
def test_health_and_report_match_the_parent_commit(kind, backend):
    """Simulated columns are backend-invariant, so one constant per kind
    serves all three backends."""
    assert observe(kind, backend) == PARENT[kind]


# -- the contract itself ----------------------------------------------------------

#: Every optional member :class:`ShardHandle` declares, with its default.
DEFAULTS = {"crashed": False, "partitioned": False, "replicas": None,
            "durability": None, "failovers": 0}

#: What each concrete handle overrides at rest (everything else: DEFAULTS).
CONCRETE = {"inline": (Shard, {}),
            "process": (ProcessShard, {}),
            "socket": (SocketShard, {})}

_GET = [protocol.get(b"key-0001")]


@pytest.fixture()
def make_handle(request):
    """``make(backend)`` -> a loaded concrete handle; all released after."""
    factories = []

    def make(backend: str, shard_id: str = "shard-x"):
        factory = resolve_backend(
            SocketBackend(n_hosts=1, seed=3) if backend == "socket"
            else backend)
        factories.append(factory)
        config = ClusterConfig(backend=factory, **_BASE)
        handle = factory.create(config.enclave_spec(shard_id, seed=11))
        handle.store.load([(b"key-%04d" % i, b"v%d" % i) for i in range(8)])
        return handle

    yield make
    for factory in factories:
        factory.close()


def _assert_answers(handle, overrides):
    """Every required member is there; every optional one has its default
    or the override the handle documents."""
    assert isinstance(handle, ShardHandle)
    assert isinstance(handle.shard_id, str)
    assert handle.epc_bytes > 0 and handle.ops_routed == 0
    assert handle.meter.snapshot().cycles == handle.meter.cycles
    assert handle.stats()["shard"] == handle.shard_id
    [response] = handle.server.flush_batch(_GET)
    assert response.status == Status.OK and handle.store.get(b"key-0002")
    expected = dict(DEFAULTS, **overrides)
    for name, value in expected.items():
        assert getattr(handle, name) == value, name
    handle.mark_load()
    assert handle.load_since_mark() == 0.0
    handle.server.flush_batch(_GET)
    assert handle.load_since_mark() > 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_concrete_handle_answers_every_member(backend, make_handle):
    kind, overrides = CONCRETE[backend]
    handle = make_handle(backend)
    assert type(handle) is kind
    _assert_answers(handle, overrides)
    # No secondary to read from; a planted corruption trips the next read.
    assert handle.flush_reads_fallback(_GET) is None
    assert handle.plant_corruption(b"key-0003") is True
    [alarm] = handle.server.flush_batch([protocol.get(b"key-0003")])
    assert alarm.status == Status.INTEGRITY_FAILURE
    handle.heal()
    if backend == "socket":
        # The one handle that models its own link.
        handle.partition()
        assert handle.partitioned
        with pytest.raises(ShardUnreachableError):
            handle.server.flush_batch(_GET)
        assert handle.reconnect() is True and not handle.partitioned
    else:
        handle.partition()
        assert not handle.partitioned and handle.reconnect() is False
    handle.server.flush_batch(_GET)  # still serving either way
    handle.kill()
    # An in-process enclave only dies behind a FaultyShard; a worker or a
    # hosted enclave dies for real.
    assert handle.crashed == (backend != "inline")
    handle.close()
    handle.close()  # idempotent


@pytest.mark.parametrize("backend", BACKENDS)
def test_faulty_wrapper_answers_every_member(backend, make_handle):
    wrapper = FaultyShard(make_handle(backend))
    _assert_answers(wrapper, {})
    assert wrapper.flush_reads_fallback(_GET) is None
    wrapper.partition()
    assert wrapper.partitioned and wrapper.partitions == 1
    assert wrapper.inner.partitioned == (backend == "socket")
    with pytest.raises(ShardUnreachableError):
        wrapper.server.flush_batch(_GET)
    assert wrapper.reconnect() is True and not wrapper.partitioned
    assert wrapper.reconnects == 1
    wrapper.corrupt(b"key-0003")
    assert wrapper.corruptions == 1
    wrapper.kill()
    assert wrapper.crashed and wrapper.reconnect() is False
    assert wrapper.inner.crashed == (backend != "inline")
    with pytest.raises(ShardCrashedError):
        wrapper.server.flush_batch(_GET)
    # A restart replaces the whole handle, through the replica's recipe.
    replica = Replica(wrapper)
    replica.rebuild = lambda: FaultyShard(make_handle(backend, "shard-x-1"))
    replica.restart()
    fresh = replica.shard
    assert fresh is not wrapper and not fresh.crashed
    assert fresh.shard_id == "shard-x-1" and replica.restarts == 1
    fresh.server.flush_batch(_GET)
    fresh.close()


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("replication", [1, 2])
def test_replica_group_answers_every_member(replication, backend,
                                            make_handle):
    members = [FaultyShard(make_handle(backend, "shard-x/r%d" % j))
               for j in range(replication)]
    group = ReplicaGroup("shard-x", members)
    assert group.server is group
    assert [r.shard for r in group.replicas] == members
    _assert_answers(group, {"replicas": group.replicas})
    # Reads avoid the primary when there is a secondary to take them.
    [response] = group.flush_reads_fallback(_GET)
    assert response.status == Status.OK
    assert group.read_fallbacks == (1 if replication == 2 else 0)
    members[0].kill()
    [response] = group.flush_batch(_GET)
    if replication == 2:
        assert response.status == Status.OK and group.failovers == 1
    else:
        assert response.status == Status.UNAVAILABLE
    group.close()


def test_no_capability_probing_above_the_seam():
    """The CI grep gate, runnable locally: callers read declared members.
    ``rpc.py`` keeps two reads of *declared* error attributes by name."""
    import pathlib
    import re

    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
    files = [*(src / "cluster").glob("*.py"), *(src / "persist").glob("*.py"),
             src / "cli.py"]
    probes = [f"{path.name}:{n}" for path in files if path.name != "rpc.py"
              for n, line in enumerate(path.read_text().splitlines(), 1)
              if re.search(r"\b(getattr|hasattr)\(", line)]
    assert probes == []


if __name__ == "__main__":  # regenerate PARENT
    import pprint

    seen = {}
    for kind in KINDS:
        seen[kind] = observe(kind, "inline")
        for backend in ("process", "socket"):
            other = observe(kind, backend)
            assert other == seen[kind], (kind, backend, other, seen[kind])
    print("PARENT = " + pprint.pformat(seen, width=78, sort_dicts=False))
