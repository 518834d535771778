"""The event ledger: one type on every live meter, ``Counter`` to every reader.

``CycleMeter.events`` is always a :class:`~repro.sgx.meter.EventCounts` — a
``Counter`` whose item store goes through ``dict``'s C slot (ARCHITECTURE
"The event ledger").  Two things are pinned here:

* **Equivalence.**  Any sequence of what the code base does to a meter —
  bumps, absent reads, ``merge``, ``reset``, the binary round trip,
  ``snapshot``/``delta``, ``pickle``, ``copy.deepcopy`` — leaves the ledger
  equal to a plain ``Counter`` the same sequence was applied to, under every
  reader's operation, and never changes the ledger's type.  The one stated
  difference: ``del events[absent]`` raises ``KeyError``.
* **Reach.**  A fully armed cluster on each backend, driven through a kill,
  a restart and a sealed-state restore, holds an ``EventCounts`` on every
  live meter that can be reached from it, and hands plain ``Counter``
  copies to every reader.
"""

import copy
import pickle
import random
import tempfile
import threading
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    DurabilityConfig,
    FaultyBackend,
    OverloadConfig,
    SocketBackend,
    SocketShard,
    TenancyConfig,
    TenantConfig,
    serve,
)
from repro.cluster.remote import RemoteShardHandle
from repro.cluster.replication import ReplicaState
from repro.cluster.sockbackend import ShardHost
from repro.server import protocol
from repro.sgx.meter import EVENT_TABLE, CycleMeter, EventCounts, MeterSnapshot

# ---------------------------------------------------------------------------
# 1. Equivalence with a plain Counter
# ---------------------------------------------------------------------------

NAMES = list(EVENT_TABLE[::5]) + [
    "tenant_evict_denied:" + token for token in ("0a", "7f3c", "zz")]

names = st.sampled_from(NAMES)
counts = st.integers(min_value=0, max_value=1 << 40)
#: Whole cycles: float sums stay exact whatever order they are taken in.
cycles = st.integers(min_value=0, max_value=1 << 30).map(float)
ledgers = st.dictionaries(names, counts, max_size=5)

steps = st.lists(st.one_of(
    st.tuples(st.just("bump"), names, counts),
    st.tuples(st.just("charge_event"), names, cycles, counts),
    st.tuples(st.just("absent_read"), names),
    st.tuples(st.just("merge"), cycles, ledgers),
    st.tuples(st.just("reset")),
    st.tuples(st.just("wire")),
    st.tuples(st.just("delta")),
    st.tuples(st.just("pickle")),
    st.tuples(st.just("deepcopy")),
), max_size=24)


def _after_the_wire(events: Counter) -> Counter:
    """What the binary form keeps of a ledger, spelled without the meter:
    table names in table order with zero counts gone, then the dynamic
    names sorted (a zero there still rides its own tail entry)."""
    table = {n: events[n] for n in EVENT_TABLE if events[n]}
    tail = {n: events[n] for n in sorted(events) if n not in EVENT_TABLE}
    return Counter({**table, **tail})


def _assert_equal(meter: CycleMeter, ref_cycles: float, ref: Counter,
                  other: Counter) -> None:
    events = meter.events
    assert type(events) is EventCounts
    assert meter.cycles == ref_cycles
    assert events == ref and ref == events
    assert dict(events) == dict(ref)            # same zeros, not just ==
    assert list(events) == list(ref)            # same insertion order
    assert +events == +ref
    assert events - other == ref - other
    assert other - events == other - ref
    assert events + other == ref + other
    assert events.most_common() == ref.most_common()
    assert meter.to_bytes() == MeterSnapshot(ref_cycles, ref).to_bytes()


@given(steps, ledgers)
@settings(max_examples=60, deadline=None)
def test_any_meter_history_matches_a_plain_counter(history, other):
    meter, ref_cycles, ref = CycleMeter(), 0.0, Counter()
    other = Counter(other)
    for step in history:
        kind = step[0]
        if kind == "bump":
            _, name, n = step
            meter.count(name, n)
            ref[name] += n
        elif kind == "charge_event":
            _, name, cost, n = step
            meter.charge_event(name, cost, n)
            ref_cycles += cost
            ref[name] += n
        elif kind == "absent_read":
            name = step[1]
            if name not in ref:
                size = len(meter.events)
                assert meter.events[name] == 0
                assert name not in meter.events
                assert len(meter.events) == size
        elif kind == "merge":
            _, cost, ledger = step
            assert meter.merge(MeterSnapshot(cost, Counter(ledger))) is meter
            ref_cycles += cost
            ref.update(ledger)
        elif kind == "reset":
            meter.reset()
            ref_cycles, ref = 0.0, Counter()
        elif kind == "wire":
            data = meter.to_bytes()
            ledger = meter.events
            assert meter.load_bytes(b"\0" + data, 1) == 1 + len(data)
            assert meter.events is ledger       # loaded in place
            snap = MeterSnapshot.from_bytes(data)
            assert type(snap.events) is Counter
            assert (snap.cycles, snap.events) == (meter.cycles, meter.events)
            ref = _after_the_wire(ref)
        elif kind == "delta":
            before = meter.snapshot()
            assert type(before.events) is Counter
            assert before.events is not meter.events
            meter.count("ecall", 2)
            diff = before.delta(meter.snapshot())
            expected = Counter(ref)
            expected["ecall"] += 2
            expected.subtract(ref)
            assert type(diff.events) is Counter and diff.events == expected
            ref["ecall"] += 2
        elif kind == "pickle":
            meter = pickle.loads(pickle.dumps(meter))
        else:
            assert kind == "deepcopy"
            original, meter = meter, copy.deepcopy(meter)
            assert meter.events is not original.events
        _assert_equal(meter, ref_cycles, ref, other)


def test_the_constructor_copies_instead_of_aliasing():
    mine = Counter(ecall=3)
    meter = CycleMeter(cycles=7.0, events=mine)
    assert type(meter.events) is EventCounts and meter.events == mine
    meter.count("ecall")
    assert mine == Counter(ecall=3)
    assert type(CycleMeter(events=meter.events).events) is EventCounts
    assert CycleMeter(events=meter.events).events is not meter.events
    assert type(CycleMeter().events) is EventCounts


def test_deleting_an_absent_name_is_the_one_difference():
    meter = CycleMeter()
    meter.count("ecall")
    del meter.events["ecall"]
    assert "ecall" not in meter.events
    with pytest.raises(KeyError):
        del meter.events["ecall"]
    plain = Counter()
    del plain["ecall"]  # what the stdlib type does: nothing


# ---------------------------------------------------------------------------
# 2. Reach: every live meter of an armed cluster
# ---------------------------------------------------------------------------

BACKENDS = [
    pytest.param("inline"),
    pytest.param("process", marks=pytest.mark.procs),
    pytest.param("socket", marks=pytest.mark.dist),
]


@contextmanager
def _backend(name):
    """``name``, or — for ``socket`` — a static-mode backend over two shard
    hosts on threads of this process, so the far end of every hop is as
    reachable as the near one."""
    if name != "socket":
        yield name, []
        return
    hosts, threads = [], []
    try:
        for seed in (41, 42):
            host = ShardHost(seed=seed)
            host.start()
            thread = threading.Thread(target=host.serve_forever, daemon=True)
            thread.start()
            hosts.append(host)
            threads.append(thread)
        yield SocketBackend(
            hosts=[(h.host, h.port) for h in hosts],
            expected_measurements=[h.measurement for h in hosts]), hosts
    finally:
        for host in hosts:
            host.stop()
        for thread in threads:
            thread.join(5.0)
            assert not thread.is_alive()


def _frame(rng, n_keys=192, ops=16):
    batch = []
    for _ in range(ops):
        key = b"key-%04d" % rng.randrange(n_keys)
        if rng.random() < 0.5:
            batch.append(protocol.get(key))
        else:
            batch.append(protocol.put(key, b"v" * rng.randrange(1, 48)))
    return batch


def _live_meters(coordinator, hosts):
    """(label, CycleMeter) for every live meter reachable in this process."""
    for group in coordinator.shard_list():
        yield f"{group.shard_id} durability", group.durability.meter
        for replica in group.replicas:
            handle = replica.shard.inner
            label = handle.shard_id
            if not isinstance(handle, RemoteShardHandle):
                yield from _shard_meters(label, handle)
                continue
            yield f"{label} mirror", handle.meter
            if isinstance(handle, SocketShard):
                yield f"{label} hop wire", handle.wire_meter
                yield f"{label} hop session", handle._session.meter
    for host in hosts:
        yield f"host:{host.port} gateway", host.sessions.meter
        for label, shard in host._enclaves.items():
            yield from _shard_meters(f"host:{host.port} {label}", shard)


def _shard_meters(label, shard):
    yield f"{label} enclave", shard.store.enclave.meter
    engine = shard.server.engine
    for lane, meter in enumerate(engine.worker_meters):
        yield f"{label} lane {lane}", meter
    yield f"{label} merged lanes", engine.merged_worker_meter()


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_live_meter_of_an_armed_cluster_holds_the_ledger(backend):
    rng = random.Random(0x1ED6E2)
    with tempfile.TemporaryDirectory() as data_dir, \
            _backend(backend) as (factory, hosts):
        door = serve(ClusterConfig(
            n_shards=2, n_keys=256, scale=2048, batch_window=8, seed=11,
            workers=2, backend=FaultyBackend(factory), replication=2,
            durability=DurabilityConfig(data_dir=data_dir),
            overload=OverloadConfig(),
            tenancy=TenancyConfig(tenants=(
                TenantConfig("whale", cache_quota=0.2),
                TenantConfig("minnow", cache_quota=0.3)))))
        coordinator = door.server.coordinator
        client = None
        try:
            stats = coordinator.stats()
            client = ClusterClient.connect(*door.server.address,
                                           tenant="whale")
            for _ in range(6):
                client.request_batch(_frame(rng))

            # A kill, noticed by the next frame, healed by the monitor.
            victim = coordinator.shard_list()[0].replicas[0]
            victim.shard.kill()
            client.request_batch(_frame(rng))
            assert victim.state is ReplicaState.DOWN
            coordinator.health_monitor.check()
            assert victim.state is ReplicaState.UP
            assert victim.restarts == 1
            for _ in range(4):
                client.request_batch(_frame(rng))

            found = dict(_live_meters(coordinator, hosts))
            found["door gateway"] = door.server.sessions.meter
            found["client wire"] = client.wire_meter
            found["client session"] = client._session.meter

            # 4 replicas, 2 sidecars, door + client wire + client session;
            # an enclave in reach brings itself, 2 lanes and their merge.
            expected = {"inline": 4 * 4 + 2 + 3,
                        "process": 4 + 2 + 3,             # mirrors only
                        "socket": 4 * (1 + 2 + 4) + 2 + 3 + 2}[backend]
            assert len(found) == expected, sorted(found)
            for label, meter in found.items():
                assert type(meter) is CycleMeter, label
                assert type(meter.events) is EventCounts, label
                assert type(meter.snapshot().events) is Counter, label
                assert meter.events, label  # live: something charged it

            # What readers are handed stays a plain Counter.
            for group in coordinator.shard_list():
                assert type(group.meter.events) is Counter
                merged = group.meter.snapshot()
                assert type(merged.events) is Counter
                assert merged.events["op_put"] == sum(
                    r.shard.meter.snapshot().events["op_put"]
                    for r in group.replicas)
                for replica in group.replicas:
                    meter = replica.shard.meter  # live, or a mirror
                    assert type(meter.snapshot().events) is Counter
                assert type(stats._delta(group).events) is Counter
            for baseline in stats._baselines.values():
                assert type(baseline.events) is Counter
            assert stats.report()["cluster"]["window_ops"] == stats.total_ops() > 0
        finally:
            if client is not None:
                client.close()
            door.close()
