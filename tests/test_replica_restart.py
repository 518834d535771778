"""Restarts belong to the replica, not to the fault wrapper.

A replica group built without a FaultyBackend holds bare backend handles,
and the HealthMonitor must still bring a dead or quarantined replica back:
the rebuild recipe lives on the :class:`~repro.cluster.replication.Replica`
that ``build_replica_group`` creates.  Two failures, each ending UP with
every acknowledged write readable: a process-backed replica after a real
``kill()`` (SIGKILL of its worker), and an inline replica quarantined for
an integrity alarm.
"""

import os

import pytest

from repro.cluster import (
    ClusterConfig,
    FaultyShard,
    HealthMonitor,
    ReplicaState,
    build_replicated_cluster,
)
from repro.server import protocol
from repro.server.protocol import STATUS_OK

from tests.chaos import History

N_KEYS = 48


def bare_cluster(backend):
    coord = build_replicated_cluster(ClusterConfig(
        n_shards=1, replication=2, n_keys=128, scale=2048, batch_window=8,
        backend=backend))
    coord.load((b"k-%03d" % i, b"v-%03d" % i) for i in range(N_KEYS))
    group = coord.shards["shard-0"]
    assert not any(isinstance(r.shard, FaultyShard) for r in group.replicas)
    return coord, group


def write_round(coord, history, tag):
    batch = [protocol.put(b"k-%03d" % i, b"%s-%03d" % (tag, i))
             for i in range(0, N_KEYS, 3)]
    history.record(batch, coord.execute(batch))
    assert all(history.acked[r.key] == r.value for r in batch)


@pytest.mark.procs
def test_killed_process_replica_restarts_to_up():
    coord, group = bare_cluster("process")
    try:
        history = History()
        victim = group.replicas[1]
        old_pid = victim.shard.pid
        victim.shard.kill()
        with pytest.raises(ProcessLookupError):
            os.kill(old_pid, 0)  # really dead, to the OS
        write_round(coord, history, b"a")  # the fan-out notices the death
        assert victim.state is ReplicaState.DOWN

        HealthMonitor(coord, check_every=1).check()
        assert victim.state is ReplicaState.UP and victim.restarts == 1
        assert victim.shard.pid != old_pid
        write_round(coord, history, b"b")
        history.readback(coord.get)
        # The respawned replica holds the acked writes itself.
        for key, value in history.acked.items():
            assert victim.shard.store.get(key) == value
    finally:
        coord.close()


def test_quarantined_inline_replica_restarts_to_up():
    coord, group = bare_cluster("inline")
    try:
        history = History()
        write_round(coord, history, b"a")
        victim = group.replicas[0]
        assert victim.shard.plant_corruption(b"k-000")
        [response] = coord.execute([protocol.get(b"k-000")])
        assert response.status == STATUS_OK  # served by the peer
        assert victim.state is ReplicaState.DOWN
        assert victim.last_reason == "integrity"
        quarantined = victim.shard

        HealthMonitor(coord, check_every=1).check()
        assert victim.state is ReplicaState.UP and victim.restarts == 1
        assert victim.shard is not quarantined  # a fresh enclave
        write_round(coord, history, b"b")
        history.readback(coord.get)
        for key, value in history.acked.items():
            assert victim.shard.store.get(key) == value
    finally:
        coord.close()
