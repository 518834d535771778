"""Five planted defects, each of which must fail the scenario that catches it.

The gauntlets' shared oracle (``tests/chaos.py``) replaced seven hand-written
acked-write checks; this module is the evidence that it is not weaker.  Each
test plants one defect with ``monkeypatch`` — a one-line edit of a method's
source, recompiled in its own module, or a method replaced outright — and
runs the scenario that caught it before the oracle existed.  The scenario
must fail, and fail the way it did then: each ``pytest.raises`` names the
assertion that fired (its message), so a scenario that fails on some other,
unrelated check does not count as a catch.

Every scenario runs on the inline backend (the ``cluster_backend`` fixture
pins it), so a planted edit is live wherever the enclave code runs.  The
module reports its own runtime, which is what it adds to tier-1.
"""

import contextlib
import inspect
import textwrap
import time

import pytest

from repro.cluster.elastic import ElasticCluster
from repro.cluster.health import HealthMonitor
from repro.cluster.replication import ReplicaGroup
from repro.cluster.session import SecureSession
from repro.persist.durability import PartitionDurability

from tests import test_cluster_elastic as elastic
from tests import test_cluster_faults as faults
from tests import test_durability_barrier as barrier
from tests import test_durability_recovery as recovery
from tests import test_wire_session as wire

_FAILED = pytest.fail.Exception  # a pytest.raises that did not raise


@pytest.fixture(scope="module", autouse=True)
def report_runtime(request):
    start = time.perf_counter()
    yield
    plugins = request.config.pluginmanager
    reporter = plugins.get_plugin("terminalreporter")
    capture = plugins.get_plugin("capturemanager")
    if reporter is not None:
        with (capture.global_and_fixture_disabled() if capture is not None
              else contextlib.nullcontext()):
            reporter.write_line(f"\nplanted mutations: "
                                f"{time.perf_counter() - start:.2f} s")


def plant(monkeypatch, owner, name, old, new):
    """Replace ``owner.name`` by its own source with ``old`` -> ``new``."""
    method = getattr(owner, name)
    source = textwrap.dedent(inspect.getsource(method))
    assert source.count(old) == 1, f"{old!r} is not one line of {name}"
    namespace = {}
    exec(compile(source.replace(old, new), inspect.getsourcefile(method),
                 "exec"), method.__globals__, namespace)
    monkeypatch.setattr(owner, name, namespace[name])


def test_skipped_write_fan_out(monkeypatch, cluster_backend, fault_record):
    """Acked before the peers have the write: a killed primary's peer never
    sees enough writes for the plan to fire, or serves a stale value."""
    plant(monkeypatch, ReplicaGroup, "flush_batch", "if writes:", "if False:")
    with pytest.raises(AssertionError, match=r"fault plan fired 3 of 4"):
        faults.TestChaos() \
            .test_single_replica_kills_lose_no_acknowledged_write(fault_record)


def test_skipped_durability_barrier(monkeypatch, cluster_backend):
    """Acked before ``sync()``: a power cut loses a write already acked."""
    plant(monkeypatch, ReplicaGroup, "_settle",
          "self.durability.sync()", "pass")
    power_loss = barrier.TestPowerLoss()
    # A key acked before the cut reads back missing ...
    with pytest.raises(AssertionError, match=r"assert None in \("):
        power_loss \
            .test_every_acked_write_survives_a_cut_at_any_stage_or_barrier()
    # ... or older than its ack.
    with pytest.raises(AssertionError, match=r"assert b'c5' == b'c6'"):
        power_loss.test_a_cut_after_the_call_returns_loses_nothing()


def test_skipped_dual_apply(monkeypatch, cluster_backend, fault_record):
    """A write behind the copy cursor never reaches the joining shard."""
    monkeypatch.setattr(ElasticCluster, "_dual_apply",
                        lambda self, migration, requests, responses: None)
    with pytest.raises(AssertionError, match=r"lost acked write on"):
        elastic.TestChaosGauntlet() \
            .test_staged_faults_at_every_stage_lose_nothing(fault_record)


def test_accepted_stale_counter(monkeypatch, cluster_backend, tmp_path):
    """A rolled-back snapshot/log pair recovers instead of being refused.
    The durable gauntlet alone does not catch this; the rollback tests do."""
    plant(monkeypatch, PartitionDurability, "recover",
          "if counter > replayed.last_epoch:", "if False:")
    recovered = []
    recover = HealthMonitor.recover_from_storage

    def spy(self, group, replica=None):  # unplanted: RollbackDetectedError
        report = recover(self, group, replica)
        recovered.append(group.shard_id)
        return report

    monkeypatch.setattr(HealthMonitor, "recover_from_storage", spy)
    partition = recovery.TestWholePartitionRecovery()
    for scenario in (
            partition.test_stale_rollback_is_rejected_and_replicas_stay_down,
            partition.test_offline_truncation_across_epochs_is_rejected):
        recovered.clear()
        # The test unpacks the one RollbackDetectedError it expects ...
        with pytest.raises(ValueError, match=r"expected 1, got 0"):
            scenario()
        # ... because the monitor took the stale disk back instead.
        assert recovered == ["shard-0"]
    with pytest.raises(_FAILED, match=r"DID NOT RAISE.*RollbackDetected"):
        recovery.TestColdStartRestore() \
            .test_rollback_refuses_the_cold_start(tmp_path)


def test_dropped_session_seq_check(monkeypatch, cluster_backend,
                                   fault_record):
    """A replayed response frame is accepted as the next answer."""
    plant(monkeypatch, SecureSession, "open",
          "if seq <= self._recv_seq:", "if False:")
    wire_faults = wire.TestWireFaults()
    # The replayed answer to key-006 is taken as key-007's ...
    with pytest.raises(AssertionError,
                       match=r"assert b'val-006' == b'val-007'"):
        wire_faults.test_replay_fault_is_caught_and_reads_ride_it_out(
            wire.wire_cluster())
    # ... and the gauntlet's replay goes unnoticed.
    with pytest.raises(AssertionError, match=r"'ReplayError'"):
        wire_faults.test_chaos_gauntlet_loses_no_acked_writes(
            wire.wire_cluster(), fault_record)
