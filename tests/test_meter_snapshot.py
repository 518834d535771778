"""Meter serialization: the accounting that crosses the process pipe.

The process backend ships every worker reply with the shard's *absolute*
meter state as ``MeterSnapshot.to_dict()``; the parent rebuilds its mirror
with ``from_dict`` + ``merge``.  Exact cycle equality between backends
(asserted in ``test_cluster_backends.py``) only holds if that round-trip
is lossless — which is what the properties here pin down.
"""

import json
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sgx.meter import CycleMeter, MeterSnapshot

EVENT_NAMES = ["ecall", "ocall", "page_swap", "mt_verify", "cache_hit",
               "cache_miss", "op_get", "op_put", "enc_bytes"]

meters = st.builds(
    lambda cycles, events: CycleMeter(cycles=cycles, events=Counter(events)),
    st.floats(min_value=0, max_value=1e12, allow_nan=False,
              allow_infinity=False),
    st.dictionaries(st.sampled_from(EVENT_NAMES),
                    st.integers(min_value=0, max_value=1 << 40)),
)


@given(meters)
@settings(max_examples=50, deadline=None)
def test_snapshot_dict_round_trip_is_lossless(meter):
    snap = meter.snapshot()
    # The dict form must survive pickling-equivalent JSON transport.
    wire = json.loads(json.dumps(snap.to_dict()))
    back = MeterSnapshot.from_dict(wire)
    assert back.cycles == snap.cycles
    assert back.events == snap.events


@given(meters)
@settings(max_examples=50, deadline=None)
def test_reset_then_merge_reconstructs_exactly(meter):
    # The parent-side mirror protocol: reset, then merge one absolute
    # snapshot.  Must reproduce the worker's meter bit-for-bit.
    snap = MeterSnapshot.from_dict(meter.snapshot().to_dict())
    mirror = CycleMeter()
    mirror.reset()
    mirror.merge(snap)
    assert mirror.cycles == meter.cycles
    assert +mirror.events == +meter.events  # ignore zero-count entries


@given(meters, meters)
@settings(max_examples=50, deadline=None)
def test_merge_accumulates_both_sides(a, b):
    merged = CycleMeter().merge(a.snapshot()).merge(b.snapshot())
    assert merged.cycles == a.cycles + b.cycles
    for name in EVENT_NAMES:
        assert merged.events[name] == a.events[name] + b.events[name]


def test_snapshot_of_snapshot_is_itself():
    snap = CycleMeter(cycles=7.5, events=Counter(ecall=3)).snapshot()
    assert snap.snapshot() is snap


def test_cluster_stats_accepts_snapshots_and_live_meters():
    """Aggregation treats a frozen snapshot exactly like a live meter."""
    from repro.cluster import ClusterStats, ShardHandle

    class FakeShard(ShardHandle):
        def __init__(self, shard_id, meter):
            self.shard_id = shard_id
            self.meter = meter

    live = CycleMeter(cycles=100.0, events=Counter(op_get=4, ecall=2))
    frozen = MeterSnapshot(cycles=250.0,
                           events=Counter(op_put=6, ecall=1))
    stats = ClusterStats([FakeShard("live", live),
                          FakeShard("frozen", frozen)])
    # The window opened at construction: nothing has happened yet.
    assert stats.total_ops() == 0
    assert stats.cycles_sum() == 0.0

    live.charge_event("op_get", 50.0, 3)
    # The frozen shard cannot move; the live one shows its delta.
    assert stats.total_ops() == 3
    assert stats.cycles_max() == 50.0
    assert stats.cycles_sum() == 50.0
