"""Hotset-drift workload tests."""

from collections import Counter

import pytest

from repro.workloads.trace import DriftingWorkload


class TestDriftingWorkload:
    def test_stationary_when_period_none(self):
        drifting = DriftingWorkload(n_keys=500, drift_period=None, seed=3)
        counts = Counter(op.key for op in drifting.operations(5000))
        # Stationary zipf: the single hottest key dominates.
        assert counts.most_common(1)[0][1] > 200

    def test_drift_moves_the_hot_set(self):
        drifting = DriftingWorkload(n_keys=500, drift_period=1000, seed=4)
        first = Counter(op.key for op in
                        list(drifting.operations(4000))[:1000])
        # The same stream's final window, after three drifts:
        stream = list(DriftingWorkload(n_keys=500, drift_period=1000,
                                       seed=4).operations(4000))
        last = Counter(op.key for op in stream[3000:])
        assert first.most_common(1)[0][0] != last.most_common(1)[0][0]

    def test_fixed_step_drift(self):
        drifting = DriftingWorkload(n_keys=100, drift_period=10,
                                    drift_step=50, skew=1.2, seed=5,
                                    read_ratio=1.0)
        ops = list(drifting.operations(20))
        # With extreme skew, the modal key of each period differs by the step.
        first_mode = Counter(o.key for o in ops[:10]).most_common(1)[0][0]
        second_mode = Counter(o.key for o in ops[10:]).most_common(1)[0][0]
        assert first_mode != second_mode

    def test_validation(self):
        with pytest.raises(ValueError):
            DriftingWorkload(n_keys=10, read_ratio=2.0)
        with pytest.raises(ValueError):
            DriftingWorkload(n_keys=10, drift_period=0)

    def test_load_items_cover_keyspace(self):
        drifting = DriftingWorkload(n_keys=64)
        assert sum(1 for _ in drifting.load_items()) == 64
