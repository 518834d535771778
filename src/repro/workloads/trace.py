"""Hotset-drift generation (extension).

The paper cites Bodik et al.'s workload-spike study [42] but evaluates
stationary distributions only.  `DriftingWorkload` moves the zipfian hot
set across the keyspace at a configurable period, which stresses exactly
what a FIFO'd Secure Cache must handle: the cached hot nodes turning cold
in place.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator

from repro.workloads.ycsb import Operation, make_key
from repro.workloads.zipf import ZipfianGenerator


@dataclass
class DriftingWorkload:
    """Zipfian traffic whose hot set rotates through the keyspace.

    Every ``drift_period`` operations the rank->key mapping shifts by
    ``drift_step`` keys (mod the keyspace), so yesterday's celebrities go
    cold and new ones appear — Bodik et al.'s spike pattern in its simplest
    form.  ``drift_period=None`` reduces to a stationary zipfian.
    """

    n_keys: int
    read_ratio: float = 0.95
    value_size: int = 16
    skew: float = 0.99
    drift_period: int = 2000
    drift_step: int = 0  # 0 -> jump by a random large offset each period
    seed: int = 0
    _rng: random.Random = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ValueError("read_ratio must be in [0, 1]")
        if self.drift_period is not None and self.drift_period < 1:
            raise ValueError("drift_period must be positive")
        self._rng = random.Random(self.seed)

    def _value_for(self, index: int) -> bytes:
        pattern = b"%08x" % (index & 0xFFFFFFFF)
        reps = -(-self.value_size // len(pattern))
        return (pattern * reps)[: self.value_size]

    def load_items(self) -> Iterator[tuple[bytes, bytes]]:
        for i in range(self.n_keys):
            yield make_key(i), self._value_for(i)

    def operations(self, n_ops: int) -> Iterator[Operation]:
        zipf = ZipfianGenerator(self.n_keys, self.skew, self._rng)
        offset = 0
        for i in range(n_ops):
            if self.drift_period and i and i % self.drift_period == 0:
                if self.drift_step:
                    offset = (offset + self.drift_step) % self.n_keys
                else:
                    offset = self._rng.randrange(self.n_keys)
            index = (zipf.next() + offset) % self.n_keys
            key = make_key(index)
            if self._rng.random() < self.read_ratio:
                yield Operation("get", key)
            else:
                yield Operation("put", key, self._value_for(index))
