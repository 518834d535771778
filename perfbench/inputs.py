"""Seeded inputs and the reference model, owned by the benchmark.

Deliberately independent of ``repro.workloads``: a change under ``src/``
can never alter what the benchmark feeds the program.  Operations are held
as compact arrays (key ids + put flags) and turned into keys, values and
``Request`` objects one call at a time, outside the call timer.

Values are *versioned*: every write carries a fresh sequence number, so a
lost or reordered write is visible to the oracle on the next read of that
key (a workload that re-writes the loaded value cannot see it).
"""

from __future__ import annotations

import bisect
import itertools
import random
from array import array

VALUE_STAMP_BYTES = 16


def make_key(index: int) -> bytes:
    """A fixed 16-byte key, YCSB's ``user<digits>`` style."""
    return b"u%015d" % index


def make_value(key_id: int, seq: int, size: int) -> bytes:
    """``size`` bytes (a multiple of 16) naming the key and the write."""
    return (b"%08x%08x" % (key_id, seq & 0xFFFFFFFF)) \
        * (size // VALUE_STAMP_BYTES)


class OpStream:
    """A reproducible stream of (key id, is-put) pairs.

    ``distribution`` is ``"uniform"`` or ``"zipf"`` (rank *i* is key *i*:
    hot keys are contiguous, the locality the paper's Fig 9 implies).  It
    depends only on ``random.Random(seed).random()`` and float arithmetic.
    """

    def __init__(self, n_keys: int, distribution: str, put_ratio: float,
                 seed: int, theta: float = 0.99):
        if distribution not in ("uniform", "zipf"):
            raise ValueError(f"unknown distribution {distribution!r}")
        self._n_keys = n_keys
        self._put_ratio = put_ratio
        self._random = random.Random(seed).random
        self._cdf = None
        if distribution == "zipf":
            self._cdf = list(itertools.accumulate(
                1.0 / (rank + 1) ** theta for rank in range(n_keys)))

    def take(self, n_ops: int) -> tuple:
        """The next ``n_ops`` operations as ``(array('I'), bytearray)``."""
        rnd = self._random
        put_ratio = self._put_ratio
        if self._cdf is None:
            n_keys = self._n_keys
            ids = array("I", (int(rnd() * n_keys) for _ in range(n_ops)))
        else:
            cdf = self._cdf
            total = cdf[-1]
            find = bisect.bisect_left
            ids = array("I", (find(cdf, rnd() * total)
                              for _ in range(n_ops)))
        puts = bytearray(rnd() < put_ratio for _ in range(n_ops))
        return ids, puts


class Model:
    """The oracle: what every key must hold, updated as writes are issued."""

    def __init__(self, n_keys: int, value_bytes: int):
        if value_bytes % VALUE_STAMP_BYTES:
            raise ValueError("value size must be a multiple of 16")
        self.value_bytes = value_bytes
        self.keys = [make_key(i) for i in range(n_keys)]
        self.values = [make_value(i, 0, value_bytes) for i in range(n_keys)]
        #: Sequence number of the last write issued (0 = the loaded value).
        self.seq = 0

    def load_pairs(self):
        return zip(self.keys, self.values)
