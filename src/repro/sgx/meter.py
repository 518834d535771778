"""Cycle accounting: the simulated performance counter of the enclave.

Every enclave-side primitive charges cycles here.  Benchmarks snapshot the
meter around an operation stream and convert ``cycles / ops`` into a
throughput figure via the platform clock (``ops/s = cpu_hz / cycles_per_op``),
mirroring the paper's single-thread throughput numbers.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from operator import itemgetter
from typing import Optional

from repro.errors import ProtocolError

#: The closed, sorted table of event names an enclave meter counts.  A
#: name's position is its slot in the binary form below, so both ends of a
#: shard hop read it from here; a name outside it (the per-tenant
#: ``tenant_evict_denied:<token>``) rides the dynamic tail instead.
EVENT_TABLE = tuple(sorted((
    "batchexec_batch", "batchexec_conflict_raw", "batchexec_conflict_war",
    "batchexec_conflict_waw", "batchexec_deferred",
    "batchexec_fallback_round", "batchexec_round", "cache_evict",
    "cache_hit", "cache_miss", "cache_writeback", "ctr_increment",
    "ctr_read", "ecall", "enc_bytes", "epc_access", "exec_commit",
    "heap_alloc", "heap_free", "mac_bytes", "mac_ops", "mt_expansion",
    "mt_verify", "ocall", "op_delete", "op_get", "op_put", "page_swap",
    "page_writeback", "resv_read", "resv_write", "stop_swap",
    "tenant_evict_denied", "untrusted_access",
)))
_TABLE_NAMES = frozenset(EVENT_TABLE)
#: cycles (f64) | one i64 per table name | number of dynamic entries (u16)
_FIXED = struct.Struct(f"<d{len(EVENT_TABLE)}qH")
#: count (i64) | name length (u16), then the utf-8 name
_DYNAMIC = struct.Struct("<qH")
_ZEROS = (0,) * len(EVENT_TABLE)
_COUNT_OF = itemgetter(1)


def _to_bytes(meter) -> bytes:
    """The binary form of a meter or a snapshot, read off it in place."""
    events = meter.events
    dynamic = () if _TABLE_NAMES.issuperset(events) \
        else sorted(events.keys() - _TABLE_NAMES)
    parts = [_FIXED.pack(meter.cycles, *map(events.get, EVENT_TABLE, _ZEROS),
                         len(dynamic))]
    for name in dynamic:
        raw = name.encode()
        parts.append(_DYNAMIC.pack(events[name], len(raw)) + raw)
    return b"".join(parts)


class EventCounts(Counter):
    """The live event ledger: a ``Counter`` whose stores take ``dict``'s slot.

    ``Counter`` defines ``__delitem__`` in Python, so CPython fills its
    item-assignment slot with the generic one and every ``events[k] += n``
    looks ``__setitem__`` up through the MRO; naming ``dict``'s own wrappers
    for both methods puts the C slot back (ARCHITECTURE "The event ledger").
    Readers keep ``Counter`` semantics; the one difference is that ``del
    events[absent]`` raises ``KeyError`` where ``Counter`` swallows it —
    nothing deletes from a live ledger.
    """

    __slots__ = ()
    __setitem__ = dict.__setitem__
    __delitem__ = dict.__delitem__


@dataclass
class MeterSnapshot:
    """An immutable point-in-time copy of the meter, for before/after diffs."""

    cycles: float
    events: Counter

    def delta(self, later: "MeterSnapshot") -> "MeterSnapshot":
        events = Counter(later.events)
        events.subtract(self.events)
        return MeterSnapshot(cycles=later.cycles - self.cycles, events=events)

    def snapshot(self) -> "MeterSnapshot":
        """A snapshot of a snapshot is itself.

        Lets aggregation code (``ClusterStats``, replica-group meters) accept
        a live ``CycleMeter`` and a frozen ``MeterSnapshot`` interchangeably.
        """
        return self

    def to_dict(self) -> dict:
        """A plain-builtins form that survives pickling and JSON round-trips."""
        return {"cycles": self.cycles, "events": dict(self.events)}

    @classmethod
    def from_dict(cls, payload: dict) -> "MeterSnapshot":
        return cls(cycles=float(payload["cycles"]),
                   events=Counter(payload["events"]))

    to_bytes = _to_bytes

    @classmethod
    def from_bytes(cls, data: bytes) -> "MeterSnapshot":
        meter = CycleMeter()
        if meter.load_bytes(data) != len(data):
            raise ProtocolError("trailing bytes after meter")
        return meter.snapshot()


class CycleMeter:
    """Accumulates simulated cycles plus named event counts.

    Event names used across the simulator:

    - ``page_swap``, ``page_writeback`` — hardware secure paging
    - ``ecall``, ``ocall`` — enclave boundary crossings
    - ``mac_bytes``, ``enc_bytes`` — crypto volume
    - ``mt_verify`` — Merkle-node MAC verifications
    - ``cache_hit``, ``cache_miss``, ``cache_evict``, ``cache_writeback`` —
      Secure Cache behaviour
    - ``untrusted_access``, ``epc_access`` — memory traffic

    :meth:`charge`, :meth:`count` and :meth:`charge_event` are the public
    definition of a charge.  :class:`~repro.sgx.enclave.Enclave`'s
    primitives spell the same three statements inline (one Python call per
    simulated primitive instead of three; ARCHITECTURE "Host-time hot
    path"), which is why ``cycles``, ``events`` and ``enabled`` are plain
    slots — and why ``events`` is always an :class:`EventCounts`, built here
    and only ever mutated in place, never the caller's ``Counter``.
    """

    __slots__ = ("cycles", "events", "enabled")

    def __init__(self, cycles: float = 0.0,
                 events: Optional[Counter] = None):
        self.cycles = cycles
        self.events = EventCounts(events)
        self.enabled = True

    def charge(self, cycles: float) -> None:
        if self.enabled:
            self.cycles += cycles

    def count(self, event: str, n: int = 1) -> None:
        if self.enabled:
            self.events[event] += n

    def charge_event(self, event: str, cycles: float, n: int = 1) -> None:
        if self.enabled:
            self.cycles += cycles
            self.events[event] += n

    def snapshot(self) -> MeterSnapshot:
        return MeterSnapshot(cycles=self.cycles, events=Counter(self.events))

    to_bytes = _to_bytes

    def load_bytes(self, data: bytes, offset: int = 0,
                   limit: Optional[int] = None) -> int:
        """Replace this meter's state with the binary form at ``offset``
        (which may not pass ``limit``); returns where it ended.  A zero
        count is an absent name."""
        if limit is None:
            limit = len(data)
        end = offset + _FIXED.size
        if end > limit:
            raise ProtocolError("truncated meter")
        cycles, *counts, n_dynamic = _FIXED.unpack_from(data, offset)
        events = self.events
        events.clear()
        dict.update(events, filter(_COUNT_OF, zip(EVENT_TABLE, counts)))
        for _ in range(n_dynamic):
            start = end + _DYNAMIC.size
            if start > limit:
                raise ProtocolError("truncated meter event")
            count, name_len = _DYNAMIC.unpack_from(data, end)
            end = start + name_len
            if end > limit:
                raise ProtocolError("truncated meter event name")
            try:
                events[data[start:end].decode()] = count
            except UnicodeDecodeError:
                raise ProtocolError("meter event name is not UTF-8") from None
        self.cycles = cycles
        return end

    def merge(self, other: "CycleMeter | MeterSnapshot") -> "CycleMeter":
        """Fold another meter's accumulated charges into this one.

        Used to aggregate per-enclave accounting that crossed a process
        boundary as a :class:`MeterSnapshot` (and by replica groups that sum
        event counters across copies).  Respects ``enabled`` deliberately
        *not* at all: merging is bookkeeping, not a metered operation.
        """
        self.cycles += other.cycles
        self.events.update(other.events)
        return self

    def reset(self) -> None:
        self.cycles = 0.0
        self.events.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        top = ", ".join(f"{k}={v}" for k, v in self.events.most_common(6))
        return f"CycleMeter(cycles={self.cycles:.0f}, {top})"


class MeterPause:
    """Context manager that suspends charging (e.g. during bulk data load).

    The paper's throughput numbers are for the steady-state run phase; the
    load phase is excluded.  ``with MeterPause(meter): load()`` makes that
    explicit and cheap.
    """

    def __init__(self, meter: CycleMeter):
        self._meter = meter
        self._was_enabled = meter.enabled

    def __enter__(self) -> "MeterPause":
        self._was_enabled = self._meter.enabled
        self._meter.enabled = False
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._meter.enabled = self._was_enabled
