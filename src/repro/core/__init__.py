"""Aria core: configuration, counters, records, and the store facade."""

from repro.core.config import AriaConfig
from repro.core.counters import CounterManager
from repro.core.record import OpenedRecord, RecordCodec, record_size
from repro.core.store import AriaStore

__all__ = [
    "AriaConfig",
    "AriaStore",
    "CounterManager",
    "OpenedRecord",
    "RecordCodec",
    "record_size",
]
