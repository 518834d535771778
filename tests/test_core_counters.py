"""Redirection layer / counter manager tests."""

import pytest

from repro.core.config import AriaConfig
from repro.core.counters import CounterManager
from repro.errors import CounterReuseError
from repro.sgx.costs import SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.meter import MeterPause


def make_manager(initial=64, **kwargs):
    enclave = Enclave(SgxPlatform(epc_bytes=16 << 20))
    defaults = dict(
        initial_counters=initial,
        merkle_arity=4,
        secure_cache_bytes=1 << 16,
        expansion_cache_bytes=1 << 16,
        stop_swap_enabled=False,
    )
    defaults.update(kwargs)
    with MeterPause(enclave.meter):
        manager = CounterManager(enclave, AriaConfig(**defaults))
    return manager, enclave


class TestFetchFree:
    def test_fetch_returns_distinct_ids(self):
        manager, _ = make_manager()
        ids = {manager.fetch() for _ in range(64)}
        assert len(ids) == 64

    def test_free_then_fetch_recycles(self):
        manager, _ = make_manager()
        first = manager.fetch()
        manager.free(first)
        ids = {manager.fetch() for _ in range(64)}
        assert first in ids

    def test_is_used_tracks_state(self):
        manager, _ = make_manager()
        red_ptr = manager.fetch()
        assert manager.is_used(red_ptr)
        manager.free(red_ptr)
        assert not manager.is_used(red_ptr)

    def test_double_free_detected(self):
        manager, _ = make_manager()
        red_ptr = manager.fetch()
        manager.free(red_ptr)
        with pytest.raises(CounterReuseError):
            manager.free(red_ptr)

    def test_attacked_free_ring_detected(self):
        # Overwrite the untrusted ring so it hands out an in-use counter.
        manager, enclave = make_manager()
        in_use = manager.fetch()
        area = manager.areas[0]
        # Poison the next slot that will be popped.
        next_slot = area.ring_addr + area.tail * 8
        enclave.untrusted.tamper(next_slot, in_use.to_bytes(8, "little"))
        with pytest.raises(CounterReuseError, match="attack"):
            manager.fetch()

    def test_invalid_ring_id_detected(self):
        manager, enclave = make_manager()
        area = manager.areas[0]
        next_slot = area.ring_addr + area.tail * 8
        enclave.untrusted.tamper(next_slot, (999).to_bytes(8, "little"))
        with pytest.raises(CounterReuseError):
            manager.fetch()


class TestExpansion:
    def test_fresh_ring_holds_every_id_in_order(self):
        """The ring is seeded by one packed write; slot ``i`` still holds
        id ``i``, little-endian, 8 bytes wide — initial area and expansion."""
        manager, enclave = make_manager(initial=8, expansion_counters=300)
        for _ in range(9):
            manager.fetch()  # the ninth builds the expansion area
        for area in manager.areas:
            ring = enclave.untrusted.snoop(area.ring_addr, area.capacity * 8)
            assert ring == b"".join(
                i.to_bytes(8, "little") for i in range(area.capacity))

    def test_exhaustion_builds_new_area(self):
        manager, _ = make_manager(initial=8, expansion_counters=8)
        for _ in range(8):
            manager.fetch()
        assert manager.n_areas == 1
        extra = manager.fetch()  # triggers MT expansion
        assert manager.n_areas == 2
        assert extra >= 1 << 40  # second area's id range

    def test_expansion_counters_are_usable(self):
        manager, _ = make_manager(initial=4, expansion_counters=4)
        ids = [manager.fetch() for _ in range(6)]
        for red_ptr in ids:
            value = manager.increment_counter(red_ptr)
            assert manager.read_counter(red_ptr) == value


class TestCounterAccess:
    def test_increment_changes_value(self):
        manager, _ = make_manager()
        red_ptr = manager.fetch()
        before = manager.read_counter(red_ptr)
        after = manager.increment_counter(red_ptr)
        assert after != before
        assert manager.read_counter(red_ptr) == after

    def test_bad_red_ptr_rejected(self):
        from repro.errors import IntegrityError

        manager, _ = make_manager()
        with pytest.raises(IntegrityError):
            manager.read_counter(1 << 50)
        with pytest.raises(IntegrityError):
            manager.read_counter(63_000)

    def test_cache_stats_aggregate(self):
        manager, _ = make_manager(pin_levels=1)
        red_ptr = manager.fetch()
        manager.read_counter(red_ptr)
        manager.read_counter(red_ptr)
        stats = manager.cache_stats()
        assert stats["hits"] + stats["misses"] == 2
