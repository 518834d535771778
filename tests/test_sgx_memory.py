"""Untrusted memory region tests."""

import copy
import pickle
from bisect import bisect_right

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import AriaError
from repro.sgx.memory import NULL, UntrustedMemory


def test_alloc_returns_distinct_nonnull_addresses():
    mem = UntrustedMemory()
    a = mem.alloc(32)
    b = mem.alloc(32)
    assert a != NULL and b != NULL
    assert a != b


def test_read_after_write_roundtrip():
    mem = UntrustedMemory()
    addr = mem.alloc(64)
    mem.write(addr + 8, b"hello world")
    assert mem.read(addr + 8, 11) == b"hello world"
    # Untouched bytes remain zero.
    assert mem.read(addr, 8) == b"\x00" * 8


def test_regions_are_isolated():
    mem = UntrustedMemory()
    a = mem.alloc(16)
    mem.alloc(16)
    with pytest.raises(AriaError):
        mem.read(a, 32)  # crossing into the guard gap


def test_invalid_address_rejected():
    mem = UntrustedMemory()
    with pytest.raises(AriaError):
        mem.read(NULL, 1)


def test_both_bounds_checks_keep_their_messages():
    mem = UntrustedMemory()
    addr = mem.alloc(16)
    with pytest.raises(AriaError, match=r"^invalid untrusted address 0x8$"):
        mem.read(8, 1)            # below the first region
    with pytest.raises(
            AriaError,
            match=rf"^untrusted access \[{addr + 8:#x}, \+9\) crosses region "
                  r"bounds$"):
        mem.read(addr + 8, 9)     # one byte past its end
    assert mem.read(addr + 8, 8) == bytes(8)
    assert mem.read(addr + 16, 0) == b""


def test_read_returns_an_independent_bytes_copy():
    """A read is a snapshot: ``bytes``, not a view a later write shows in."""
    mem = UntrustedMemory()
    addr = mem.alloc(16)
    mem.write(addr, b"before..")
    seen = mem.read(addr, 8)
    assert type(seen) is bytes
    mem.write(addr, b"after...")
    assert seen == b"before.."
    assert mem.read(addr, 8) == b"after..."


def test_deepcopy_is_a_working_independent_snapshot():
    """What the rollback attacker takes (``test_sealing``): every region,
    readable and writable, sharing nothing with the original."""
    mem = UntrustedMemory()
    addr = mem.alloc(16)
    mem.write(addr, b"old state")
    snapshot = copy.deepcopy(mem)
    mem.write(addr, b"new state")
    assert snapshot.read(addr, 9) == b"old state"
    snapshot.write(addr, b"forked!!!")
    assert mem.read(addr, 9) == b"new state"
    assert snapshot.alloc(8) == mem.alloc(8)


def test_zero_size_alloc_rejected():
    mem = UntrustedMemory()
    with pytest.raises(AriaError):
        mem.alloc(0)


def test_tamper_and_snoop_bypass_nothing_but_work():
    mem = UntrustedMemory()
    addr = mem.alloc(16)
    mem.write(addr, b"original........")
    mem.tamper(addr, b"EVIL")
    assert mem.snoop(addr, 16) == b"EVILinal........"


def test_allocated_bytes_accounting():
    mem = UntrustedMemory()
    mem.alloc(100)
    mem.alloc(200)
    assert mem.allocated_bytes == 300


# -- the granule table against the bisect lookup it replaced -----------------


class BisectMemory:
    """The reference: one ``bytearray`` per region, found by bisecting the
    sorted region bases, exactly as untrusted memory worked before its
    regions moved into one arena."""

    def __init__(self):
        self.bases, self.regions, self.next = [], [], 64

    def alloc(self, size):
        base = self.next
        self.bases.append(base)
        self.regions.append(bytearray(size))
        self.next = base + size + 64
        return base

    def _locate(self, addr, size):
        idx = bisect_right(self.bases, addr) - 1
        if idx < 0:
            raise AriaError(f"invalid untrusted address {addr:#x}")
        offset = addr - self.bases[idx]
        if offset + size > len(self.regions[idx]):
            raise AriaError(
                f"untrusted access [{addr:#x}, +{size}) crosses region bounds")
        return self.regions[idx], offset

    def read(self, addr, size):
        region, offset = self._locate(addr, size)
        return bytes(region[offset : offset + size])

    def write(self, addr, data):
        region, offset = self._locate(addr, len(data))
        region[offset : offset + len(data)] = data


def outcome(access, *args):
    try:
        return "ok", access(*args)
    except AriaError as error:
        return "refused", str(error)


def probes(bases, sizes, end_of_space):
    """Addresses at every edge: below the space, in and around each region
    and its guard gap, and far past the last region."""
    edges = [-(1 << 40), -65, -64, -1, 0, 1, 63, end_of_space,
             end_of_space + 64, end_of_space + (1 << 40)]
    for base, size in zip(bases, sizes):
        end = base + size
        edges += [base - 64, base - 1, base, base + 1, end - 1, end,
                  end + 1, end + 31, end + 63]
    return edges


@settings(max_examples=60, deadline=None)
@given(sizes=st.lists(st.integers(1, 40_000), min_size=1, max_size=8),
       extra=st.lists(st.integers(-100, 400_000), max_size=16))
@example(sizes=[40_000] * 4 + [64, 1], extra=[])     # grows the arena twice
def test_granule_lookup_matches_bisect(sizes, extra):
    arena, reference = UntrustedMemory(), BisectMemory()
    bases = []
    for i, size in enumerate(sizes):
        base = arena.alloc(size)
        assert base == reference.alloc(size)
        bases.append(base)
        fill = bytes([i + 1]) * min(size, 100)
        arena.write(base + size - len(fill), fill)
        reference.write(base + size - len(fill), fill)
    for addr in probes(bases, sizes, reference.next) + extra:
        for size in (0, 1, 8, 100):
            assert (outcome(arena.read, addr, size)
                    == outcome(reference.read, addr, size)), (addr, size)
            data = bytes([addr & 0xFF]) * size
            assert (outcome(arena.write, addr, data)
                    == outcome(reference.write, addr, data)), (addr, size)
    assert list(arena.regions()) == [
        (base, bytes(region))
        for base, region in zip(reference.bases, reference.regions)]


def test_snapshots_after_growth_are_independent():
    """Deep copy and pickle of an arena that has grown past its first map."""
    mem = UntrustedMemory()
    addrs = [mem.alloc(30_000) for _ in range(10)]      # ~300 KiB: grown
    for i, addr in enumerate(addrs):
        mem.write(addr + 29_990, b"region %02d!" % i)
    deep = copy.deepcopy(mem)
    pickled = pickle.loads(pickle.dumps(mem))
    mem.write(addrs[7] + 29_990, b"rewritten!")
    for snapshot in (deep, pickled):
        assert snapshot.read(addrs[7] + 29_990, 10) == b"region 07!"
        assert list(snapshot.regions())[:7] == list(mem.regions())[:7]
        snapshot.write(addrs[2], b"forked")
        assert mem.read(addrs[2], 6) == bytes(6)
        with pytest.raises(AriaError, match="crosses region bounds"):
            snapshot.read(addrs[9] + 29_999, 2)
    tail = addrs[7] + 29_990
    assert deep.read(tail, 10) == pickled.read(tail, 10)
    assert deep.alloc(8) == pickled.alloc(8) == mem.alloc(8)
