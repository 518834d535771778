"""Untrusted memory region tests."""

import copy

import pytest

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
