"""ARCHITECTURE §18 rule 4, pinned structurally.

*Nothing the interpreter dispatches implicitly on the per-primitive path —
an item store, a subscript, an attribute access — is written in Python*,
stdlib classes included.  The rule exists because its one breach hid in the
stdlib: ``collections.Counter`` defines ``__delitem__`` in Python, CPython
then fills the type's item-*assignment* slot (one C slot serves both
``__setitem__`` and ``__delitem__``) with the generic
``slot_mp_ass_subscript``, and every ``meter.events[name] += n`` looked
``__setitem__`` up through the MRO — 151-198 ns a bump against 69-71 ns
with ``dict``'s own slot, 11 to 34 bumps per operation.

Why the pin is structural and carries no clock: no profiler sees slot
dispatch.  ``cProfile`` over 100,000 ``Counter`` stores reports *2 function
calls* (the ``exec`` and the profiler's own ``disable``), and
``sys.setprofile`` receives neither a ``call`` nor a ``c_call`` event for
them — the tools every earlier pass of §18 was flattened with show a
``Counter`` store and a ``dict`` store as the same nothing.  What can be
checked is which function sits in the slot, and that is what these tests do.
"""

import mmap
import types
from collections import Counter, OrderedDict

import pytest

from repro.cache.policies import ClockPolicy, FifoPolicy, LruPolicy
from repro.cache.secure_cache import SecureCache
from repro.cache.stats import CacheStats
from repro.core.counters import CounterManager
from repro.core.record import RecordCodec
from repro.core.store import AriaStore
from repro.index.hashtable import AriaHashIndex
from repro.merkle.tree import MerkleTree
from repro.server.protocol import Request, Response
from repro.sgx.enclave import Enclave
from repro.sgx.memory import UntrustedMemory
from repro.sgx.meter import CycleMeter, EventCounts

#: What the interpreter calls without the source saying so.
IMPLICIT = ("__getattr__", "__getattribute__", "__setattr__",
            "__getitem__", "__setitem__", "__delitem__")

#: Every type an operation's primitives read an attribute of or index into.
PER_PRIMITIVE = (CycleMeter, Enclave, UntrustedMemory, mmap.mmap, CacheStats,
                 OrderedDict, FifoPolicy, LruPolicy, ClockPolicy, SecureCache,
                 MerkleTree, RecordCodec, CounterManager, AriaHashIndex,
                 AriaStore, Request, Response)

#: How a method implemented in C appears in a class ``__dict__``.
C_LEVEL = (types.WrapperDescriptorType, types.MethodDescriptorType)


@pytest.mark.parametrize("name", ["__setitem__", "__delitem__"])
def test_the_ledger_names_dicts_own_store_wrappers(name):
    # Both, and by identity: one Python-level (or merely inherited-from-
    # Counter) method of the pair puts the generic slot function back.
    assert EventCounts.__dict__[name] is dict.__dict__[name]


@pytest.mark.parametrize("name", ["__getitem__", "__contains__"])
def test_the_ledger_reads_through_dict(name):
    assert getattr(EventCounts, name) is getattr(dict, name)


@pytest.mark.parametrize("cls", PER_PRIMITIVE, ids=lambda cls: cls.__name__)
def test_no_python_level_implicit_dispatch(cls):
    for klass in cls.__mro__[:-1]:  # everything below ``object``
        for name in IMPLICIT:
            defined = klass.__dict__.get(name)
            assert defined is None or isinstance(defined, C_LEVEL), (
                f"{klass.__qualname__}.{name} is written in Python and "
                f"runs on every {cls.__name__} access (§18 rule 4)")


def test_the_pin_sees_the_breach_it_was_written_for():
    """``Counter`` itself fails the check ``EventCounts`` passes."""
    assert isinstance(Counter.__dict__["__delitem__"], types.FunctionType)
    assert "__setitem__" not in Counter.__dict__
    assert isinstance(EventCounts.__dict__["__delitem__"], C_LEVEL)
