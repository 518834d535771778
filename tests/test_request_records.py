"""``Request`` and ``Response`` as tuple records, against the dataclasses
they replaced (ARCHITECTURE §18 "The frame path").

The frozen dataclasses are kept *here*, verbatim, as the reference — the
way ``test_frame_path.py`` keeps its per-item codecs.  Every decoder must
hand back the record class at full arity (a ``tuple.__new__`` call can
build a short tuple that a NamedTuple's own ``__new__`` would refuse), and
everything a caller could observe of one record — construction by keyword
and by default, equality, hash, ``repr``, pickling, ``encode()``, ``ok``,
immutability — must match the reference.  The last test pins why the
records exist: a decoded batch costs no Python call per request.
"""

import pickle
import sys
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import rpc
from repro.core.config import AriaConfig
from repro.core.store import AriaStore
from repro.server import protocol
from repro.server.protocol import STATUS_OK, OpCode, Status
from repro.server.server import AriaServer
from repro.sgx.meter import CycleMeter


# ---------------------------------------------------------------------------
# The reference: the frozen dataclasses, as they were
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Request:
    opcode: int
    key: bytes
    value: bytes = b""

    def encode(self) -> bytes:
        return protocol.encode_batch((self,))[2:]


@dataclass(frozen=True)
class Response:
    status: int
    value: bytes = b""

    def encode(self) -> bytes:
        return protocol.encode_batch_responses((self,))[2:]

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


def same_record(record, reference):
    """The record class at full arity, field by field the reference's."""
    cls = protocol.Request if type(reference) is Request else protocol.Response
    assert type(record) is cls and len(record) == len(cls._fields)
    for name in cls._fields:
        got, want = getattr(record, name), getattr(reference, name)
        assert got == want and type(got) is type(want), name


# ---------------------------------------------------------------------------
# Strategies: field tuples, built into a record and into its reference
# ---------------------------------------------------------------------------

keys = st.binary(min_size=1, max_size=24)
values = st.binary(max_size=48)


@st.composite
def request_fields(draw):
    opcode = draw(st.sampled_from(list(OpCode)))
    value = draw(values) if opcode == OpCode.PUT else b""
    return opcode, draw(keys), value


response_fields = st.tuples(
    st.one_of(st.sampled_from(list(Status)),
              st.integers(min_value=6, max_value=255)),
    values)


# ---------------------------------------------------------------------------
# 1. Every decoder builds the record class, at full arity
# ---------------------------------------------------------------------------


class TestDecodersBuildRecords:
    @settings(max_examples=100, deadline=None)
    @given(fields=st.lists(request_fields(), min_size=1, max_size=8))
    def test_request_decoders(self, fields):
        batch = [protocol.Request(*f) for f in fields]
        references = [Request(*f) for f in fields]
        wire = protocol.encode_batch(batch)
        decoded = {"decode_batch": protocol.decode_batch(wire),
                   "decode_call": rpc.decode_call(
                       rpc.encode_call("flush", [batch]))[1][0],
                   "decode_request": []}
        offset = 2
        for _ in batch:
            request, offset = protocol.decode_request(wire, offset)
            decoded["decode_request"].append(request)
        for name, records in decoded.items():
            assert len(records) == len(references), name
            for record, reference in zip(records, references):
                same_record(record, reference)

    @settings(max_examples=100, deadline=None)
    @given(fields=st.lists(response_fields, min_size=1, max_size=8))
    def test_response_decoders(self, fields):
        batch = [protocol.Response(*f) for f in fields]
        references = [Response(*f) for f in fields]
        wire = protocol.encode_batch_responses(batch)
        ok, [reply] = rpc.decode_reply(
            rpc.encode_reply("flush", True, [batch]), CycleMeter())
        assert ok
        decoded = {"decode_batch_responses": protocol.decode_batch_responses(
                       wire, expected=len(batch)),
                   "decode_reply": reply,
                   "decode_response": []}
        offset = 2
        for _ in batch:
            response, offset = protocol.decode_response(wire, offset)
            decoded["decode_response"].append(response)
        for name, records in decoded.items():
            assert len(records) == len(references), name
            for record, reference in zip(records, references):
                same_record(record, reference)

    def test_the_constructors_build_full_records(self):
        same_record(protocol.get(b"k"), Request(OpCode.GET, b"k"))
        same_record(protocol.put(b"k", b"v"), Request(OpCode.PUT, b"k", b"v"))
        same_record(protocol.delete(b"k"), Request(OpCode.DELETE, b"k"))
        same_record(protocol.health(),
                    Request(OpCode.HEALTH, protocol.HEALTH_KEY))


# ---------------------------------------------------------------------------
# 2. One record behaves as its reference does
# ---------------------------------------------------------------------------


def _observed(record):
    """What a caller can see of one record, class name included."""
    return (repr(record), hash(record), record.encode(),
            pickle.loads(pickle.dumps(record)) == record)


class TestRecordsMatchTheReference:
    @settings(max_examples=200, deadline=None)
    @given(f=request_fields(), g=request_fields())
    def test_requests(self, f, g):
        a, b, ref_a, ref_b = (protocol.Request(*f), protocol.Request(*g),
                              Request(*f), Request(*g))
        assert _observed(a) == _observed(ref_a)
        assert (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
        opcode, key, value = f
        same_record(protocol.Request(opcode=opcode, key=key, value=value),
                    Request(opcode=opcode, key=key, value=value))
        by_default = protocol.Request(opcode, key)
        same_record(by_default, Request(opcode, key))
        assert _observed(by_default) == _observed(Request(opcode, key))

    @settings(max_examples=200, deadline=None)
    @given(f=response_fields, g=response_fields)
    def test_responses(self, f, g):
        a, b, ref_a, ref_b = (protocol.Response(*f), protocol.Response(*g),
                              Response(*f), Response(*g))
        assert _observed(a) == _observed(ref_a) and a.ok == ref_a.ok
        assert (a == b) == (ref_a == ref_b) and (a != b) == (ref_a != ref_b)
        status, value = f
        same_record(protocol.Response(status=status, value=value),
                    Response(status=status, value=value))
        by_default = protocol.Response(status)
        same_record(by_default, Response(status))
        assert _observed(by_default) == _observed(Response(status))
        assert by_default.ok == Response(status).ok

    def test_field_names_order_and_defaults(self):
        assert protocol.Request._fields == ("opcode", "key", "value")
        assert protocol.Request._field_defaults == {"value": b""}
        assert protocol.Response._fields == ("status", "value")
        assert protocol.Response._field_defaults == {"value": b""}

    @pytest.mark.parametrize("record, field", [
        (protocol.put(b"k", b"v"), "opcode"),
        (protocol.put(b"k", b"v"), "key"),
        (protocol.put(b"k", b"v"), "value"),
        (protocol.Response(STATUS_OK, b"v"), "status"),
        (protocol.Response(STATUS_OK, b"v"), "value"),
    ])
    def test_a_field_cannot_be_assigned(self, record, field):
        before = tuple(record)
        with pytest.raises(AttributeError):
            setattr(record, field, b"x")
        with pytest.raises(AttributeError):
            record.extra = 1
        assert tuple(record) == before


# ---------------------------------------------------------------------------
# 3. The shared OK answer
# ---------------------------------------------------------------------------


def test_dispatch_shares_one_ok_response_for_puts_and_deletes():
    server = AriaServer(AriaStore(AriaConfig(index="hash", n_buckets=64)))
    batch = [protocol.put(b"k%d" % i, b"v" * i) for i in range(8)]
    batch += [protocol.delete(b"k%d" % i) for i in range(0, 8, 2)]
    answers = server.flush_batch(batch)
    shared = answers[0]
    assert all(answer is shared for answer in answers)
    assert shared == protocol.Response(STATUS_OK) and shared.ok
    # A Get gets its own record; the shared one is untouched by it all.
    [got] = server.flush_batch([protocol.get(b"k1")])
    assert got == protocol.Response(STATUS_OK, b"v") and got is not shared
    assert server.flush_batch([protocol.put(b"k9", b"w")])[0] is shared
    assert tuple(shared) == (STATUS_OK, b"")


# ---------------------------------------------------------------------------
# 4. Why: a decoded batch makes no Python call per request
# ---------------------------------------------------------------------------


def test_decode_batch_makes_no_python_call_but_itself():
    wire = protocol.encode_batch(
        [protocol.put(b"key-%02d" % i, b"v" * i) for i in range(64)])
    calls = []

    def profiler(frame, event, arg):
        if event == "call":
            calls.append(frame.f_code.co_name)

    sys.setprofile(profiler)
    try:
        decoded = protocol.decode_batch(wire)
    finally:
        sys.setprofile(None)
    assert calls == ["decode_batch"]
    assert len(decoded) == 64
