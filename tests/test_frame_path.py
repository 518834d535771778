"""The frame path: fused batch codec and flat ``seal``/``open`` vs. references.

ARCHITECTURE §18 "The frame path": between the socket and the store a
request is touched once — the four batch codec functions are single loops
over the buffer and ``SecureSession.seal``/``open`` pack and unpack the v2
header directly.  What they replaced is kept *here*, verbatim, as the
reference: the per-item ``decode_request``/``decode_response`` loop and
the ``FrameHeader`` round trip; the keystream's definition is spelled out
the slow way beside them.  Every section is a differential against that
reference — same objects or same exception type and text, same frame
bytes, same exact ``meter.cycles`` under a non-dyadic cost model, same
events.

The last section pins the pipeline's *Python call budget* with
``sys.setprofile`` — no wall clock (the pattern of
``test_secure_cache_walk.py``) — so a per-item helper creeping back into
the path fails here rather than as benchmark drift.
"""

import itertools
import re
import struct
import sys
from hashlib import blake2b, shake_128

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import BackgroundServer, ClusterClient, ClusterConfig
from repro.cluster.framing import write_frame
from repro.cluster.session import (
    ClientHandshake,
    SecureSession,
    SessionManager,
)
from repro.core.store import AriaStore
from repro.crypto.backend import MAC_SIZE, FastCryptoBackend, get_backend
from repro.crypto.keys import KeyMaterial
from repro.errors import (
    BatchRejectedError,
    ProtocolError,
    ReplayError,
    StaleSessionError,
    TamperedFrameError,
)
from repro.server import protocol
from repro.server.protocol import (
    FLAG_DEADLINE,
    FLAG_FROM_SERVER,
    FLAG_HANDSHAKE,
    MAX_BATCH_COUNT,
    MAX_DEADLINE_MS,
    MAX_FRAME_BYTES,
    MAX_KEY_BYTES,
    MAX_VALUE_BYTES,
    OP_PUT,
    WIRE_V2,
    FrameHeader,
    OpCode,
    Request,
    Response,
    Status,
)
from repro.sgx.costs import CostModel
from repro.sgx.meter import CycleMeter

_REQ_HEADER = struct.Struct("<BHI")
_RESP_HEADER = struct.Struct("<BI")
_BATCH_HEADER = struct.Struct("<H")


# ---------------------------------------------------------------------------
# Reference codec: the per-item functions the fused loops replaced (verbatim)
# ---------------------------------------------------------------------------


def ref_decode_request(data, offset=0):
    if len(data) - offset < _REQ_HEADER.size:
        raise ProtocolError("truncated request header")
    opcode, k_len, v_len = _REQ_HEADER.unpack_from(data, offset)
    try:
        opcode = OpCode(opcode)
    except ValueError:
        raise ProtocolError(f"unknown opcode {opcode}") from None
    if k_len > MAX_KEY_BYTES:
        raise ProtocolError(f"k_len {k_len} exceeds {MAX_KEY_BYTES}")
    if v_len > MAX_VALUE_BYTES:
        raise ProtocolError(f"v_len {v_len} exceeds {MAX_VALUE_BYTES}")
    start = offset + _REQ_HEADER.size
    end = start + k_len + v_len
    if end > len(data):
        raise ProtocolError("truncated request body")
    key = data[start : start + k_len]
    value = data[start + k_len : end]
    if opcode != OP_PUT and value:
        raise ProtocolError("value supplied for a non-PUT request")
    if not key:
        raise ProtocolError("empty key")
    return Request(opcode, key, value), end


def ref_decode_response(data, offset=0):
    if len(data) - offset < _RESP_HEADER.size:
        raise ProtocolError("truncated response header")
    status, v_len = _RESP_HEADER.unpack_from(data, offset)
    try:
        status = Status(status)
    except ValueError:
        pass  # forward compatibility: unknown statuses decode as raw ints
    if v_len > MAX_VALUE_BYTES:
        raise ProtocolError(f"response v_len {v_len} exceeds "
                            f"{MAX_VALUE_BYTES}")
    start = offset + _RESP_HEADER.size
    end = start + v_len
    if end > len(data):
        raise ProtocolError("truncated response body")
    return Response(status, data[start:end]), end


def ref_decode_batch(data):
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"batch exceeds {MAX_FRAME_BYTES} bytes")
    if len(data) < _BATCH_HEADER.size:
        raise ProtocolError("truncated batch header")
    (count,) = _BATCH_HEADER.unpack_from(data, 0)
    if count > MAX_BATCH_COUNT:
        raise ProtocolError(f"batch count {count} exceeds {MAX_BATCH_COUNT}")
    offset = _BATCH_HEADER.size
    requests = []
    for _ in range(count):
        request, offset = ref_decode_request(data, offset)
        requests.append(request)
    if offset != len(data):
        raise ProtocolError("trailing bytes after batch")
    return requests


def ref_decode_batch_responses(data, expected=None):
    if len(data) > MAX_FRAME_BYTES:
        raise ProtocolError(f"batch exceeds {MAX_FRAME_BYTES} bytes")
    if len(data) < _BATCH_HEADER.size:
        raise ProtocolError("truncated batch header")
    (count,) = _BATCH_HEADER.unpack_from(data, 0)
    if count > MAX_BATCH_COUNT:
        raise ProtocolError(f"batch count {count} exceeds {MAX_BATCH_COUNT}")
    offset = _BATCH_HEADER.size
    responses = []
    for _ in range(count):
        response, offset = ref_decode_response(data, offset)
        responses.append(response)
    if offset != len(data):
        raise ProtocolError("trailing bytes after batch responses")
    if expected is not None and count != expected:
        if protocol.is_batch_rejection(responses):
            raise BatchRejectedError(
                f"server rejected the whole batch; none of the {expected} "
                "requests executed"
            )
        raise ProtocolError(f"expected {expected} responses, got {count}")
    return responses


def ref_request_encode(request):
    if len(request.key) > MAX_KEY_BYTES:
        raise ProtocolError(f"key exceeds {MAX_KEY_BYTES} bytes")
    if len(request.value) > MAX_VALUE_BYTES:
        raise ProtocolError(f"value exceeds {MAX_VALUE_BYTES} bytes")
    return _REQ_HEADER.pack(request.opcode, len(request.key),
                            len(request.value)) + request.key + request.value


def ref_response_encode(response):
    if len(response.value) > MAX_VALUE_BYTES:
        raise ProtocolError(f"response value exceeds {MAX_VALUE_BYTES} "
                            "bytes")
    return _RESP_HEADER.pack(response.status, len(response.value)) \
        + response.value


def ref_encode_batch(requests):
    frames = [ref_request_encode(request) for request in requests]
    if len(frames) > MAX_BATCH_COUNT:
        raise ProtocolError(f"batch count {len(frames)} exceeds "
                            f"{MAX_BATCH_COUNT}")
    return _BATCH_HEADER.pack(len(frames)) + b"".join(frames)


def ref_encode_batch_responses(responses):
    frames = [ref_response_encode(response) for response in responses]
    if len(frames) > MAX_BATCH_COUNT:
        raise ProtocolError(f"batch count {len(frames)} exceeds "
                            f"{MAX_BATCH_COUNT}")
    return _BATCH_HEADER.pack(len(frames)) + b"".join(frames)


def ref_request_violation(request):
    try:
        opcode = OpCode(request.opcode)
    except ValueError:
        return f"unknown opcode {request.opcode}"
    if len(request.key) > MAX_KEY_BYTES:
        return f"k_len {len(request.key)} exceeds {MAX_KEY_BYTES}"
    if len(request.value) > MAX_VALUE_BYTES:
        return f"v_len {len(request.value)} exceeds {MAX_VALUE_BYTES}"
    if opcode != OP_PUT and request.value:
        return "value supplied for a non-PUT request"
    if not request.key:
        return "empty key"
    return None


def ref_batch_violation(requests):
    if len(requests) > MAX_BATCH_COUNT:
        return f"batch count {len(requests)} exceeds {MAX_BATCH_COUNT}"
    size = _BATCH_HEADER.size + sum(
        _REQ_HEADER.size + len(r.key) + len(r.value) for r in requests)
    if size > MAX_FRAME_BYTES:
        return f"batch exceeds {MAX_FRAME_BYTES} bytes"
    for request in requests:
        violation = ref_request_violation(request)
        if violation is not None:
            return violation
    return None


def raw_batch(items, count=None):
    """Pack ``(opcode, key, value)`` triples with no checks at all.

    ``count`` overrides the header (a lying count is one of the shapes a
    decoder must refuse).
    """
    body = b"".join(_REQ_HEADER.pack(op, len(k), len(v)) + k + v
                    for op, k, v in items)
    return _BATCH_HEADER.pack(len(items) if count is None else count) + body


def raw_responses(items, count=None):
    body = b"".join(_RESP_HEADER.pack(status, len(v)) + v
                    for status, v in items)
    return _BATCH_HEADER.pack(len(items) if count is None else count) + body


def outcome(fn, *args, **kwargs):
    """What a call did, comparable across two implementations.

    Enum-valued fields compare equal to their ints, so the result's member
    *types* ride along: a decoder that returned ``1`` where the reference
    returns ``OpCode.GET`` must not pass.
    """
    try:
        result = fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the point is to compare them
        return ("raised", type(exc), str(exc))
    if isinstance(result, list):
        kinds = [type(getattr(item, "opcode", getattr(item, "status", None)))
                 for item in result]
        return ("returned", result, kinds)
    return ("returned", result)


def same(ref_fn, new_fn, *args, **kwargs):
    expected = outcome(ref_fn, *args, **kwargs)
    assert outcome(new_fn, *args, **kwargs) == expected
    return expected


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

keys = st.binary(min_size=1, max_size=24)
values = st.binary(max_size=48)


@st.composite
def valid_requests(draw):
    opcode = draw(st.sampled_from(list(OpCode)))
    if opcode == OpCode.HEALTH:
        return protocol.health()
    value = draw(values) if opcode == OpCode.PUT else b""
    return Request(opcode, draw(keys), value)


valid_batches = st.lists(valid_requests(), max_size=12)

statuses = st.one_of(st.sampled_from(list(Status)),
                     st.integers(min_value=6, max_value=255))
valid_responses = st.lists(
    st.builds(Response, statuses, values), max_size=12)

#: Lengths around every cap a field can cross, built as ``b"x" * n`` so the
#: strategy does not spend its budget drawing 64 KiB of entropy.
key_sizes = st.sampled_from(
    [0, 1, 2, 17, MAX_KEY_BYTES - 1, MAX_KEY_BYTES, MAX_KEY_BYTES + 1,
     MAX_KEY_BYTES + 2])
value_sizes = st.sampled_from(
    [0, 1, 2, 33, MAX_VALUE_BYTES - 1, MAX_VALUE_BYTES, MAX_VALUE_BYTES + 1,
     MAX_VALUE_BYTES + 2])


@st.composite
def arbitrary_requests(draw):
    """Any field values at all — what ``flush_batch`` may be handed."""
    opcode = draw(st.one_of(st.sampled_from(list(OpCode)),
                            st.integers(min_value=0, max_value=255)))
    return Request(opcode, b"k" * draw(key_sizes), b"v" * draw(value_sizes))


# ---------------------------------------------------------------------------
# 1. The fused codec against the per-item reference
# ---------------------------------------------------------------------------


class TestFusedCodecDifferential:
    @settings(max_examples=200, deadline=None)
    @given(batch=valid_batches)
    def test_valid_batches_round_trip_identically(self, batch):
        wire = ref_encode_batch(batch)
        assert protocol.encode_batch(batch) == wire
        assert protocol.encode_batch(iter(batch)) == wire   # any iterable
        kind, decoded, kinds = same(ref_decode_batch,
                                    protocol.decode_batch, wire)
        assert kind == "returned" and decoded == batch
        assert all(k is OpCode for k in kinds)

    @settings(max_examples=200, deadline=None)
    @given(responses=valid_responses)
    def test_valid_responses_round_trip_identically(self, responses):
        wire = ref_encode_batch_responses(responses)
        assert protocol.encode_batch_responses(responses) == wire
        assert protocol.encode_batch_responses(iter(responses)) == wire
        kind, decoded, kinds = same(ref_decode_batch_responses,
                                    protocol.decode_batch_responses, wire)
        assert kind == "returned" and decoded == responses
        # Known statuses come back as members, unknown ones as raw ints.
        for response, k in zip(responses, kinds):
            known = response.status in set(Status)
            assert k is (Status if known else int)

    @settings(max_examples=60, deadline=None)
    @given(batch=valid_batches.filter(bool))
    def test_every_truncation_point_of_a_request_batch(self, batch):
        wire = ref_encode_batch(batch)
        for cut in range(len(wire)):
            kind, *_ = same(ref_decode_batch, protocol.decode_batch,
                            wire[:cut])
            assert kind == "raised"

    @settings(max_examples=60, deadline=None)
    @given(responses=valid_responses.filter(bool))
    def test_every_truncation_point_of_a_response_batch(self, responses):
        wire = ref_encode_batch_responses(responses)
        for cut in range(len(wire)):
            for expected in (None, len(responses)):
                kind, *_ = same(ref_decode_batch_responses,
                                protocol.decode_batch_responses,
                                wire[:cut], expected=expected)
                assert kind == "raised"

    @settings(max_examples=300, deadline=None)
    @given(batch=valid_batches.filter(bool), data=st.data())
    def test_bit_flips_in_a_request_batch(self, batch, data):
        wire = bytearray(ref_encode_batch(batch))
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, len(wire) * 8 - 1))
            wire[bit >> 3] ^= 1 << (bit & 7)
        same(ref_decode_batch, protocol.decode_batch, bytes(wire))

    @settings(max_examples=300, deadline=None)
    @given(responses=valid_responses.filter(bool), data=st.data())
    def test_bit_flips_in_a_response_batch(self, responses, data):
        wire = bytearray(ref_encode_batch_responses(responses))
        for _ in range(data.draw(st.integers(1, 3))):
            bit = data.draw(st.integers(0, len(wire) * 8 - 1))
            wire[bit >> 3] ^= 1 << (bit & 7)
        for expected in (None, len(responses)):
            same(ref_decode_batch_responses, protocol.decode_batch_responses,
                 bytes(wire), expected=expected)

    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=64))
    def test_arbitrary_bytes(self, blob):
        same(ref_decode_batch, protocol.decode_batch, blob)
        same(ref_decode_batch_responses, protocol.decode_batch_responses,
             blob)
        same(ref_decode_batch_responses, protocol.decode_batch_responses,
             blob, expected=1)

    @pytest.mark.parametrize("wire, message", [
        (raw_batch([(1, b"k" * (MAX_KEY_BYTES + 1), b"")]),
         f"k_len {MAX_KEY_BYTES + 1} exceeds {MAX_KEY_BYTES}"),
        # The claimed lengths alone are refused: no body follows.
        (_BATCH_HEADER.pack(1) + _REQ_HEADER.pack(1, 0xFFFF, 0),
         f"k_len 65535 exceeds {MAX_KEY_BYTES}"),
        (_BATCH_HEADER.pack(1) + _REQ_HEADER.pack(2, 1, 0xFFFFFFFF),
         f"v_len 4294967295 exceeds {MAX_VALUE_BYTES}"),
        # k_len is tested before v_len, the opcode before both.
        (_BATCH_HEADER.pack(1) + _REQ_HEADER.pack(2, 0xFFFF, 0xFFFFFFFF),
         f"k_len 65535 exceeds {MAX_KEY_BYTES}"),
        (_BATCH_HEADER.pack(1) + _REQ_HEADER.pack(9, 0xFFFF, 0xFFFFFFFF),
         "unknown opcode 9"),
        (raw_batch([(0, b"k", b"")]), "unknown opcode 0"),
        (_BATCH_HEADER.pack(MAX_BATCH_COUNT + 1),
         f"batch count {MAX_BATCH_COUNT + 1} exceeds {MAX_BATCH_COUNT}"),
        (raw_batch([(1, b"k", b"v")]),
         "value supplied for a non-PUT request"),
        (raw_batch([(3, b"k", b"v")]),
         "value supplied for a non-PUT request"),
        (raw_batch([(4, b"\x00", b"v")]),
         "value supplied for a non-PUT request"),
        (raw_batch([(1, b"", b"")]), "empty key"),
        # value-on-non-PUT is tested before the empty key.
        (raw_batch([(1, b"", b"v")]),
         "value supplied for a non-PUT request"),
        (raw_batch([(2, b"", b"v")]), "empty key"),
        (raw_batch([(1, b"k", b"")]) + b"\x00", "trailing bytes after batch"),
        (raw_batch([(1, b"k", b"")], count=2), "truncated request header"),
        (raw_batch([(1, b"k", b"")], count=0), "trailing bytes after batch"),
        (raw_batch([(2, b"k", b"vv")])[:-1], "truncated request body"),
        (b"", "truncated batch header"),
        (b"\x01", "truncated batch header"),
        (bytes(MAX_FRAME_BYTES + 1), f"batch exceeds {MAX_FRAME_BYTES} bytes"),
    ])
    def test_request_refusals_by_hand(self, wire, message):
        expected = same(ref_decode_batch, protocol.decode_batch, wire)
        assert expected == ("raised", ProtocolError, message)

    @pytest.mark.parametrize("wire, expected_count, error, message", [
        (_BATCH_HEADER.pack(1) + _RESP_HEADER.pack(0, 0xFFFFFFFF), None,
         ProtocolError,
         f"response v_len 4294967295 exceeds {MAX_VALUE_BYTES}"),
        (raw_responses([(0, b"v")]) + b"\x00", None, ProtocolError,
         "trailing bytes after batch responses"),
        (raw_responses([(0, b"v")], count=2), None, ProtocolError,
         "truncated response header"),
        (raw_responses([(0, b"vv")])[:-1], None, ProtocolError,
         "truncated response body"),
        (_BATCH_HEADER.pack(MAX_BATCH_COUNT + 1), None, ProtocolError,
         f"batch count {MAX_BATCH_COUNT + 1} exceeds {MAX_BATCH_COUNT}"),
        (bytes(MAX_FRAME_BYTES + 1), None, ProtocolError,
         f"batch exceeds {MAX_FRAME_BYTES} bytes"),
        (raw_responses([(0, b"a"), (1, b"")]), 3, ProtocolError,
         "expected 3 responses, got 2"),
        (raw_responses([(3, b"")]), 3, BatchRejectedError,
         "server rejected the whole batch; none of the 3 requests executed"),
        # One BAD_REQUEST *with* a value is not the rejection shape.
        (raw_responses([(3, b"x")]), 3, ProtocolError,
         "expected 3 responses, got 1"),
    ])
    def test_response_refusals_by_hand(self, wire, expected_count, error,
                                       message):
        expected = same(ref_decode_batch_responses,
                        protocol.decode_batch_responses, wire,
                        expected=expected_count)
        assert expected == ("raised", error, message)

    def test_unknown_status_decodes_as_the_raw_int(self):
        wire = raw_responses([(0, b"ok"), (200, b"later"), (5, b"")])
        decoded = protocol.decode_batch_responses(wire)
        assert [type(r.status) for r in decoded] == [Status, int, Status]
        assert decoded[1] == Response(200, b"later")
        assert decoded == ref_decode_batch_responses(wire)

    def test_the_rejection_answers_a_batch_of_one_in_kind(self):
        # expected == count: the rejection shape is then just a response.
        wire = protocol.encode_batch_rejection()
        assert protocol.decode_batch_responses(wire, expected=1) \
            == [Response(Status.BAD_REQUEST)]

    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(arbitrary_requests(), max_size=4))
    def test_encoders_refuse_what_the_reference_refuses(self, batch):
        # Field caps and their order (first offender, key before value);
        # total size stays far below the frame cap here.
        same(ref_encode_batch, protocol.encode_batch, batch)
        responses = [Response(r.opcode, r.value) for r in batch]
        same(ref_encode_batch_responses, protocol.encode_batch_responses,
             responses)

    def test_item_errors_come_before_the_count_error(self):
        too_many = [protocol.get(b"k")] * (MAX_BATCH_COUNT + 1)
        assert same(ref_encode_batch, protocol.encode_batch, too_many) == (
            "raised", ProtocolError,
            f"batch count {MAX_BATCH_COUNT + 1} exceeds {MAX_BATCH_COUNT}")
        spoiled = too_many + [Request(OpCode.GET, b"k" * (MAX_KEY_BYTES + 1))]
        assert same(ref_encode_batch, protocol.encode_batch, spoiled) == (
            "raised", ProtocolError, f"key exceeds {MAX_KEY_BYTES} bytes")
        replies = [Response(Status.OK)] * (MAX_BATCH_COUNT + 1)
        assert same(ref_encode_batch_responses,
                    protocol.encode_batch_responses, replies)[1:] == (
            ProtocolError,
            f"batch count {MAX_BATCH_COUNT + 1} exceeds {MAX_BATCH_COUNT}")


class TestSingleItemApiIsTheSameCodec:
    """``Request.encode``/``Response.encode``/``decode_request``/
    ``decode_response`` stay public; they must be byte- and
    error-identical to one turn of the fused loops."""

    @settings(max_examples=200, deadline=None)
    @given(request=valid_requests())
    def test_request_bytes(self, request):
        wire = request.encode()
        assert wire == ref_request_encode(request)
        assert protocol.encode_batch([request]) \
            == _BATCH_HEADER.pack(1) + wire
        assert protocol.batch_encoded_size([request]) \
            == _BATCH_HEADER.size + len(wire)
        assert protocol.decode_request(wire) == (request, len(wire))
        assert protocol.decode_request(b"\xff" + wire, 1) \
            == (request, len(wire) + 1)

    @settings(max_examples=200, deadline=None)
    @given(response=st.builds(Response, statuses, values))
    def test_response_bytes(self, response):
        wire = response.encode()
        assert wire == ref_response_encode(response)
        assert protocol.encode_batch_responses([response]) \
            == _BATCH_HEADER.pack(1) + wire
        assert protocol.batch_responses_encoded_size([response]) \
            == _BATCH_HEADER.size + len(wire)
        assert protocol.decode_response(wire) == (response, len(wire))

    @settings(max_examples=100, deadline=None)
    @given(request=arbitrary_requests())
    def test_request_errors(self, request):
        single = outcome(request.encode)
        assert single == outcome(ref_request_encode, request)
        batched = outcome(protocol.encode_batch, [request])
        if single[0] == "raised":
            assert batched == single
        else:
            assert batched == ("returned",
                               _BATCH_HEADER.pack(1) + single[1])

    @pytest.mark.parametrize(
        "size", [MAX_VALUE_BYTES, MAX_VALUE_BYTES + 1, MAX_VALUE_BYTES + 2])
    def test_response_errors(self, size):
        response = Response(Status.OK, b"v" * size)
        single = outcome(response.encode)
        assert single == outcome(ref_response_encode, response)
        batched = outcome(protocol.encode_batch_responses, [response])
        if single[0] == "raised":
            assert batched == single
        else:
            assert batched[1] == _BATCH_HEADER.pack(1) + single[1]

    @settings(max_examples=200, deadline=None)
    @given(blob=st.binary(max_size=40), offset=st.integers(0, 8))
    def test_single_item_decoders_on_arbitrary_bytes(self, blob, offset):
        same(ref_decode_request, protocol.decode_request, blob, offset)
        same(ref_decode_response, protocol.decode_response, blob, offset)


# ---------------------------------------------------------------------------
# 2. request_violation is the predicate; batch_violation applies it
# ---------------------------------------------------------------------------


class TestViolations:
    @settings(max_examples=400, deadline=None)
    @given(request=arbitrary_requests())
    def test_one_request(self, request):
        violation = protocol.request_violation(request)
        assert violation == ref_request_violation(request)
        assert protocol.batch_violation([request]) == violation
        # ...and it is exactly decode_batch's verdict on the same fields.
        wire = raw_batch([(int(request.opcode), request.key, request.value)])
        decoded = outcome(protocol.decode_batch, wire)
        if violation is None:
            assert decoded[:2] == ("returned", [request])
        else:
            assert decoded == ("raised", ProtocolError, violation)

    @settings(max_examples=200, deadline=None)
    @given(batch=st.lists(arbitrary_requests(), max_size=6))
    def test_a_batch_reports_its_first_offender(self, batch):
        assert protocol.batch_violation(batch) == ref_batch_violation(batch)

    def test_count_then_frame_then_requests(self):
        bad = Request(OpCode.GET, b"")
        big = Request(OpCode.PUT, b"k", b"v" * MAX_VALUE_BYTES)
        over_count = [bad] * (MAX_BATCH_COUNT + 1)
        over_frame = [bad] + [big] * 129
        for batch in (over_count, over_frame, [big] * 127 + [bad],
                      [big] * 127):
            assert protocol.batch_violation(batch) \
                == ref_batch_violation(batch)
        assert protocol.batch_violation(over_count).startswith("batch count")
        assert protocol.batch_violation(over_frame) \
            == f"batch exceeds {MAX_FRAME_BYTES} bytes"
        assert protocol.batch_violation([big] * 127 + [bad]) == "empty key"

    @settings(max_examples=100, deadline=None)
    @given(batch=st.lists(arbitrary_requests(), max_size=6))
    def test_sizes_need_no_valid_fields(self, batch):
        assert protocol.batch_encoded_size(batch) == _BATCH_HEADER.size + sum(
            _REQ_HEADER.size + len(r.key) + len(r.value) for r in batch)
        assert protocol.batch_encoded_size(iter(batch)) \
            == protocol.batch_encoded_size(batch)
        responses = [Response(r.opcode, r.value) for r in batch]
        assert protocol.batch_responses_encoded_size(iter(responses)) \
            == _BATCH_HEADER.size + sum(
                _RESP_HEADER.size + len(r.value) for r in responses)


# ---------------------------------------------------------------------------
# 3. The outbound frame cap (bugfix): what a reader refuses is never written
# ---------------------------------------------------------------------------


class _RecordingSocket:
    def __init__(self):
        self.sent = []

    def sendall(self, data):
        self.sent.append(bytes(data))

    def gettimeout(self):
        return None


class TestOutboundFrameCap:
    BIG = b"v" * MAX_VALUE_BYTES

    def test_encode_batch_refuses_a_frame_decode_batch_would(self):
        # 127 maximal PUTs fit under 8 MiB, 128 do not.
        fits = [protocol.put(b"k", self.BIG)] * 127
        wire = protocol.encode_batch(fits)
        assert len(wire) <= MAX_FRAME_BYTES
        assert len(protocol.decode_batch(wire)) == 127
        with pytest.raises(ProtocolError,
                           match=f"batch exceeds {MAX_FRAME_BYTES} bytes"):
            protocol.encode_batch(fits + [protocol.put(b"k", self.BIG)])
        # The reference encoder (the parent's) emitted it; its own decoder
        # then refused it.
        emitted = ref_encode_batch(fits + [protocol.put(b"k", self.BIG)])
        with pytest.raises(ProtocolError, match="batch exceeds"):
            ref_decode_batch(emitted)

    def test_the_cap_is_on_requests_only(self):
        # Answers to a legal batch may outgrow the cap (129 GETs of 64 KiB
        # values); the encoder emits them, as at the parent, and the peer's
        # frame reader is what refuses the length.
        wire = protocol.encode_batch_responses(
            [Response(Status.OK, self.BIG)] * 129)
        assert wire == ref_encode_batch_responses(
            [Response(Status.OK, self.BIG)] * 129)
        assert len(wire) > MAX_FRAME_BYTES
        with pytest.raises(ProtocolError, match="batch exceeds"):
            protocol.decode_batch_responses(wire)

    def test_the_cap_is_exact(self):
        # 2 + 127 * (7 + 1 + 65536) = 8 324 090: size a 128th PUT so the
        # batch lands exactly on the cap, then one byte past it.
        base = [protocol.put(b"k", self.BIG)] * 127
        room = MAX_FRAME_BYTES - len(protocol.encode_batch(base)) - 7
        key = b"k" * MAX_KEY_BYTES
        exact = base + [protocol.put(key, b"v" * (room - len(key)))]
        assert len(protocol.encode_batch(exact)) == MAX_FRAME_BYTES
        assert protocol.batch_violation(exact) is None
        over = base + [protocol.put(key, b"v" * (room - len(key) + 1))]
        assert protocol.batch_violation(over) \
            == f"batch exceeds {MAX_FRAME_BYTES} bytes"
        with pytest.raises(ProtocolError, match="batch exceeds"):
            protocol.encode_batch(over)

    @pytest.mark.parametrize("size", [0, MAX_FRAME_BYTES + 1])
    def test_write_frame_refuses_what_read_frame_refuses(self, size):
        sock = _RecordingSocket()
        with pytest.raises(ProtocolError, match="outside"):
            write_frame(sock, bytes(size))
        assert sock.sent == []          # typed, and nothing was written

    def test_write_frame_writes_the_largest_legal_frame(self):
        sock = _RecordingSocket()
        write_frame(sock, bytes(MAX_FRAME_BYTES))
        assert len(sock.sent) == 1
        assert len(sock.sent[0]) == 4 + MAX_FRAME_BYTES

    def test_client_edge_refuses_before_the_wire_and_keeps_its_session(self):
        """129 PUTs of 64 KiB: at the parent the client sent 8 MiB+, the
        server answered the length prefix with the whole-batch rejection
        and hung up — ``BatchRejectedError`` and a dead connection."""
        coordinator = ClusterConfig(n_shards=2, n_keys=64,
                                    scale=2048).build()
        with BackgroundServer(coordinator) as background:
            host, port = background.server.address
            with ClusterClient.connect(host, port) as client:
                session_id = client.session_info()["session_id"]
                oversize = [protocol.put(b"key-%03d" % i, self.BIG)
                            for i in range(129)]
                with pytest.raises(ProtocolError, match="batch exceeds") \
                        as refused:
                    client.request_batch(oversize)
                assert not isinstance(refused.value, BatchRejectedError)
                # Same for a payload that only outgrows the cap once
                # sealed (header + tag): refused by write_frame, unsent.
                with pytest.raises(ProtocolError, match="outside"):
                    client.send_frame(bytes(MAX_FRAME_BYTES - 8))
                # Same connection, same session: nothing reached the wire.
                assert client.put(b"small", b"value").ok
                assert client.get(b"small").value == b"value"
                assert client.session_info()["session_id"] == session_id
                assert client.reconnects == 0
            assert background.server.frames_served == 2

    def test_oversize_answers_are_refused_by_the_clients_reader(self):
        """129 GETs of 64 KiB values (less a byte: the largest a record
        holds): a small, legal request whose answers exceed 8 MiB.  The batch runs; the client's frame reader refuses
        the reply's length, typed, exactly as at the parent — and, since
        the server no longer ships the body nobody reads, the connection
        is still in step afterwards."""
        coordinator = ClusterConfig(n_shards=2, n_keys=256,
                                    scale=2048).build()
        with BackgroundServer(coordinator) as background:
            host, port = background.server.address
            with ClusterClient.connect(host, port) as client:
                keys = [b"key-%03d" % i for i in range(129)]
                stored = self.BIG[:-1]
                for start in range(0, 129, 43):
                    assert all(r.ok for r in client.request_batch(
                        [protocol.put(k, stored)
                         for k in keys[start:start + 43]]))
                with pytest.raises(
                        ProtocolError,
                        match=r"peer frame of \d+ bytes is outside") as refused:
                    client.request_batch([protocol.get(k) for k in keys])
                assert not isinstance(refused.value, BatchRejectedError)
                assert client.get(keys[0]).value == stored
                assert client.reconnects == 0
            assert background.server.frames_served == 5


# ---------------------------------------------------------------------------
# 4. seal/open against the FrameHeader round trip they replaced
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<2sBBQQ")

#: Nothing here is a multiple of a power of two: summing the same charges in
#: another order changes the float total.
_NON_DYADIC = CostModel().scaled(
    mac_base=811.1, mac_per_byte=4.1, enc_base=503.3, enc_per_byte=2.3)


class ReferenceSession(SecureSession):
    """``seal``/``open`` as they were before the flat rewrite: verbatim,
    but for the deadline field, which they take from ``FrameHeader``, and
    the session's prepared keys, which they read by their current names."""

    @staticmethod
    def _nonce(session_id, seq):
        return struct.pack("<QQ", session_id, seq)

    def seal(self, payload, budget_ms=None):
        self._send_seq += 1
        flags = self._send_flags
        if budget_ms is not None:
            flags |= FLAG_DEADLINE
        header = FrameHeader(version=WIRE_V2, flags=flags,
                             session_id=self.session_id, seq=self._send_seq,
                             budget_ms=budget_ms)
        header_bytes = header.encode()
        ciphertext = self._crypto.encrypt(
            self._send_enc_key,
            self._nonce(self.session_id, self._send_seq),
            payload,
        )
        tag = self._crypto.mac(self._send_mac_key,
                               header_bytes + ciphertext)
        self.meter.charge_event(
            "wire_enc", self._costs.enc_cost(len(payload)))
        self.meter.charge_event(
            "wire_mac",
            self._costs.mac_cost(len(header_bytes) + len(ciphertext)))
        self.frames_sealed += 1
        return header_bytes + ciphertext + tag

    def open(self, frame):
        if frame[:2] != protocol.V2_MAGIC:
            raise TamperedFrameError(
                "plaintext frame on an encrypted session")
        try:
            header, body = protocol.decode_frame(frame)
        except ProtocolError as refusal:
            # ``decode_frame`` refuses, from the header alone, a frame cut
            # inside its deadline field and a handshake frame claiming one.
            # A session first says what else is wrong with such a frame
            # (handshake mid-session, stale), then that it is too short, so
            # read it again without the bit; neither of the two gets as far
            # as the MAC below.
            if "deadline field" not in str(refusal):
                raise
            unflagged = bytearray(frame)
            unflagged[3] &= ~FLAG_DEADLINE
            header, body = protocol.decode_frame(bytes(unflagged))
        if header.flags & FLAG_HANDSHAKE:
            raise ProtocolError("unexpected handshake frame mid-session")
        if header.session_id != self.session_id:
            raise StaleSessionError(
                f"frame under session {header.session_id}, but this channel "
                f"is session {self.session_id}"
            )
        expected_flags = self._send_flags ^ FLAG_FROM_SERVER
        if len(body) < MAC_SIZE:
            raise TamperedFrameError("frame too short to carry a tag")
        ciphertext, tag = body[:-MAC_SIZE], body[-MAC_SIZE:]
        header_bytes = header.encode()
        self.meter.charge_event(
            "wire_mac",
            self._costs.mac_cost(len(header_bytes) + len(ciphertext)))
        if not self._crypto.mac_verify(self._recv_mac_key,
                                       header_bytes + ciphertext, tag):
            raise TamperedFrameError(
                f"frame {header.seq} of session {self.session_id} failed "
                "authentication"
            )
        if header.flags & ~FLAG_DEADLINE != expected_flags:
            raise TamperedFrameError("reflected frame (direction bit)")
        if header.seq <= self._recv_seq:
            raise ReplayError(
                f"replayed frame: seq {header.seq} does not advance past "
                f"{self._recv_seq} on session {self.session_id}"
            )
        self._recv_seq = header.seq
        self.meter.charge_event(
            "wire_enc", self._costs.enc_cost(len(ciphertext)))
        self.frames_opened += 1
        return self._crypto.decrypt(
            self._recv_enc_key,
            self._nonce(self.session_id, header.seq),
            ciphertext,
        )


SESSION_ID = 0x1122334455667788
_C2S = KeyMaterial(encryption_key=b"c" * 16, mac_key=b"C" * 16)
_S2C = KeyMaterial(encryption_key=b"s" * 16, mac_key=b"S" * 16)


def _session(cls, *, from_server, crypto="fast"):
    send, recv = (_S2C, _C2S) if from_server else (_C2S, _S2C)
    return cls(SESSION_ID, send_keys=send, recv_keys=recv,
               crypto=get_backend(crypto), costs=_NON_DYADIC,
               meter=CycleMeter(), from_server=from_server)


def _meters_agree(a, b):
    # Exact: same charges, same order, to the last ulp.
    assert a.meter.cycles == b.meter.cycles
    assert a.meter.events == b.meter.events


class TestSealOpenDifferential:
    @settings(max_examples=150, deadline=None)
    @given(payloads=st.lists(
               st.tuples(st.binary(max_size=300),
                         st.none() | st.integers(0, MAX_DEADLINE_MS)),
               min_size=1, max_size=6),
           from_server=st.booleans())
    def test_frames_cycles_and_events_are_identical(self, payloads,
                                                    from_server):
        ref_tx = _session(ReferenceSession, from_server=from_server)
        new_tx = _session(SecureSession, from_server=from_server)
        ref_rx = _session(ReferenceSession, from_server=not from_server)
        new_rx = _session(SecureSession, from_server=not from_server)
        for payload, budget_ms in payloads:
            frame = ref_tx.seal(payload, budget_ms)
            assert new_tx.seal(payload, budget_ms) == frame
            assert protocol.decode_frame(frame)[0].budget_ms == budget_ms
            _meters_agree(ref_tx, new_tx)
            assert ref_rx.open(frame) == payload
            assert new_rx.open(frame) == payload
            _meters_agree(ref_rx, new_rx)
        assert new_tx.frames_sealed == ref_tx.frames_sealed == len(payloads)
        assert new_rx.frames_opened == ref_rx.frames_opened == len(payloads)
        assert new_rx.meter.events["wire_mac"] == len(payloads)
        assert new_rx.meter.events["wire_enc"] == len(payloads)

    def test_real_backend_too(self):
        ref_tx = _session(ReferenceSession, from_server=False, crypto="real")
        new_tx = _session(SecureSession, from_server=False, crypto="real")
        new_rx = _session(SecureSession, from_server=True, crypto="real")
        for payload in (b"", b"x", b"y" * 16, b"z" * 100):
            frame = ref_tx.seal(payload)
            assert new_tx.seal(payload) == frame
            assert new_rx.open(frame) == payload
        _meters_agree(ref_tx, new_tx)

    def test_handshaken_sessions_still_interoperate(self):
        manager = SessionManager()
        handshake = ClientHandshake()
        reply, server = manager.accept(handshake.hello())
        client = handshake.finish(reply)
        for i in range(3):
            assert server.open(client.seal(b"ping-%d" % i)) == b"ping-%d" % i
            assert client.open(server.seal(b"pong-%d" % i)) == b"pong-%d" % i


# The refusal classes of ``open``, in the precedence the docstring of the
# frame path promises.  Each is a mutation of a frame the receiver would
# otherwise accept; the forger knows the keys, so the tag is recomputed
# over the mutated header — only the MAC class carries a bad tag.

def forge(spec):
    crypto = get_backend("fast")
    header = _HEADER.pack(spec["magic"], spec["version"], spec["flags"],
                          spec["session_id"], spec["seq"])
    if spec["flags"] & FLAG_DEADLINE:
        header += struct.pack("<I", 250)
    ciphertext = crypto.encrypt(
        _C2S.encryption_key,
        struct.pack("<QQ", spec["session_id"], spec["seq"]),
        spec["payload"])
    tag = crypto.mac(_C2S.mac_key, header + ciphertext)
    if not spec["good_tag"]:
        tag = tag[:-1] + bytes([tag[-1] ^ 0x01])
    return (header + ciphertext + tag)[:spec["cut"]]


def _spec(flags=0):
    # Client -> server, the third frame of the session (two were accepted).
    return {"magic": protocol.V2_MAGIC, "version": WIRE_V2, "flags": flags,
            "session_id": SESSION_ID, "seq": 3, "payload": b"p" * 40,
            "good_tag": True, "cut": None}


def _cut(spec, at):
    spec["cut"] = at if spec["cut"] is None else min(spec["cut"], at)


REFUSALS = [
    ("plaintext", lambda s: s.update(magic=b"\x02\x00"),
     TamperedFrameError, "plaintext frame on an encrypted session"),
    ("truncated", lambda s: _cut(s, 12),
     ProtocolError, "truncated v2 frame header"),
    ("version", lambda s: s.update(version=3),
     ProtocolError, "unsupported wire version 3"),
    ("flags", lambda s: s.update(flags=s["flags"] | 0x80),
     ProtocolError, "unknown frame flags 0x{flags:02x}"),
    ("handshake", lambda s: s.update(flags=s["flags"] | FLAG_HANDSHAKE),
     ProtocolError, "unexpected handshake frame mid-session"),
    ("stale", lambda s: s.update(session_id=SESSION_ID + 1),
     StaleSessionError,
     f"frame under session {SESSION_ID + 1}, but this channel is session "
     f"{SESSION_ID}"),
    ("short field", lambda s: _cut(s, _HEADER.size + 2),
     TamperedFrameError, "frame too short to carry a tag"),
    ("short tag", lambda s: _cut(s, _HEADER.size + MAC_SIZE - 1),
     TamperedFrameError, "frame too short to carry a tag"),
    ("mac", lambda s: s.update(good_tag=False),
     TamperedFrameError,
     f"frame 3 of session {SESSION_ID} failed authentication"),
    ("direction", lambda s: s.update(flags=s["flags"] ^ FLAG_FROM_SERVER),
     TamperedFrameError, "reflected frame (direction bit)"),
    ("replay", lambda s: s.update(seq=2),
     ReplayError,
     f"replayed frame: seq 2 does not advance past 2 on session "
     f"{SESSION_ID}"),
]


def _receivers():
    """A reference and a flat server-side session that accepted seq 1, 2."""
    pair = (_session(ReferenceSession, from_server=True),
            _session(SecureSession, from_server=True))
    for seq in (1, 2):
        spec = _spec()
        spec["seq"] = seq
        for receiver in pair:
            assert receiver.open(forge(spec)) == spec["payload"]
    return pair


def _refused_identically(frame):
    ref_rx, new_rx = _receivers()
    expected = outcome(ref_rx.open, frame)
    assert expected[0] == "raised"
    assert outcome(new_rx.open, frame) == expected
    # A refusal charges exactly what it charged before (the MAC is priced
    # before it is checked; nothing earlier is priced at all)...
    _meters_agree(ref_rx, new_rx)
    assert new_rx.frames_opened == ref_rx.frames_opened == 2
    # ...and leaves the replay window where it was.
    for receiver in (ref_rx, new_rx):
        assert receiver.open(forge(_spec())) == b"p" * 40
    _meters_agree(ref_rx, new_rx)
    return expected


class _EachRefusalClass:
    """The table, class by class and pair by pair, over a frame with
    ``FLAGS`` (hypothesis tests cannot be inherited, so they are not here)."""

    FLAGS = 0

    @pytest.mark.parametrize(
        "mutate, error, message",
        [r[1:] for r in REFUSALS], ids=[r[0] for r in REFUSALS])
    def test_each_class(self, mutate, error, message):
        spec = _spec(self.FLAGS)
        mutate(spec)
        assert _refused_identically(forge(spec)) == (
            "raised", error, message.format(flags=spec["flags"]))

    @pytest.mark.parametrize(
        "first, second",
        list(itertools.combinations(range(len(REFUSALS)), 2)),
        ids=lambda i: REFUSALS[i][0].replace(" ", "-"))
    def test_each_pair_on_one_frame(self, first, second):
        spec = _spec(self.FLAGS)
        REFUSALS[first][1](spec)
        REFUSALS[second][1](spec)
        kind, error, message = _refused_identically(forge(spec))
        # Precedence: the earlier class names the error.  Its message may
        # quote a field the later mutation changed (a replayed seq shows
        # in the MAC failure's text), so compare up to the first digit.
        assert error is REFUSALS[first][2]
        assert message.startswith(re.split(r"\d", REFUSALS[first][3])[0])


class TestOpenRefusals(_EachRefusalClass):
    @settings(max_examples=300, deadline=None)
    @given(blob=st.binary(max_size=80), magic=st.booleans())
    def test_arbitrary_bytes(self, blob, magic):
        frame = (protocol.V2_MAGIC if magic else b"") + blob
        ref_rx, new_rx = _receivers()
        assert outcome(new_rx.open, frame) == outcome(ref_rx.open, frame)
        _meters_agree(ref_rx, new_rx)

    @settings(max_examples=300, deadline=None)
    @given(flags=st.integers(0, 15), stale=st.booleans(),
           seq=st.integers(0, 4), blob=st.binary(max_size=48))
    def test_arbitrary_bytes_behind_a_v2_header(self, flags, stale, seq,
                                                blob):
        # Random bytes almost never spell version 2 and a known flag set;
        # this reaches the checks behind them, the field's cut included.
        frame = _HEADER.pack(protocol.V2_MAGIC, WIRE_V2, flags,
                             SESSION_ID + stale, seq) + blob
        ref_rx, new_rx = _receivers()
        assert outcome(new_rx.open, frame) == outcome(ref_rx.open, frame)
        _meters_agree(ref_rx, new_rx)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bit_flips_of_a_good_frame(self, data):
        frame = bytearray(forge(_spec(
            data.draw(st.sampled_from([0, FLAG_DEADLINE])))))
        for _ in range(data.draw(st.integers(1, 2))):
            bit = data.draw(st.integers(0, len(frame) * 8 - 1))
            frame[bit >> 3] ^= 1 << (bit & 7)
        ref_rx, new_rx = _receivers()
        assert outcome(new_rx.open, bytes(frame)) \
            == outcome(ref_rx.open, bytes(frame))
        _meters_agree(ref_rx, new_rx)


class TestOpenRefusalsOfADeadlineFrame(_EachRefusalClass):
    """The same refusals, in the same order, of a frame that carries the
    deadline field — the handshake class is then a frame ``decode_frame``
    refuses by itself, and "short field" one cut inside the field."""

    FLAGS = FLAG_DEADLINE

    def test_the_frame_is_accepted_unmutated(self):
        for receiver in _receivers():
            assert receiver.open(forge(_spec(self.FLAGS))) == b"p" * 40


# ---------------------------------------------------------------------------
# 5. The fast backend's keystream: blake2b up to 64 bytes, SHAKE-128 beyond
# ---------------------------------------------------------------------------


def ref_keystream(key, counter, length):
    """The definition, spelled out: one keyed blake2b block for a plaintext
    of up to 64 bytes (what a KV pair has always had), one SHAKE-128 squeeze
    of ``key | counter`` for anything longer (every sealed frame)."""
    if length <= 64:
        return blake2b(counter + (0).to_bytes(8, "little"), key=key,
                       digest_size=64).digest()[:length]
    return shake_128(key + counter).digest(length)


class TestKeystream:
    def test_every_length_up_to_1024(self):
        backend = FastCryptoBackend()
        key, counter = b"K" * 16, bytes(range(16))
        for length in itertools.chain(range(1025), (4096, MAX_FRAME_BYTES)):
            # XOR with zeros: encrypt *is* the keystream, on both sides of
            # the 64-byte split.
            assert backend.encrypt(key, counter, bytes(length)) \
                == ref_keystream(key, counter, length)

    @settings(max_examples=100, deadline=None)
    @given(key=st.binary(min_size=1, max_size=64),
           counter=st.binary(min_size=16, max_size=16),
           data=st.binary(max_size=400))
    def test_any_key_and_counter(self, key, counter, data):
        backend = FastCryptoBackend()
        stream = ref_keystream(key, counter, len(data))
        expected = bytes(a ^ b for a, b in zip(data, stream))
        sealed = backend.encrypt(key, counter, data)
        assert sealed == expected
        assert backend.decrypt(key, counter, sealed) == data


# ---------------------------------------------------------------------------
# 6. Python call budget of the pipeline (sys.setprofile, no wall clock)
# ---------------------------------------------------------------------------


def python_calls_outside_store_get(thunk):
    """Python-level calls ``thunk`` makes, minus ``AriaStore.get`` subtrees
    (the store has its own budget in ``test_secure_cache_walk.py``)."""
    get_code = AriaStore.get.__code__
    calls = 0
    inside = 0

    def profiler(frame, event, arg):
        nonlocal calls, inside
        if event == "call":
            if inside:
                inside += 1
            elif frame.f_code is get_code:
                inside = 1
            else:
                calls += 1
        elif event == "return" and inside:
            inside -= 1

    sys.setprofile(profiler)
    try:
        thunk()
    finally:
        sys.setprofile(None)
    return calls


FRAME_OPS = 8
#: 11.75 measured (35.75 before the frame path was flattened, 15.0 while
#: the door still peeled two envelopes off every frame, 14.75 while
#: ``Request``/``Response`` were dataclasses with a Python ``__init__``).
#: Two of them are definitions kept single on purpose: ``ring_hash`` under
#: ``HashRing.route`` and ``CostModel.enc_cost``/``mac_cost`` under
#: ``seal``/``open`` (one call per request each at 8-op frames).
PIPELINE_CALLS_PER_OP = 12


class TestCallBudget:
    """Upper bound, measured on CPython 3.11 at the commit that flattened
    the frame path.  Raise it only for a change that means to add a call
    per request between the socket and the store, and say so."""

    def test_front_door_pipeline(self):
        coordinator = ClusterConfig(n_shards=2, n_keys=512,
                                    scale=2048).build()
        coordinator.load((b"key-%04d" % i, b"v" * 16) for i in range(256))
        manager = SessionManager(seed=1)
        handshake = ClientHandshake()
        reply, server = manager.accept(handshake.hello())
        client = handshake.finish(reply)
        requests = [protocol.get(b"key-%04d" % (i * 7 % 256))
                    for i in range(FRAME_OPS)]
        assert len({coordinator.ring.route(r.key) for r in requests}) == 2

        def round_trip():
            # Client codec -> session -> front-door decode -> coordinator
            # (two inline shards) -> and back: everything a frame crosses
            # between the two sockets, on one thread.
            frame = client.seal(protocol.encode_batch(requests))
            plain = server.open(frame)
            responses = coordinator.execute(protocol.decode_batch(plain))
            reply = server.seal(protocol.encode_batch_responses(responses))
            return protocol.decode_batch_responses(
                client.open(reply), expected=len(requests))

        for _ in range(3):
            warm = round_trip()
        assert [r.status for r in warm] == [Status.OK] * FRAME_OPS
        assert all(r.value == b"v" * 16 for r in warm)
        hits = sum(shard.store.counters.cache_stats()["hits"]
                   for shard in coordinator.shard_list())
        calls = python_calls_outside_store_get(round_trip)
        assert calls <= PIPELINE_CALLS_PER_OP * FRAME_OPS, calls / FRAME_OPS
        # The frame really ran: eight Gets reached the stores.
        assert sum(shard.store.counters.cache_stats()["hits"]
                   for shard in coordinator.shard_list()) > hits
