"""The shard hop's wire: a closed command table over ``struct`` codecs.

What crosses between a coordinator-side handle and the process that holds
the enclave — the sealed TCP frame of :mod:`~repro.cluster.sockbackend`
and the worker pipe of :mod:`~repro.cluster.procbackend` carry the *same
bytes* — is one of the commands in :data:`COMMANDS` and its reply::

    call   := cmd (1) | argument | crc32 (4)
    reply  := ok (1) | cmd (1) | has_meter (1) | [meter] | payload | crc32 (4)

``cmd`` is the command's position in :data:`COMMANDS`, which also names
the layout of its argument and of its result (the reply repeats ``cmd``,
so a reply decodes on its own).  ``meter`` is the enclave meter's binary
form (:meth:`repro.sgx.meter.CycleMeter.to_bytes`), read from the live
meter once the payload is encoded and loaded into the handle's mirror in
place.  A failed reply's payload is an error document: the class's index
in :data:`ERROR_TABLE`, its ``args`` and the attributes in
:data:`ERROR_ATTRS` — rebuilt on the far side as ``cls(*args)``, then
the attributes, so the class and ``str()`` survive; a class outside the
table arrives as ``AriaError("<Class>: <message>")``.  Little-endian
layouts::

    blob      := len (4) | bytes
    blobs     := count (4) | blob*
    pairs     := count (4) | (k_len (4) | v_len (4) | key | value)*
    requests  := count (4) | (opcode (i32) | k_len (4) | v_len (4) | key | value)*
    responses := count (4) | (status (1) | v_len (4) | value)*
    windows   := count (4) | requests*
    outcomes  := count (4) | (1 (1) | responses  |  0 (1) | error document)*
    count     := i64 (a truth value is 0 or 1)
    document  := len (4) | JSON (bytes fields as hex), checked field by field

``flush`` carries every batch window a call gave one shard, and the far
side runs each as its own ECALL and answers it on its own: its responses,
or the error it raised.  A message takes whole windows only while their
call and their worst-case reply (every request answered with the largest
value, :data:`REPLY_BYTES_PER_REQUEST`) fit :data:`MESSAGE_BUDGET`, one
frame less one value's worth of room for the envelope.

The request list is structural, not policy: it carries an over-cap or
empty key, a value on a GET and an unknown opcode unchanged, so the
``AriaServer`` on the far side makes (and charges) the whole-batch
rejection exactly as an inline shard does.  The decoders are the trust
boundary's only parser: whatever the bytes, they return a value of the
declared shape or raise :class:`~repro.errors.ProtocolError` — nothing
here can run code, allocate from a claimed length, or let another
exception type escape.  The checksum makes every damaged message a
refusal where no MAC covers it (the pipe); it is not a security control.
"""

from __future__ import annotations

import dataclasses
import json
import struct
import zlib
from typing import Optional, Tuple

from repro import errors
from repro.cluster.shard import EnclaveSpec
from repro.core.config import AriaConfig
from repro.errors import AriaError, ProtocolError
from repro.server.protocol import (
    MAX_FRAME_BYTES, MAX_VALUE_BYTES, OpCode, Request, Response, Status)
from repro.sgx.meter import CycleMeter

_U32 = struct.Struct("<I")
_PAIR = struct.Struct("<II")
_REQUEST = struct.Struct("<iII")
_RESPONSE = struct.Struct("<BI")
_COUNT = struct.Struct("<q")
_CALL = struct.Struct("<B")
_REPLY = struct.Struct("<BBB")
_OPCODES = {int(member): member for member in OpCode}
_STATUSES = {int(member): member for member in Status}

#: The most one request's answer adds to a flush reply: a response header
#: and the largest value the protocol carries.
REPLY_BYTES_PER_REQUEST = _RESPONSE.size + MAX_VALUE_BYTES
#: What the windows of one flush message may take, as a call and as a
#: worst-case reply: one frame, less one value's worth of room for the
#: header, meter, outcome flags and seal around them.
MESSAGE_BUDGET = MAX_FRAME_BYTES - MAX_VALUE_BYTES


# ---------------------------------------------------------------------------
# Flat binary layouts: ``encode(value) -> bytes`` and
# ``decode(data, offset, end) -> (value, next offset)``
# ---------------------------------------------------------------------------


def _count_at(data: bytes, offset: int, end: int) -> Tuple[int, int]:
    if offset + 4 > end:
        raise ProtocolError("truncated length")
    return _U32.unpack_from(data, offset)[0], offset + 4


def _encode_none(value) -> bytes:
    return b""


def _decode_none(data: bytes, offset: int, end: int):
    return None, offset


def _encode_blob(value: bytes) -> bytes:
    return _U32.pack(len(value)) + value


def _decode_blob(data: bytes, offset: int, end: int):
    size, offset = _count_at(data, offset, end)
    if offset + size > end:
        raise ProtocolError("truncated bytes")
    return data[offset:offset + size], offset + size


def _listed(layout):
    """The layout ``count (4) | item*`` over an item ``layout``."""
    encode_item, decode_item = layout

    def encode(values) -> bytes:
        parts = [encode_item(value) for value in values]
        return _U32.pack(len(parts)) + b"".join(parts)

    def decode(data: bytes, offset: int, end: int):
        count, offset = _count_at(data, offset, end)
        values = []
        for _ in range(count):
            value, offset = decode_item(data, offset, end)
            values.append(value)
        return values, offset

    return encode, decode


def _encode_pair(pair) -> bytes:
    key, value = pair
    return _PAIR.pack(len(key), len(value)) + key + value


def _decode_pair(data: bytes, offset: int, end: int):
    start = offset + _PAIR.size
    if start > end:
        raise ProtocolError("truncated pair header")
    k_len, v_len = _PAIR.unpack_from(data, offset)
    split = start + k_len
    offset = split + v_len
    if offset > end:
        raise ProtocolError("truncated pair body")
    return (data[start:split], data[split:offset]), offset


def _encode_requests(requests) -> bytes:
    pack = _REQUEST.pack
    parts = [b""]
    for request in requests:
        key, value = request.key, request.value
        parts.append(pack(request.opcode, len(key), len(value)) + key + value)
    parts[0] = _U32.pack(len(parts) - 1)
    return b"".join(parts)


def _decode_requests(data: bytes, offset: int, end: int):
    count, offset = _count_at(data, offset, end)
    unpack_from, opcode_of = _REQUEST.unpack_from, _OPCODES.get
    new = tuple.__new__
    requests = []
    for _ in range(count):
        start = offset + _REQUEST.size
        if start > end:
            raise ProtocolError("truncated request header")
        code, k_len, v_len = unpack_from(data, offset)
        split = start + k_len
        offset = split + v_len
        if offset > end:
            raise ProtocolError("truncated request body")
        requests.append(new(Request, (opcode_of(code, code),
                                      data[start:split], data[split:offset])))
    return requests, offset


def _encode_responses(responses) -> bytes:
    pack = _RESPONSE.pack
    parts = [b""]
    for response in responses:
        value = response.value
        parts.append(pack(response.status, len(value)) + value)
    parts[0] = _U32.pack(len(parts) - 1)
    return b"".join(parts)


def _decode_responses(data: bytes, offset: int, end: int):
    count, offset = _count_at(data, offset, end)
    unpack_from, status_of = _RESPONSE.unpack_from, _STATUSES.get
    new = tuple.__new__
    responses = []
    for _ in range(count):
        start = offset + _RESPONSE.size
        if start > end:
            raise ProtocolError("truncated response header")
        code, v_len = unpack_from(data, offset)
        offset = start + v_len
        if offset > end:
            raise ProtocolError("truncated response body")
        responses.append(new(Response, (status_of(code, code),
                                        data[start:offset])))
    return responses, offset


def _encode_count(value: int) -> bytes:
    return _COUNT.pack(value)


def _decode_count(data: bytes, offset: int, end: int):
    if offset + _COUNT.size > end:
        raise ProtocolError("truncated count")
    return _COUNT.unpack_from(data, offset)[0], offset + _COUNT.size


# ---------------------------------------------------------------------------
# Documents: the cold control payloads, JSON checked field by field
# ---------------------------------------------------------------------------

_DECLARED = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _document(to_plain, from_plain):
    """A layout for values that cross as a checked JSON document."""

    def encode(value) -> bytes:
        return _encode_blob(json.dumps(
            to_plain(value), separators=(",", ":")).encode())

    def decode(data: bytes, offset: int, end: int):
        raw, offset = _decode_blob(data, offset, end)
        try:
            plain = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"malformed document: {exc}") from None
        return from_plain(plain), offset

    return encode, decode


def _plain(value):
    return value


def _checked(plain, kind, what: str):
    if not isinstance(plain, kind):
        raise ProtocolError(f"{what} is a {type(plain).__name__}")
    return plain


def _build(cls, plain, what: str):
    """``cls(**plain)`` once every key is a field of the dataclass ``cls``
    holding its declared type (undeclared ones: a mapping or ``None``)."""
    declared = {f.name: f.type for f in dataclasses.fields(cls)}
    for name, value in _checked(plain, dict, what).items():
        if name not in declared:
            raise ProtocolError(f"{what} has no field {name!r}")
        kind = _DECLARED.get(declared[name], (dict, type(None)))
        _checked(value, kind, f"{what} field {name!r}")
    try:
        return cls(**plain)
    except (TypeError, AriaError) as exc:
        raise ProtocolError(f"unusable {what}: {exc}") from None


def _quotas_from_plain(plain):
    if plain is not None:
        for owner, fraction in _checked(plain, dict, "quota map").items():
            _checked(fraction, (int, float), f"quota of {owner!r}")
    return plain


#: The exception classes that cross the hop as themselves, by position:
#: every class of :mod:`repro.errors`, then the builtins the store raises.
ERROR_TABLE = tuple(sorted(
    (cls for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, AriaError)),
    key=lambda cls: cls.__name__,
)) + (ValueError, KeyError, IndexError, TypeError, RuntimeError)
_ERROR_INDEX = {cls: index for index, cls in enumerate(ERROR_TABLE)}

#: Attributes set beside ``args`` that cross with their exception.
ERROR_ATTRS = ("retry_after", "constraint")


def _error_to_plain(exc: BaseException) -> list:
    if type(exc) not in _ERROR_INDEX:
        exc = AriaError(f"{type(exc).__name__}: {exc}")
    args = [{"hex": arg.hex()} if isinstance(arg, bytes)
            else arg if isinstance(arg, (str, int, float, type(None)))
            else str(arg) for arg in exc.args]
    attrs = {name: getattr(exc, name) for name in ERROR_ATTRS
             if hasattr(exc, name)}
    return [_ERROR_INDEX[type(exc)], args, attrs]


def _error_from_plain(plain) -> BaseException:
    try:
        index, args, attrs = plain
        if type(index) is not int or index < 0 \
                or not set(attrs.keys()) <= set(ERROR_ATTRS):
            raise ValueError("index or attributes outside the tables")
        exc = ERROR_TABLE[index](*[
            bytes.fromhex(arg["hex"]) if isinstance(arg, dict) else arg
            for arg in args])
        for name, value in attrs.items():
            setattr(exc, name, value)
    except (AttributeError, KeyError, IndexError, TypeError,
            ValueError) as bad:
        raise ProtocolError(f"malformed error reply: {bad!r}") from None
    return exc


NONE = (_encode_none, _decode_none)
BLOB = (_encode_blob, _decode_blob)
BLOBS = _listed(BLOB)
PAIRS = _listed((_encode_pair, _decode_pair))
COUNT = (_encode_count, _decode_count)
SPEC = _document(dataclasses.asdict, lambda plain: _build(
    EnclaveSpec, plain, "enclave spec"))
#: The ``ready`` reply: the store config, the one thing about an enclave
#: its handle cannot derive from the spec.  No key material: an enclave's
#: keys never leave it.
READY = _document(dataclasses.asdict, lambda plain: _build(
    AriaConfig, plain, "store config"))
NAME = _document(_plain, lambda plain: _checked(plain, str, "shard id"))
ROW = _document(_plain, lambda plain: _checked(plain, dict, "stats row"))
QUOTAS = _document(_plain, _quotas_from_plain)
ERROR = _document(_error_to_plain, _error_from_plain)


def _encode_outcome(outcome) -> bytes:
    """A window's answer: ``1`` and its responses, or ``0`` and the error
    document of what it raised."""
    if isinstance(outcome, BaseException):
        return b"\x00" + ERROR[0](outcome)
    return b"\x01" + _encode_responses(outcome)


def _decode_outcome(data: bytes, offset: int, end: int):
    if offset >= end or data[offset] > 1:
        raise ProtocolError(f"no outcome flag of 0 or 1 at byte {offset}")
    return (ERROR[1], _decode_responses)[data[offset]](data, offset + 1, end)


WINDOWS = _listed((_encode_requests, _decode_requests))
OUTCOMES = _listed((_encode_outcome, _decode_outcome))

#: The closed command table: name -> (argument layout, result layout).  A
#: command's position is its wire byte; nothing outside it can be asked.
COMMANDS = {
    "spawn": (SPEC, READY),
    "attach": (NAME, READY),
    "flush": (WINDOWS, OUTCOMES),
    "get": (BLOB, BLOB),
    "put": (PAIRS, NONE),
    "delete": (BLOB, NONE),
    "load": (PAIRS, NONE),
    "keys": (NONE, BLOBS),
    "len": (NONE, COUNT),
    "stats": (NONE, ROW),
    "retarget_quotas": (QUOTAS, NONE),
    "plant_corruption": (BLOB, COUNT),
    "shutdown": (NONE, NONE),
    "kill": (NONE, NONE),
}
_NAMES = tuple(COMMANDS)
_POSITION = {name: position for position, name in enumerate(_NAMES)}
_FLUSH = _CALL.pack(_POSITION["flush"])


# ---------------------------------------------------------------------------
# Messages
# ---------------------------------------------------------------------------


def _sealed(*parts: bytes) -> bytes:
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    return b"".join((*parts, _U32.pack(crc)))


def _body_end(data: bytes, header_size: int) -> int:
    """Where the body ends, once the checksum behind it holds."""
    end = len(data) - _U32.size
    if end < header_size:
        raise ProtocolError("truncated message")
    if zlib.crc32(memoryview(data)[:end]) != _U32.unpack_from(data, end)[0]:
        raise ProtocolError("message checksum mismatch")
    return end


def _command_at(data: bytes, offset: int) -> str:
    if data[offset] >= len(_NAMES):
        raise ProtocolError(f"unknown command {data[offset]}")
    return _NAMES[data[offset]]


def _whole(value, offset: int, end: int):
    if offset != end:
        raise ProtocolError(f"{end - offset} trailing bytes")
    return value


def encode_call(cmd: str, arg=None) -> bytes:
    """One command and its argument, ready for the pipe or for ``seal``."""
    try:
        return _sealed(_CALL.pack(_POSITION[cmd]),
                       COMMANDS[cmd][0][0](arg))
    except KeyError:
        raise ProtocolError(f"unknown command {cmd!r}") from None
    except (AttributeError, struct.error, TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable {cmd} argument: {exc}") from None


def encode_window(requests) -> bytes:
    """One batch window in the ``requests`` layout, ready for
    :func:`pack_windows`; a window no message can carry is refused here,
    before anything is sent."""
    try:
        window = _encode_requests(requests)
    except (AttributeError, struct.error, TypeError, ValueError) as exc:
        raise ProtocolError(f"unencodable flush argument: {exc}") from None
    if len(window) > MESSAGE_BUDGET:
        raise ProtocolError(f"{len(window)}-byte window is outside a message")
    return window


def pack_windows(windows) -> list:
    """Windows :func:`encode_window` encoded, in order, as ``flush`` calls,
    each ``(its window count, its bytes)``: a call takes whole windows
    while they and their worst-case reply fit :data:`MESSAGE_BUDGET`."""
    messages, call, reply = [], 0, 0
    for window in windows:
        answer = _U32.unpack_from(window)[0] * REPLY_BYTES_PER_REQUEST
        call, reply = call + len(window), reply + answer
        if not messages or max(call, reply) > MESSAGE_BUDGET:
            messages.append([])
            call, reply = len(window), answer
        messages[-1].append(window)
    # The bytes of encode_call("flush", <the windows' request lists>).
    return [(len(m), _sealed(_FLUSH, _U32.pack(len(m)), *m)) for m in messages]


def decode_call(data: bytes) -> tuple:
    """``(cmd, arg)``, or :class:`~repro.errors.ProtocolError`."""
    end = _body_end(data, _CALL.size)
    cmd = _command_at(data, 0)
    return cmd, _whole(*COMMANDS[cmd][0][1](data, _CALL.size, end), end)


def encode_reply(cmd: str, ok: bool, payload,
                 meter: Optional[CycleMeter] = None) -> bytes:
    """The answer to ``cmd``: its result (``ok``) or the exception raised,
    behind the enclave meter's state when there is an enclave."""
    body = (COMMANDS[cmd][1] if ok else ERROR)[0](payload)
    # The meter is read after the payload is encoded: encoding a lazy
    # result (``keys``) is enclave work this reply must carry.
    return _sealed(_REPLY.pack(ok, _POSITION[cmd], meter is not None),
                   b"" if meter is None else meter.to_bytes(), body)


def decode_reply(data: bytes, mirror: CycleMeter) -> tuple:
    """``(ok, payload)``; a piggybacked meter replaces ``mirror``'s state."""
    end = _body_end(data, _REPLY.size)
    ok, _, has_meter = _REPLY.unpack_from(data, 0)
    if ok > 1 or has_meter > 1:
        raise ProtocolError("malformed reply header")
    layout = COMMANDS[_command_at(data, 1)][1] if ok else ERROR
    offset = _REPLY.size
    if has_meter:
        offset = mirror.load_bytes(data, offset, end)
    return bool(ok), _whole(*layout[1](data, offset, end), end)
