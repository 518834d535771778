"""The shard hop's wire (``repro.cluster.rpc``): one closed, typed codec.

Bottom-up:

1. Round trip — every command's argument and result, every error class
   and the meter's binary form survive ``encode`` → ``decode`` unchanged.
2. Mutation — a truncated, bit-flipped, over-long or count-overrunning
   message is a ``ProtocolError``; with the checksum recomputed (a key
   holder writing garbage) it is a ``ProtocolError`` or a well-formed
   value, never another exception.
3. Hostile payloads — a correctly sealed frame (and a raw pipe message)
   carrying a pickle is refused without being loaded.
4. Error fidelity — what a worker raises arrives in the parent as the same
   class with the same ``str()``, on both remote backends; an exit inside
   a worker ends it instead of being served.
5. Equivalence — the same seeded batches, violation batches included,
   through inline, process and socket: equal responses, cycles, events.
6. No ``Connection.send``/``recv`` — a process cluster runs with both
   made to raise.
7. Only the seed decides — no reply carries a byte from the host, and
   every reply carries the enclave work its own answer did.
"""

import dataclasses
import multiprocessing
import multiprocessing.connection
import os
import pickle
import struct
import threading
import time
import zlib
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import errors
from repro.cluster import (
    ClusterConfig,
    HotShardBalancer,
    InlineBackend,
    ProcessBackend,
    ShardHost,
    SocketShard,
)
from repro.cluster import remote, rpc, sockbackend
from repro.cluster.framing import write_frame
from repro.cluster.procbackend import default_start_method
from repro.cluster.shard import EnclaveSpec
from repro.core.config import AriaConfig
from repro.core.tenant import prefixed_key, tenant_token
from repro.errors import (
    AriaError,
    ProtocolError,
    ShardCrashedError,
    ShardUnreachableError,
)
from repro.server import protocol
from repro.server.protocol import Request, Response
from repro.sgx.meter import EVENT_TABLE, CycleMeter, MeterSnapshot

procs = pytest.mark.procs
dist = pytest.mark.dist

EPC = 256 * 1024


def _spec(shard_id="s0", **overrides):
    return EnclaveSpec(shard_id, epc_bytes=EPC, capacity_keys=64,
                       config_overrides=overrides)


@pytest.fixture()
def thread_host():
    """One in-process shard host (alarms and registry are inspectable)."""
    host = ShardHost(seed=23)
    host.start()
    thread = threading.Thread(target=host.serve_forever, daemon=True)
    thread.start()
    yield host
    host.stop()
    thread.join(5.0)


@pytest.fixture()
def process_shard():
    backend = ProcessBackend()
    yield backend.create(_spec("p0"))
    backend.close()


def _socket_shard(host, spec):
    return SocketShard(spec, (host.host, host.port),
                       expected_measurements=[host.measurement])


# ---------------------------------------------------------------------------
# 1. Round trip
# ---------------------------------------------------------------------------

blobs = st.binary(max_size=40)
pairs = st.tuples(blobs, blobs)
i32 = st.integers(min_value=-(1 << 31), max_value=(1 << 31) - 1)
requests = st.lists(st.builds(Request, i32, blobs, blobs), max_size=6)
responses = st.lists(
    st.builds(Response, st.integers(min_value=0, max_value=255), blobs),
    max_size=6)
plain = st.one_of(st.none(), st.booleans(), st.integers(),
                  st.floats(allow_nan=False), st.text(max_size=8))
specs = st.builds(
    EnclaveSpec, st.text(max_size=12), epc_bytes=st.integers(0, 1 << 40),
    capacity_keys=st.integers(0, 1 << 30),
    index=st.sampled_from(["hash", "btree", "bplustree"]), seed=i32,
    workers=st.integers(1, 8),
    config_overrides=st.dictionaries(
        st.text(max_size=8),
        st.one_of(plain, st.dictionaries(st.text(max_size=8),
                                         st.floats(0.0, 1.0))),
        max_size=4))
quotas = st.one_of(st.none(), st.dictionaries(
    st.text(min_size=1, max_size=16), st.floats(0.01, 1.0), max_size=4))
ready = st.builds(
    lambda epc, quota_map: AriaConfig(
        secure_cache_bytes=epc,
        tenant_quotas={"ab": 0.5} if quota_map else None),
    st.integers(0, 1 << 40), st.booleans())
rows = st.dictionaries(
    st.text(max_size=8),
    st.one_of(plain, st.lists(st.floats(allow_nan=False), max_size=3),
              st.dictionaries(st.text(max_size=6), plain, max_size=3)),
    max_size=6)

#: For every command: a strategy for its argument and one for its result.
VALUES = {
    "spawn": (specs, ready),
    "attach": (st.text(max_size=20), ready),
    "flush": (st.lists(requests, max_size=3),
              st.lists(responses, max_size=3)),
    "get": (blobs, blobs),
    "put": (st.lists(pairs, min_size=1, max_size=1), st.none()),
    "delete": (blobs, st.none()),
    "load": (st.lists(pairs, max_size=6), st.none()),
    "keys": (st.none(), st.lists(blobs, max_size=6)),
    "len": (st.none(), st.integers(-(1 << 63), (1 << 63) - 1)),
    "stats": (st.none(), rows),
    "retarget_quotas": (quotas, st.none()),
    "plant_corruption": (blobs, st.booleans()),
    "shutdown": (st.none(), st.none()),
    "kill": (st.none(), st.none()),
}

meters = st.builds(
    lambda cycles, fixed, dynamic: CycleMeter(
        cycles, Counter({**fixed, **{f"tenant_evict_denied:{token}": count
                                     for token, count in dynamic.items()}})),
    st.floats(min_value=0, max_value=1e15),
    st.dictionaries(st.sampled_from(EVENT_TABLE),
                    st.integers(-(1 << 40), 1 << 40)),
    st.dictionaries(st.text(max_size=16), st.integers(1, 1 << 40),
                    max_size=3))


def test_every_command_has_a_round_trip_strategy_and_a_handler():
    assert set(VALUES) == set(rpc.COMMANDS)
    assert len(rpc.COMMANDS) == 14
    assert set(remote._HANDLERS) | {"spawn", "attach", "shutdown", "kill"} \
        == set(rpc.COMMANDS)


@pytest.mark.parametrize("cmd", sorted(rpc.COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_call_and_reply_round_trip(cmd, data):
    arg = data.draw(VALUES[cmd][0])
    result = data.draw(VALUES[cmd][1])
    meter = data.draw(st.one_of(st.none(), meters))
    assert rpc.decode_call(rpc.encode_call(cmd, arg)) == (cmd, arg)
    mirror = CycleMeter(cycles=-1.0, events=Counter(stale=1))
    ok, back = rpc.decode_reply(rpc.encode_reply(cmd, True, result, meter),
                                mirror)
    assert ok is True and back == result
    if meter is None:
        assert mirror.cycles == -1.0 and mirror.events == Counter(stale=1)
    else:
        assert mirror.cycles == meter.cycles
        assert mirror.events == meter.events


def test_flush_round_trip_restores_enum_members():
    batch = [protocol.get(b"k"), protocol.put(b"k", b"v"), Request(99, b"k")]
    _, [back] = rpc.decode_call(rpc.encode_call("flush", [batch]))
    assert [type(r.opcode) for r in back] \
        == [protocol.OpCode, protocol.OpCode, int]
    reply = rpc.encode_reply("flush", True, [[Response(protocol.STATUS_OK)]])
    _, [[response]] = rpc.decode_reply(reply, CycleMeter())
    assert response.status is protocol.Status.OK


def test_flush_carries_a_generator():
    batch = [protocol.get(b"a"), protocol.get(b"b")]
    wire = rpc.encode_call("flush", [(request for request in batch)])
    assert wire == rpc.encode_call("flush", [batch])


def test_unencodable_arguments_are_typed():
    with pytest.raises(ProtocolError, match="unknown command"):
        rpc.encode_call("eval", b"1+1")
    with pytest.raises(ProtocolError, match="unencodable"):
        rpc.encode_call("flush", [[Request(1 << 40, b"k")]])
    with pytest.raises(ProtocolError, match="unencodable"):
        rpc.encode_call("spawn", _spec(hook=object()))


ALL_ERRORS = [cls for cls in vars(errors).values()
              if isinstance(cls, type) and issubclass(cls, AriaError)]


def _raised():
    """One instance of every class that crosses as itself, then two that
    do not (each paired with what must arrive instead)."""

    class Local(AriaError):
        pass

    cases = [(cls(f"boom in {cls.__name__}"),) * 2 for cls in ALL_ERRORS
             if not issubclass(cls, OSError)]
    cases += [(exc, exc) for exc in (
        errors.KeyNotFoundError(b"k\x00\xff"),
        errors.OverloadedError("shed", retry_after=1.25),
        errors.DeadlineExceededError("late", retry_after=0.5),
        errors.PlanRejectedError("no room", constraint="epc_budget"),
        errors.DiskIOError(5, "device gone"),
        errors.ClusterConnectionError("peer closed"),
        errors.AriaError(),
        errors.AriaError("two", 2),
        ValueError("bad value"), KeyError("missing"), IndexError(3),
        TypeError("wrong type"), RuntimeError("oops"),
    )]
    cases += [
        (ZeroDivisionError("division by zero"),
         AriaError("ZeroDivisionError: division by zero")),
        (Local("not in the table"), AriaError("Local: not in the table")),
        (struct.error("bad pack"), AriaError("error: bad pack")),
    ]
    return cases


def _same_error(got, want):
    assert type(got) is type(want)
    assert str(got) == str(want)
    assert got.args == want.args
    for name in rpc.ERROR_ATTRS:
        assert getattr(got, name, None) == getattr(want, name, None)


def test_error_table_is_every_aria_error_plus_the_builtins():
    assert set(rpc.ERROR_TABLE) == set(ALL_ERRORS) | {
        ValueError, KeyError, IndexError, TypeError, RuntimeError}
    assert len(set(rpc.ERROR_TABLE)) == len(rpc.ERROR_TABLE)


@pytest.mark.parametrize("raised,arrives", _raised(),
                         ids=lambda e: type(e).__name__)
def test_error_replies_round_trip(raised, arrives):
    meter = CycleMeter(7.0, Counter(ecall=1))
    mirror = CycleMeter()
    ok, back = rpc.decode_reply(
        rpc.encode_reply("get", False, raised, meter), mirror)
    assert ok is False
    _same_error(back, arrives)
    assert mirror.snapshot() == meter.snapshot()


@given(meters)
@settings(max_examples=80, deadline=None)
def test_meter_binary_form_equals_the_dict_form(meter):
    snap = meter.snapshot()
    binary = MeterSnapshot.from_bytes(snap.to_bytes())
    by_dict = MeterSnapshot.from_dict(snap.to_dict())
    assert binary.cycles == by_dict.cycles == meter.cycles
    assert binary.events == by_dict.events
    assert meter.to_bytes() == snap.to_bytes()      # live meter, no copy
    assert all(binary.events.values())              # zero = absent


def test_meter_binary_form_all_table_events_none_and_dynamic():
    full = CycleMeter(1.5, Counter({name: i + 1
                                    for i, name in enumerate(EVENT_TABLE)}))
    empty = CycleMeter()
    dynamic = CycleMeter(2.0, Counter({"tenant_evict_denied:00ff": 3,
                                       "tenant_evict_denied": 3, "new": -1}))
    for meter in (full, empty, dynamic):
        back = MeterSnapshot.from_bytes(meter.to_bytes())
        assert back == MeterSnapshot.from_dict(meter.snapshot().to_dict())
    assert len(empty.to_bytes()) == len(full.to_bytes()) \
        == 8 + 8 * len(EVENT_TABLE) + 2
    assert tuple(sorted(EVENT_TABLE)) == EVENT_TABLE
    with pytest.raises(ProtocolError, match="trailing"):
        MeterSnapshot.from_bytes(empty.to_bytes() + b"\x00")


# ---------------------------------------------------------------------------
# 2. Mutation
# ---------------------------------------------------------------------------


def _resealed(body: bytes) -> bytes:
    return body + struct.pack("<I", zlib.crc32(body))


def _sample_messages():
    meter = CycleMeter(9.5, Counter({"ecall": 2, "tenant_evict_denied:ab": 1}))
    config = AriaConfig(tenant_quotas={"ab": 0.5})
    batch = [protocol.get(b"key-1"), protocol.put(b"key-2", b"value")]
    calls = [
        ("spawn", _spec(tenant_quotas={"ab": 0.5})), ("attach", "s0"),
        ("flush", [batch]), ("get", b"key"), ("put", [(b"key", b"value")]),
        ("load", [(b"a", b"1"), (b"b", b"2")]), ("keys", None),
        ("retarget_quotas", {"ab": 0.25}), ("shutdown", None),
    ]
    replies = [
        ("spawn", True, config),
        ("flush", True, [[Response(0, b"v"), Response(1)]]),
        ("get", True, b"value"), ("keys", True, [b"a", b"bc"]),
        ("len", True, 12), ("plant_corruption", True, True),
        ("stats", True, {"shard": "s0", "cycles": 1.5}),
        ("get", False, errors.KeyNotFoundError(b"key")),
        ("put", False, errors.OverloadedError("shed", retry_after=2.0)),
    ]
    messages = [(rpc.decode_call, rpc.encode_call(*call)) for call in calls]
    decode_reply = lambda data: rpc.decode_reply(data, CycleMeter())  # noqa: E731
    messages += [(decode_reply, rpc.encode_reply(*reply, meter))
                 for reply in replies]
    messages.append((decode_reply, rpc.encode_reply("shutdown", True, None)))
    # A call's windows for one shard, and one outcome per window.
    messages.append((rpc.decode_call, rpc.encode_call(
        "flush", [batch, [protocol.delete(b"key-1")], []])))
    messages.append((decode_reply, rpc.encode_reply("flush", True, [
        [Response(0, b"v")], errors.OverloadedError("shed", retry_after=2.0),
        []], meter)))
    return messages


MESSAGES = _sample_messages()


@pytest.mark.parametrize("decode,wire", MESSAGES,
                         ids=[f"m{i}" for i in range(len(MESSAGES))])
class TestMutation:
    def test_every_truncation_is_refused(self, decode, wire):
        decode(wire)
        for cut in range(len(wire)):
            with pytest.raises(ProtocolError):
                decode(wire[:cut])

    def test_every_single_bit_flip_is_refused(self, decode, wire):
        for position in range(len(wire)):
            for bit in range(8):
                flipped = bytearray(wire)
                flipped[position] ^= 1 << bit
                with pytest.raises(ProtocolError):
                    decode(bytes(flipped))

    def test_an_over_long_tail_is_refused(self, decode, wire):
        for tail in (b"\x00", b"\x00" * 4, wire):
            with pytest.raises(ProtocolError):
                decode(wire + tail)
            with pytest.raises(ProtocolError, match="trailing|truncated"):
                decode(_resealed(wire[:-4] + tail))

    def test_a_key_holders_garbage_never_escapes_as_another_type(
            self, decode, wire):
        """Checksum recomputed: the structure checks stand on their own."""
        body = wire[:-4]
        for position in range(len(body)):
            for bit in range(8):
                flipped = bytearray(body)
                flipped[position] ^= 1 << bit
                try:
                    decode(_resealed(bytes(flipped)))
                except ProtocolError:
                    pass
        for cut in range(len(body)):
            with pytest.raises(ProtocolError):
                decode(_resealed(body[:cut]))


def test_a_count_that_overruns_the_buffer_is_refused():
    batch = [protocol.get(b"k")]
    for cmd, arg in (("flush", [batch]), ("load", [(b"k", b"v")])):
        body = bytearray(rpc.encode_call(cmd, arg)[:-4])
        for claimed in (2, 1 << 16, (1 << 32) - 1):
            body[1:5] = struct.pack("<I", claimed)
            with pytest.raises(ProtocolError, match="truncated"):
                rpc.decode_call(_resealed(bytes(body)))
    body = bytearray(rpc.encode_call("get", b"key")[:-4])
    body[1:5] = struct.pack("<I", (1 << 32) - 1)   # a 4 GB key, claimed
    with pytest.raises(ProtocolError, match="truncated"):
        rpc.decode_call(_resealed(bytes(body)))
    reply = bytearray(rpc.encode_reply("keys", True, [b"a"])[:-4])
    reply[3:7] = struct.pack("<I", 1 << 20)
    with pytest.raises(ProtocolError, match="truncated"):
        rpc.decode_reply(_resealed(bytes(reply)), CycleMeter())


def test_the_flush_layouts_refuse_counts_and_flags_they_cannot_hold():
    """Windows and outcomes at the trust boundary: a truncated count, a
    count past the bytes (of windows, of one window's requests, of
    outcomes) and an outcome flag that is neither 0 nor 1 are each a
    ``ProtocolError`` and nothing else."""
    call = rpc.encode_call("flush", [[protocol.get(b"k")],
                                     [protocol.put(b"k", b"v")]])[:-4]
    reply = rpc.encode_reply("flush", True, [
        [Response(0, b"v")], errors.KeyNotFoundError(b"k")])[:-4]
    calls, replies = [], []
    for body, start, into in ((call, 1, calls), (reply, 3, replies)):
        into += [body[:start + cut] for cut in range(4)]
        into += [body[:start] + struct.pack("<I", claimed) + body[start + 4:]
                 for claimed in (3, 1 << 16, (1 << 32) - 1)]
    calls.append(call[:5] + struct.pack("<I", 2) + call[9:])
    second_flag = 3 + 4 + 1 + 4 + 6       # header, count, flag, one response
    for position in (7, second_flag):
        for flag in (2, 0x80, 0xFF):
            bad = bytearray(reply)
            bad[position] = flag
            replies.append(bytes(bad))
    for body in calls:
        with pytest.raises(ProtocolError):
            rpc.decode_call(_resealed(body))
    for body in replies:
        with pytest.raises(ProtocolError):
            rpc.decode_reply(_resealed(body), CycleMeter())
    ok, [[answer], refused] = rpc.decode_reply(_resealed(reply), CycleMeter())
    assert ok and answer == Response(0, b"v")
    assert type(refused) is errors.KeyNotFoundError


def test_unknown_command_class_index_and_field_are_refused():
    with pytest.raises(ProtocolError, match="unknown command 16"):
        rpc.decode_call(_resealed(b"\x10"))
    with pytest.raises(ProtocolError, match="unknown command"):
        rpc.decode_reply(_resealed(b"\x01\xff\x00"), CycleMeter())

    def error_reply(document: bytes) -> bytes:
        return _resealed(b"\x00\x03\x00" + struct.pack("<I", len(document))
                         + document)

    for document in (b"[999, [], {}]", b"[-1, [], {}]", b"[true, [], {}]",
                     b'[0, [], {"__class__": 1}]', b'[0, [{"hex": "zz"}], {}]',
                     b'[0, [{}], {}]', b"[0, 5, {}]", b"[0, [], []]", b"{}",
                     b"[0]", b"not json", b"\xff\xfe", b"[" * 100_000):
        with pytest.raises(ProtocolError, match="malformed"):
            rpc.decode_reply(error_reply(document), CycleMeter())

    def spawn(document: bytes) -> bytes:
        return _resealed(b"\x00" + struct.pack("<I", len(document))
                         + document)

    good = dataclasses.asdict(_spec())
    assert rpc.decode_call(rpc.encode_call("spawn", _spec()))[1] == _spec()
    import json
    for bad in ({**good, "__reduce__": "os.system"},
                {**good, "epc_bytes": "many"},
                {**good, "config_overrides": [1]},
                {"shard_id": "only"}, [good], "s0", None):
        with pytest.raises(ProtocolError, match="enclave spec"):
            rpc.decode_call(spawn(json.dumps(bad).encode()))


# ---------------------------------------------------------------------------
# 3. Hostile payloads: a pickle is never loaded
# ---------------------------------------------------------------------------


class _Bomb:
    """Unpickling this touches ``path``: proof the payload was loaded."""

    def __init__(self, path):
        self.path = path

    def __reduce__(self):
        return (open, (self.path, "w"))


@dist
def test_sealed_pickle_bomb_is_refused_unloaded(thread_host, tmp_path):
    sentinel = tmp_path / "pwned"
    shard = _socket_shard(thread_host, _spec("pb"))
    try:
        shard.store.put(b"k", b"v")
        # An authenticated, correctly sealed, in-sequence frame: everything
        # the session layer checks passes.  Only the codec stands in the way.
        write_frame(shard._sock, shard._session.seal(
            pickle.dumps(("flush", ([_Bomb(str(sentinel))],)))))
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline and not thread_host.alarms["wire"]:
            time.sleep(0.01)
        assert thread_host.alarms["wire"] == 1
        assert not sentinel.exists()
        # The connection is dropped ...
        with pytest.raises(ShardCrashedError):
            shard.store.get(b"k")
        # ... and the enclave stays in the registry, state intact.
        assert "pb" in thread_host._enclaves
        assert shard.reconnect() is True
        assert shard.store.get(b"k") == b"v"
    finally:
        shard.close()


@dist
def test_sealed_garbage_reply_is_a_decode_alarm(thread_host, monkeypatch):
    shard = _socket_shard(thread_host, _spec("gr"))
    try:
        shard.store.put(b"k", b"v")
        # The host seals whatever its dispatcher answers: an authentic,
        # in-sequence frame around bytes that are no reply.
        with monkeypatch.context() as patch:
            patch.setattr(sockbackend, "rpc_reply",
                          lambda shard, cmd, arg: b"\xff not a reply")
            with pytest.raises(ShardUnreachableError, match="undecodable"):
                shard.store.get(b"k")
        assert shard.wire_alarms == {"decode": 1}
        assert shard._sock is None  # severed, like a tampered frame
        # The enclave was never the problem: it re-attaches, state intact.
        assert shard.reconnect() is True
        assert shard.store.get(b"k") == b"v"
    finally:
        shard.close()


@procs
def test_pipe_garbage_ends_the_worker_typed(process_shard, tmp_path):
    sentinel = tmp_path / "pwned"
    process_shard.store.put(b"k", b"v")
    process_shard._conn.send_bytes(pickle.dumps(_Bomb(str(sentinel))))
    with pytest.raises(ShardCrashedError):
        process_shard._recv(timeout=10.0)
    assert not sentinel.exists()
    assert process_shard.crashed
    process_shard._proc.join(5.0)
    assert process_shard._proc.exitcode == 1      # SystemExit(<why>)


# ---------------------------------------------------------------------------
# 4. Error fidelity across the hop
# ---------------------------------------------------------------------------

CASES = _raised()


def _raise_case(shard, cmd, arg):
    """Stands in for ``dispatch_shard_rpc``: ``get`` of a case's number
    raises that case (forked workers inherit the patch)."""
    if cmd == "get":
        raise CASES[int(arg)][0]
    if cmd == "delete":
        raise SystemExit(3)
    return None


def _assert_error_fidelity(shard):
    for number, (_, arrives) in enumerate(CASES):
        with pytest.raises(type(arrives)) as caught:
            shard.store.get(b"%d" % number)
        _same_error(caught.value, arrives)
    assert not shard.crashed


needs_fork = pytest.mark.skipif(
    default_start_method() != "fork",
    reason="workers inherit the patched dispatch only when forked")


@procs
@needs_fork
def test_error_fidelity_over_the_pipe(monkeypatch):
    monkeypatch.setattr(remote, "dispatch_shard_rpc", _raise_case)
    backend = ProcessBackend()
    try:
        shard = backend.create(_spec("e0"))
        _assert_error_fidelity(shard)
        # An exit is not an answer: it ends the worker, and the parent
        # maps the dead pipe to a crash.
        with pytest.raises(ShardCrashedError):
            shard.store.delete(b"k")
        shard._proc.join(5.0)
        assert shard._proc.exitcode == 3
    finally:
        backend.close()


@dist
def test_error_fidelity_over_the_socket(monkeypatch, thread_host):
    monkeypatch.setattr(remote, "dispatch_shard_rpc", _raise_case)
    shard = _socket_shard(thread_host, _spec("e1"))
    try:
        _assert_error_fidelity(shard)
    finally:
        shard.close()


def test_rpc_reply_answers_exceptions_but_not_exits(monkeypatch):
    class Enclave:
        meter = CycleMeter()

    def interrupted(shard, cmd, arg):
        raise KeyboardInterrupt

    monkeypatch.setattr(remote, "dispatch_shard_rpc", _raise_case)
    ok, payload = rpc.decode_reply(remote.rpc_reply(Enclave, "get", b"0"),
                                   CycleMeter())
    assert not ok and type(payload) is type(CASES[0][1])
    with pytest.raises(SystemExit):
        remote.rpc_reply(Enclave, "delete", b"k")
    monkeypatch.setattr(remote, "dispatch_shard_rpc", interrupted)
    with pytest.raises(KeyboardInterrupt):
        remote.rpc_reply(Enclave, "get", b"k")

    class Unbuildable:
        def build(self):
            raise SystemExit(4)

    with pytest.raises(SystemExit):
        remote.spawn_reply(Unbuildable())


def test_a_build_failure_reaches_the_parent_typed():
    backend = ProcessBackend()
    try:
        with pytest.raises(errors.ConfigurationError, match="index scheme"):
            backend.create(dataclasses.replace(_spec("bad"), index="trie"))
    finally:
        backend.close()


# ---------------------------------------------------------------------------
# 5. Differential equivalence: inline == process == socket
# ---------------------------------------------------------------------------

MINNOW, WHALE = "minnow", "whale"


def _script():
    """Seeded batches for one shard, violation batches among them."""
    import random

    rng = random.Random(17)
    keys = [b"key-%03d" % i for i in range(48)]
    batches = []
    for _ in range(6):
        batch = []
        for _ in range(rng.randrange(1, 24)):
            key = rng.choice(keys)
            batch.append(rng.choice([
                protocol.get(key), protocol.put(key, b"w" * rng.randrange(40)),
                protocol.delete(key), protocol.get(b"absent-" + key)]))
        batches.append(batch)
    good = protocol.put(b"key-000", b"v")
    batches += [
        [good, protocol.get(b"k" * (protocol.MAX_KEY_BYTES + 1))],
        [good, Request(protocol.OP_GET, b"")],
        [good, Request(protocol.OP_GET, b"key-001", b"value on a get")],
        [good, Request(99, b"key-001")],
        [good, protocol.put(b"k", b"v" * (protocol.MAX_VALUE_BYTES + 1))],
        [],
        [protocol.get(b"key-001")] * (protocol.MAX_BATCH_COUNT + 1),
        [protocol.get(b"key-000"), protocol.health()],
    ]
    return keys, batches


def _drive(shard):
    keys, batches = _script()
    shard.store.load([(key, b"v-" + key) for key in keys])
    answers = [shard.server.flush_batch(batch) for batch in batches]
    # The tenancy-armed half: a protected minnow fills the cache, the
    # whale's misses are denied evictions and counted under its token.
    for i in range(200):
        shard.store.put(prefixed_key(MINNOW, b"m-%03d" % i), b"m" * 16)
    answers.append(shard.server.flush_batch(
        [protocol.put(prefixed_key(WHALE, b"w-%03d" % i), b"w" * 16)
         for i in range(120)]))
    snapshot = shard.meter.snapshot()
    return answers, snapshot.cycles, snapshot.events, sorted(shard.store.keys())


@procs
@dist
def test_backends_agree_on_responses_cycles_and_every_event(thread_host):
    spec = EnclaveSpec(       # a Secure Cache small enough to fill
        "d0", epc_bytes=64 * 1024, capacity_keys=4096, seed=5,
        config_overrides={"tenant_quotas": {tenant_token(MINNOW): 1.0},
                          "stop_swap_enabled": False,
                          "cache_fraction": 0.05, "pin_levels": 1})
    process = ProcessBackend()
    shards = {"inline": InlineBackend().create(spec),
              "process": process.create(spec),
              "socket": _socket_shard(thread_host, spec)}
    try:
        results = {name: _drive(shard) for name, shard in shards.items()}
    finally:
        shards["socket"].close()
        process.close()
    answers, cycles, events, _ = results["inline"]
    assert events["tenant_evict_denied:%s" % tenant_token(WHALE)] > 0
    rejections = [a for a in answers if protocol.is_batch_rejection(a)]
    assert len(rejections) == 6       # all but the empty and health batches
    for name in ("process", "socket"):
        got_answers, got_cycles, got_events, _ = results[name]
        assert got_answers == answers, name
        assert got_cycles == cycles, name
        assert got_events == events, name
        assert dict(+got_events) == dict(+events), name
        assert results[name][3] == results["inline"][3]


@procs
@dist
def test_retargeted_quotas_reach_every_handles_config(thread_host):
    """A handle's config says what its enclave runs: after a live quota
    retarget a remote handle carries the new map, as an inline one does."""
    spec = _spec("q0")
    process = ProcessBackend()
    shards = {"inline": InlineBackend().create(spec),
              "process": process.create(spec),
              "socket": _socket_shard(thread_host, spec)}
    quotas = {tenant_token(MINNOW): 0.5}
    try:
        for name, shard in shards.items():
            assert shard.store.config.tenant_quotas is None, name
            shard.store.retarget_tenant_quotas(quotas)
            assert shard.store.config.tenant_quotas == quotas, name
            shard.store.retarget_tenant_quotas(None)
            assert shard.store.config.tenant_quotas is None, name
    finally:
        shards["socket"].close()
        process.close()


# ---------------------------------------------------------------------------
# 6. The pipe carries bytes: no Connection.send / Connection.recv
# ---------------------------------------------------------------------------


@procs
def test_process_cluster_never_pickles_through_the_pipe(monkeypatch):
    def refuse(self, *args, **kwargs):
        raise AssertionError("Connection.send/recv pickles; use *_bytes")

    if default_start_method() != "fork":
        pytest.skip("spawn-started workers re-import an unpatched module")
    monkeypatch.setattr(multiprocessing.connection.Connection, "send", refuse)
    monkeypatch.setattr(multiprocessing.connection.Connection, "recv", refuse)
    cluster = ClusterConfig(
        n_shards=4, n_keys=512, scale=2048, batch_window=8, backend="process",
        vnodes={"shard-0": 116, "shard-1": 4, "shard-2": 4,
                "shard-3": 4}).build()
    try:
        pairs = [(b"key-%04d" % i, b"val-%04d" % i) for i in range(256)]
        cluster.load(pairs)                                        # load
        balancer = HotShardBalancer(cluster, check_every=256,
                                    imbalance_threshold=1.3,
                                    min_window_ops=64)
        cluster.balancer = balancer
        for _ in range(6):                                         # flush
            responses = cluster.execute([protocol.get(k) for k, _ in pairs])
            assert [r.value for r in responses] == [v for _, v in pairs]
        assert balancer.total_keys_moved() > 0                     # migrate
        report = cluster.stats().report()                          # stats
        assert report["cluster"]["keys"] == len(pairs)
        assert set(report["shards"]) == set(cluster.shards)
    finally:
        cluster.close()                                            # close
    assert not multiprocessing.active_children()


# ---------------------------------------------------------------------------
# 7. Only the seed decides what crosses
# ---------------------------------------------------------------------------


def test_the_ready_reply_is_the_same_bytes_whatever_the_pid(monkeypatch):
    """Metered hop bytes are charged per byte: a host's pid in them would
    make simulated cycles depend on the pid's digit count."""
    replies = []
    for pid in (1234, 123456):
        monkeypatch.setattr(os, "getpid", lambda pid=pid: pid)
        shard, reply = remote.spawn_reply(_spec("pid"))
        assert shard is not None
        replies.append((reply, remote.ready_reply(shard, "attach")))
    assert replies[0] == replies[1]


def test_a_keys_reply_carries_the_walk_that_answered_it():
    """``AriaStore.keys()`` is lazy: the index walk is charged while the
    reply encodes it, and that reply (not the next) must carry it."""
    shard = _spec("walk").build()
    shard.store.load([(b"key-%02d" % i, b"v") for i in range(40)])
    before = shard.meter.cycles
    reply = remote.rpc_reply(shard, "keys", None)
    assert shard.meter.cycles > before           # the walk costs cycles
    mirror = CycleMeter()
    ok, keys = rpc.decode_reply(reply, mirror)
    assert ok and len(keys) == 40
    assert mirror.snapshot() == shard.meter.snapshot()
