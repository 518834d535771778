"""Unit tests for the overload-control primitives and wire plumbing.

Deterministic fake clocks drive :class:`Deadline`, :class:`TokenBucket`,
and :class:`CircuitBreaker` through their state machines; hypothesis pins
the token bucket's two admission invariants (never above rate, recovers
after a burst) and the retry budget's amplification bound.  The protocol
half round-trips every ``Status``/``OpCode`` — including the new
``STATUS_OVERLOADED`` with its ``retry_after`` payload — and the v2
header's deadline field.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ShardHandle
from repro.cluster.overload import (
    BreakerState,
    CircuitBreaker,
    Deadline,
    OverloadConfig,
    RetryBudget,
    TokenBucket,
)
from repro.cluster.session import ClientHandshake, SessionManager
from repro.crypto.backend import MAC_SIZE
from repro.errors import (
    ConfigurationError,
    DeadlineExceededError,
    HandshakeError,
    OverloadedError,
    ProtocolError,
    TamperedFrameError,
)
from repro.server import protocol
from repro.server.protocol import OpCode, Request, Response, Status

pytestmark = pytest.mark.overload


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- Deadline ----------------------------------------------------------------------


class TestDeadline:
    def test_counts_down_and_expires(self):
        clock = FakeClock()
        deadline = Deadline(0.5, clock=clock)
        assert deadline.remaining() == pytest.approx(0.5)
        assert not deadline.expired()
        clock.advance(0.3)
        assert deadline.remaining() == pytest.approx(0.2)
        clock.advance(0.3)
        assert deadline.expired()
        assert deadline.remaining() == 0.0

    def test_check_raises_typed_error(self):
        clock = FakeClock()
        deadline = Deadline(0.1, clock=clock)
        deadline.check()  # fine while budget remains
        clock.advance(0.2)
        with pytest.raises(DeadlineExceededError):
            deadline.check("probe")
        # DeadlineExceededError is an OverloadedError: one except clause
        # catches both shed shapes.
        with pytest.raises(OverloadedError):
            deadline.check()

    def test_budget_ms_floors_so_budgets_shrink_across_hops(self):
        clock = FakeClock()
        deadline = Deadline(0.0105, clock=clock)
        assert deadline.budget_ms() == 10
        clock.advance(0.0101)
        assert deadline.budget_ms() == 0  # under 1 ms left -> shed next hop

    def test_from_budget_ms_restarts_countdown(self):
        clock = FakeClock(100.0)
        deadline = Deadline.from_budget_ms(250, clock=clock)
        assert deadline.remaining() == pytest.approx(0.25)

    def test_negative_budget_rejected(self):
        with pytest.raises(ConfigurationError):
            Deadline(-0.1)


# -- TokenBucket -------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(4)] == [
            True, True, True, False]
        clock.advance(0.1)  # one token refilled
        assert bucket.try_acquire()
        assert not bucket.try_acquire()

    def test_time_until_is_the_retry_hint(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.time_until() == 0.0
        assert bucket.try_acquire()
        assert bucket.time_until() == pytest.approx(0.5)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=0.0, burst=1.0)
        with pytest.raises(ConfigurationError):
            TokenBucket(rate=1.0, burst=0.0)

    @settings(max_examples=200, deadline=None)
    @given(
        rate=st.floats(0.5, 100.0),
        burst=st.floats(1.0, 50.0),
        steps=st.lists(st.floats(0.0, 2.0), min_size=1, max_size=60),
    )
    def test_never_admits_above_rate(self, rate, burst, steps):
        """Admissions over any schedule <= burst + rate * elapsed."""
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        admitted = 0
        elapsed = 0.0
        for gap in steps:
            clock.advance(gap)
            elapsed += gap
            while bucket.try_acquire():
                admitted += 1
        assert admitted <= burst + rate * elapsed + 1e-6

    @settings(max_examples=100, deadline=None)
    @given(rate=st.floats(0.5, 100.0), burst=st.floats(1.0, 50.0))
    def test_recovers_full_burst_after_draining(self, rate, burst):
        clock = FakeClock()
        bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
        while bucket.try_acquire():
            pass
        clock.advance(burst / rate + 1e-9)
        assert bucket.available == pytest.approx(burst)


# -- RetryBudget -------------------------------------------------------------------


class TestRetryBudget:
    def test_starts_full_and_spends(self):
        budget = RetryBudget(ratio=0.1, cap=2.0)
        assert budget.try_retry()
        assert budget.try_retry()
        assert not budget.try_retry()
        assert budget.denied == 1

    def test_fresh_requests_deposit(self):
        budget = RetryBudget(ratio=0.5, cap=2.0)
        budget.try_retry(), budget.try_retry()
        assert not budget.try_retry()
        budget.on_fresh()
        budget.on_fresh()
        assert budget.try_retry()

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            RetryBudget(ratio=0.0)
        with pytest.raises(ConfigurationError):
            RetryBudget(ratio=1.5)
        with pytest.raises(ConfigurationError):
            RetryBudget(cap=0.5)

    @settings(max_examples=200, deadline=None)
    @given(
        ratio=st.floats(0.01, 1.0),
        cap=st.floats(1.0, 20.0),
        trace=st.lists(st.sampled_from(["fresh", "retry"]),
                       min_size=1, max_size=300),
    )
    def test_amplification_bound(self, ratio, cap, trace):
        """Granted retries <= cap + ratio * fresh, for every interleaving."""
        budget = RetryBudget(ratio=ratio, cap=cap)
        granted = 0
        for step in trace:
            if step == "fresh":
                budget.on_fresh()
            elif budget.try_retry():
                granted += 1
        assert granted <= cap + ratio * budget.fresh + 1e-6
        assert granted == budget.retries


# -- CircuitBreaker ----------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, clock, **kw):
        kw.setdefault("failure_threshold", 3)
        kw.setdefault("latency_threshold", 0.25)
        kw.setdefault("recovery_time", 0.5)
        return CircuitBreaker(clock=clock, **kw)

    def test_trips_on_consecutive_errors(self):
        breaker = self.make(FakeClock())
        for _ in range(2):
            assert breaker.allow()
            breaker.record(ok=False, latency=0.0)
        assert breaker.state is BreakerState.CLOSED
        breaker.record(ok=False, latency=0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1
        assert not breaker.allow()
        assert breaker.shed == 1

    def test_slow_is_the_new_down(self):
        """Successful-but-slow responses trip exactly like errors."""
        breaker = self.make(FakeClock())
        for _ in range(3):
            breaker.record(ok=True, latency=1.0)
        assert breaker.state is BreakerState.OPEN

    def test_good_samples_reset_the_streak(self):
        breaker = self.make(FakeClock())
        breaker.record(ok=False, latency=0.0)
        breaker.record(ok=False, latency=0.0)
        breaker.record(ok=True, latency=0.01)
        breaker.record(ok=False, latency=0.0)
        breaker.record(ok=False, latency=0.0)
        assert breaker.state is BreakerState.CLOSED

    def test_half_open_admits_one_probe_then_closes(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record(ok=False, latency=0.0)
        assert not breaker.allow()
        clock.advance(0.6)
        assert breaker.allow()  # the probe
        assert breaker.state is BreakerState.HALF_OPEN
        assert not breaker.allow()  # only one probe at a time
        breaker.record(ok=True, latency=0.01)
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_bad_probe_reopens_and_restarts_countdown(self):
        clock = FakeClock()
        breaker = self.make(clock)
        for _ in range(3):
            breaker.record(ok=False, latency=0.0)
        clock.advance(0.6)
        assert breaker.allow()
        breaker.record(ok=False, latency=0.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 2
        assert not breaker.allow()
        assert breaker.retry_after() == pytest.approx(0.5)

    def test_retry_after_counts_down_while_open(self):
        clock = FakeClock()
        breaker = self.make(clock)
        assert breaker.retry_after() == 0.0  # closed: no wait
        for _ in range(3):
            breaker.record(ok=False, latency=0.0)
        assert breaker.retry_after() == pytest.approx(0.5)
        clock.advance(0.3)
        assert breaker.retry_after() == pytest.approx(0.2)

    def test_stats_shape(self):
        breaker = self.make(FakeClock())
        assert breaker.stats() == {
            "state": "closed", "trips": 0, "probes": 0, "shed": 0}

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CircuitBreaker(failure_threshold=0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(latency_threshold=0.0)
        with pytest.raises(ConfigurationError):
            CircuitBreaker(recovery_time=0.0)


# -- OverloadConfig ----------------------------------------------------------------


class TestOverloadConfig:
    def test_defaults_build_a_breaker(self):
        config = OverloadConfig()
        breaker = config.make_breaker(FakeClock())
        assert breaker.failure_threshold == config.breaker_failures
        assert breaker.latency_threshold == config.breaker_latency
        assert breaker.recovery_time == config.breaker_recovery

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OverloadConfig(brownout="maybe")
        with pytest.raises(ConfigurationError):
            OverloadConfig(breaker_failures=0)
        with pytest.raises(ConfigurationError):
            OverloadConfig(retry_after=-1.0)
        with pytest.raises(ConfigurationError):
            OverloadConfig(rpc_grace=0.0)


# -- wire round-trips --------------------------------------------------------------


class TestStatusRoundTrips:
    def test_every_status_round_trips(self):
        responses = [Response(status, f"v{status}".encode())
                     for status in Status]
        decoded = protocol.decode_batch_responses(
            protocol.encode_batch_responses(responses))
        assert decoded == responses
        assert [r.status for r in decoded] == list(Status)

    def test_every_opcode_round_trips(self):
        requests = [
            protocol.get(b"k"),
            protocol.put(b"k", b"v"),
            protocol.delete(b"k"),
            protocol.health(),
        ]
        assert [r.opcode for r in requests] == list(OpCode)
        decoded = protocol.decode_batch(protocol.encode_batch(requests))
        assert decoded == requests

    def test_overloaded_is_status_five(self):
        # The wire byte is contract: a v0 client must see a stable value.
        assert Status.OVERLOADED == 5
        assert protocol.STATUS_OVERLOADED == Status.OVERLOADED

    def test_overloaded_response_round_trips_hint_and_reason(self):
        shed = protocol.overloaded(0.125, b"breaker open: shard-3")
        [decoded] = protocol.decode_batch_responses(
            protocol.encode_batch_responses([shed]))
        assert decoded.status == Status.OVERLOADED
        assert protocol.retry_after_hint(decoded) == pytest.approx(0.125)
        assert protocol.overload_reason(decoded) == b"breaker open: shard-3"

    def test_small_positive_hint_never_truncates_to_zero(self):
        assert protocol.retry_after_hint(protocol.overloaded(0.0004)) > 0.0

    def test_zero_hint_stays_zero(self):
        assert protocol.retry_after_hint(protocol.overloaded(0.0)) == 0.0

    def test_hint_requires_overloaded_status(self):
        with pytest.raises(ProtocolError):
            protocol.retry_after_hint(Response(Status.OK, b"\x00" * 4))
        with pytest.raises(ProtocolError):
            protocol.overload_reason(Response(Status.OK, b"\x00" * 4))

    def test_hint_requires_payload(self):
        with pytest.raises(ProtocolError):
            protocol.retry_after_hint(Response(Status.OVERLOADED, b"\x00"))


def _session_pair():
    """A handshaken (client, server) pair of sessions, no sockets."""
    manager = SessionManager()
    handshake = ClientHandshake()
    reply, server = manager.accept(handshake.hello())
    return handshake.finish(reply), server


#: What the deleted in-payload envelopes opened with (deadline, tenant).
_OLD_SENTINELS = (b"\xf7\xff", b"\xf6\xff")


class TestDeadlineEnvelope:
    """The deadline's wire form: ``FLAG_DEADLINE`` + a ``u32 budget_ms``
    between the v2 header and the ciphertext, under the frame's MAC.  (It
    was a sentinel envelope inside the payload; the class and some test
    names date from then.)"""

    BATCH = protocol.encode_batch([protocol.get(b"k"),
                                   protocol.put(b"k", b"v")])

    def test_round_trip_over_a_batch(self):
        client, server = _session_pair()
        frame = client.seal(self.BATCH, budget_ms=1500)
        header, body = protocol.decode_frame(frame)
        assert header.flags == protocol.FLAG_DEADLINE
        assert header.budget_ms == 1500
        assert header.encode() + body == frame
        assert len(body) == len(self.BATCH) + MAC_SIZE
        plain = server.open(frame)
        assert plain == self.BATCH
        assert protocol.decode_batch(plain)[0] == protocol.get(b"k")

    def test_plain_batch_passes_through_untouched(self):
        """No deadline, no field: the frame every pre-deadline peer sent."""
        client, server = _session_pair()
        frame = client.seal(self.BATCH)
        header, body = protocol.decode_frame(frame)
        assert header.flags == 0 and header.budget_ms is None
        assert len(frame) == protocol.V2_HEADER.size + len(self.BATCH) \
            + MAC_SIZE
        assert server.open(frame) == self.BATCH

    def test_sentinel_cannot_be_a_batch_count(self):
        """A v1 payload opening with an old sentinel is nothing but a batch
        whose count is over the cap: refused whole."""
        for lead in _OLD_SENTINELS:
            with pytest.raises(ProtocolError, match="batch count 655"):
                protocol.decode_batch(lead + b"\x05\x00\x00\x00" + self.BATCH)

    def test_sentinel_cannot_be_v2_magic(self):
        """...and it is no frame: nothing parses a header out of it."""
        for lead in _OLD_SENTINELS:
            with pytest.raises(ProtocolError, match="no magic"):
                protocol.decode_frame(lead + self.BATCH)

    @pytest.mark.parametrize("budget_ms", [1, protocol.MAX_DEADLINE_MS])
    def test_bounds_encode(self, budget_ms):
        client, server = _session_pair()
        frame = client.seal(b"x", budget_ms)
        assert protocol.decode_frame(frame)[0].budget_ms == budget_ms
        assert server.open(frame) == b"x"

    def test_zero_budget_encodes(self):
        client, _ = _session_pair()
        frame = client.seal(b"x", 0)
        assert protocol.decode_frame(frame)[0].budget_ms == 0
        assert frame[protocol.V2_HEADER.size:][:4] == b"\x00" * 4

    def test_negative_budget_clamps_to_zero(self):
        """An overdue deadline has 0 ms left, never a negative budget."""
        clock = FakeClock()
        deadline = Deadline(0.25, clock=clock)
        clock.advance(5.0)
        client, _ = _session_pair()
        frame = client.seal(b"x", deadline.budget_ms())
        assert protocol.decode_frame(frame)[0].budget_ms == 0

    def test_oversized_budget_rejected(self):
        client, server = _session_pair()
        for budget_ms in (protocol.MAX_DEADLINE_MS + 1, -1):
            with pytest.raises(ProtocolError, match="deadline budget"):
                client.seal(b"x", budget_ms)
        # A refused seal spent no sequence number.
        assert protocol.decode_frame(client.seal(b"x"))[0].seq == 1
        with pytest.raises(ProtocolError):
            protocol.FrameHeader(
                version=protocol.WIRE_V2, flags=protocol.FLAG_DEADLINE,
                budget_ms=protocol.MAX_DEADLINE_MS + 1).encode()

    def test_truncated_envelope_rejected(self):
        """A frame cut inside the field cannot carry a tag."""
        client, server = _session_pair()
        frame = client.seal(b"", budget_ms=9)
        for cut in range(protocol.V2_HEADER.size,
                         protocol.V2_HEADER.size + 4 + MAC_SIZE):
            with pytest.raises(TamperedFrameError, match="too short"):
                server.open(frame[:cut])
        for cut in range(protocol.V2_HEADER.size,
                         protocol.V2_HEADER.size + 4):
            with pytest.raises(ProtocolError, match="truncated"):
                protocol.decode_frame(frame[:cut])
        assert server.open(frame) == b""  # nothing above moved the window

    def test_composes_inside_v2_seal(self):
        """The field is MAC-protected: no bit of it, and not the flag that
        announces it, can change without failing authentication."""
        client, server = _session_pair()
        frame = client.seal(self.BATCH, budget_ms=250)
        flag_bit = 3 * 8 + 2  # byte 3 = flags, FLAG_DEADLINE = 0x04
        field = range(protocol.V2_HEADER.size * 8,
                      (protocol.V2_HEADER.size + 4) * 8)
        for bit in (flag_bit, *field):
            forged = bytearray(frame)
            forged[bit >> 3] ^= 1 << (bit & 7)
            with pytest.raises(TamperedFrameError,
                               match="failed authentication"):
                server.open(bytes(forged))
        assert server.open(frame) == self.BATCH
        # The same holds for a frame sealed without one.
        plain = bytearray(client.seal(self.BATCH))
        plain[3] |= protocol.FLAG_DEADLINE
        with pytest.raises(TamperedFrameError, match="failed authentic"):
            server.open(bytes(plain))

    def test_handshake_frame_with_the_flag_is_refused(self):
        hello = bytearray(ClientHandshake().hello())
        hello[3] |= protocol.FLAG_DEADLINE
        with pytest.raises(ProtocolError, match="handshake frame"):
            protocol.decode_frame(bytes(hello))
        with pytest.raises(HandshakeError, match="undecodable hello"):
            SessionManager().accept(bytes(hello))

    def test_server_frames_may_carry_one_too(self):
        """The direction check masks the bit; it does not forbid it."""
        client, server = _session_pair()
        assert client.open(server.seal(b"pong", budget_ms=7)) == b"pong"


class TestCollectUnderDeadline:
    """The coordinator's per-shard RPC deadline, against a stub shard."""

    class _Shard(ShardHandle):
        shard_id = "s0"
        ops_routed = 0

        def __init__(self):
            self.collects = []

        def flush_submit(self, requests):
            return 1

        def flush_collect(self, ticket, timeout=None):
            self.collects.append(timeout)
            raise TypeError("a bug inside the collect, not its signature")

    def test_a_typeerror_inside_a_collect_is_never_recollected(self):
        """A second collect would read the *next* reply off a FIFO stream
        (or block for the RPC timeout): the error must surface once."""
        from repro.cluster.coordinator import ClusterCoordinator

        shard = self._Shard()
        coordinator = ClusterCoordinator([shard], overload=OverloadConfig())
        with pytest.raises(TypeError, match="inside the collect"):
            coordinator.execute([protocol.put(b"k", b"v")],
                                deadline=Deadline(5.0, clock=FakeClock()))
        [timeout] = shard.collects
        assert timeout == pytest.approx(
            5.0 + coordinator.overload.config.rpc_grace)
