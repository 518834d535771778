"""Overload control primitives: deadlines, token buckets, circuit breakers.

The paper's premise is that skew is the hard case for a secure in-memory
KV store; this module is the cluster's answer to skew pushed past capacity.
Everything here is *untrusted* control-plane work — admission decisions run
outside the enclave and are never allowed to touch sealed state, so an
attacker who games the control loop can only make the cluster do *less*
work, never leak or corrupt data (see ARCHITECTURE §14 for the threat
model).

Four primitives, composed by the layers above:

* :class:`Deadline` — a relative remaining-time budget that travels with a
  request (clients attach it in the v2 frame header, the coordinator derives
  per-shard RPC deadlines from what is left).
* :class:`TokenBucket` — the classic rate limiter: refills at ``rate``
  tokens/second up to ``burst``, admits while a token is available.
* :class:`RetryBudget` — a token bucket over *fresh-request count* instead
  of time: every fresh request deposits ``ratio`` tokens, every retry
  spends one, so retries can never exceed a fixed fraction of fresh load —
  the anti-retry-storm invariant (retry amplification is bounded by
  ``1 + ratio``).
* :class:`CircuitBreaker` — per-shard CLOSED → OPEN → HALF_OPEN containment
  that trips on consecutive errors *or* slow responses ("slow is the new
  down"), sheds while open, and probes with a single request before
  closing.

Every class takes an injectable ``clock`` so tests drive time
deterministically; production uses ``time.monotonic``.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ConfigurationError, DeadlineExceededError

__all__ = [
    "Deadline",
    "TokenBucket",
    "RetryBudget",
    "BreakerState",
    "CircuitBreaker",
    "OverloadConfig",
]


class Deadline:
    """A relative time budget: "this work is worthless after ``budget`` s".

    Deadlines are *budgets*, never absolute timestamps — client and server
    clocks are not assumed synchronized, so what crosses the wire is the
    remaining budget in milliseconds and each hop restarts its own local
    countdown (the v2 header's ``FLAG_DEADLINE`` field).  The budget
    can therefore only shrink as it propagates; a malicious client
    inflating it merely wastes its own time.
    """

    __slots__ = ("_clock", "_expires_at", "budget")

    def __init__(self, budget: float,
                 clock: Callable[[], float] = time.monotonic):
        if budget < 0:
            raise ConfigurationError(f"deadline budget {budget} < 0")
        self.budget = float(budget)
        self._clock = clock
        self._expires_at = clock() + self.budget

    @classmethod
    def from_budget_ms(cls, budget_ms: int,
                       clock: Callable[[], float] = time.monotonic,
                       ) -> "Deadline":
        """The receiving side of the deadline field: restart the countdown."""
        return cls(budget_ms / 1000.0, clock=clock)

    def remaining(self) -> float:
        """Seconds left, clamped at 0.0 once expired."""
        return max(0.0, self._expires_at - self._clock())

    def expired(self) -> bool:
        return self._clock() >= self._expires_at

    def budget_ms(self) -> int:
        """Remaining budget as whole milliseconds for the deadline field.

        Floors, so the budget monotonically shrinks across hops; a deadline
        with under 1 ms left encodes as 0 and is shed at the next hop.
        """
        return int(self.remaining() * 1000.0)

    def check(self, what: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` if the budget is gone."""
        if self.expired():
            raise DeadlineExceededError(
                f"{what} deadline exceeded ({self.budget * 1000.0:.0f} ms "
                "budget exhausted)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline(budget={self.budget:.3f}s, "
                f"remaining={self.remaining():.3f}s)")


class TokenBucket:
    """A token bucket: sustained ``rate`` tokens/second, bursts of ``burst``.

    Two invariants the hypothesis suite pins down:

    * **Never above rate**: over any window, admissions <= burst + rate x
      window (the bucket can never hold more than ``burst`` tokens, and
      refill is linear in elapsed time).
    * **Recovers after burst**: after draining, waiting ``burst / rate``
      seconds restores the full burst.
    """

    __slots__ = ("rate", "burst", "_tokens", "_clock", "_last")

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0:
            raise ConfigurationError(f"token bucket rate {rate} <= 0")
        if burst <= 0:
            raise ConfigurationError(f"token bucket burst {burst} <= 0")
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._clock = clock
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        elapsed = now - self._last
        if elapsed > 0:
            self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
            self._last = now

    @property
    def available(self) -> float:
        self._refill()
        return self._tokens

    def try_acquire(self, tokens: float = 1.0) -> bool:
        """Admit (and spend) if at least ``tokens`` are available."""
        self._refill()
        if self._tokens >= tokens:
            self._tokens -= tokens
            return True
        return False

    def time_until(self, tokens: float = 1.0) -> float:
        """Seconds until ``tokens`` will be available (0.0 if already are).

        This is the honest ``retry_after`` hint for a bucket-shed request.
        """
        self._refill()
        deficit = tokens - self._tokens
        if deficit <= 0:
            return 0.0
        return deficit / self.rate


class RetryBudget:
    """Retries as a fixed fraction of fresh load (a counting token bucket).

    Every *fresh* request deposits ``ratio`` tokens (capped at ``cap``);
    every retry spends one.  Retries are therefore bounded by
    ``cap + ratio x fresh_requests`` no matter how hard the cluster is
    failing — the client can never amplify an overload by more than
    ``ratio``.  Deterministic: no clock involved.
    """

    __slots__ = ("ratio", "cap", "_tokens", "fresh", "retries", "denied")

    def __init__(self, ratio: float = 0.1, cap: float = 10.0):
        if not 0.0 < ratio <= 1.0:
            raise ConfigurationError(f"retry ratio {ratio} not in (0, 1]")
        if cap < 1.0:
            raise ConfigurationError(f"retry budget cap {cap} < 1")
        self.ratio = float(ratio)
        self.cap = float(cap)
        self._tokens = float(cap)  # start full: a cold client may retry
        self.fresh = 0
        self.retries = 0
        self.denied = 0

    def on_fresh(self) -> None:
        """Record a fresh (non-retry) request: deposit ``ratio`` tokens."""
        self.fresh += 1
        self._tokens = min(self.cap, self._tokens + self.ratio)

    def try_retry(self) -> bool:
        """Spend one token for a retry; False = budget exhausted, fail fast."""
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.retries += 1
            return True
        self.denied += 1
        return False

    @property
    def available(self) -> float:
        return self._tokens


class BreakerState(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Per-shard containment: trip on errors *or* latency, probe, close.

    State machine::

        CLOSED --(failure_threshold consecutive bad samples)--> OPEN
        OPEN --(recovery_time elapsed)--> HALF_OPEN (one probe admitted)
        HALF_OPEN --(probe good)--> CLOSED
        HALF_OPEN --(probe bad)--> OPEN (countdown restarts)

    A *bad sample* is an error **or** a success slower than
    ``latency_threshold`` — a stalled-but-alive shard must trip the breaker
    exactly like a dead one, because a slow shard stalls whole batches
    (the original sin this layer exists to contain).  Thresholds count
    consecutive samples, so tripping is deterministic given the sample
    stream; only re-arming (OPEN -> HALF_OPEN) consults the clock.
    """

    __slots__ = ("failure_threshold", "latency_threshold", "recovery_time",
                 "_clock", "state", "_consecutive_bad", "_opened_at",
                 "_probing", "trips", "probes", "shed")

    def __init__(self, *, failure_threshold: int = 3,
                 latency_threshold: float = 0.25,
                 recovery_time: float = 0.5,
                 clock: Callable[[], float] = time.monotonic):
        if failure_threshold < 1:
            raise ConfigurationError(
                f"breaker failure_threshold {failure_threshold} < 1")
        if latency_threshold <= 0:
            raise ConfigurationError(
                f"breaker latency_threshold {latency_threshold} <= 0")
        if recovery_time <= 0:
            raise ConfigurationError(
                f"breaker recovery_time {recovery_time} <= 0")
        self.failure_threshold = int(failure_threshold)
        self.latency_threshold = float(latency_threshold)
        self.recovery_time = float(recovery_time)
        self._clock = clock
        self.state = BreakerState.CLOSED
        self._consecutive_bad = 0
        self._opened_at = 0.0
        self._probing = False
        #: CLOSED/HALF_OPEN -> OPEN transitions.
        self.trips = 0
        #: HALF_OPEN probes admitted.
        self.probes = 0
        #: Requests refused by :meth:`allow` while OPEN.
        self.shed = 0

    def allow(self) -> bool:
        """May a request be dispatched to this shard right now?

        OPEN sheds everything until ``recovery_time`` has elapsed, then
        admits exactly one probe (HALF_OPEN); further requests keep being
        shed until the probe's outcome is recorded.
        """
        if self.state is BreakerState.CLOSED:
            return True
        if self.state is BreakerState.OPEN:
            if self._clock() - self._opened_at >= self.recovery_time:
                self.state = BreakerState.HALF_OPEN
                self._probing = False
            else:
                self.shed += 1
                return False
        # HALF_OPEN: one probe in flight at a time.
        if self._probing:
            self.shed += 1
            return False
        self._probing = True
        self.probes += 1
        return True

    def record(self, ok: bool, latency: float) -> None:
        """Record a dispatched request's outcome (call exactly once each)."""
        good = ok and latency <= self.latency_threshold
        if self.state is BreakerState.HALF_OPEN:
            self._probing = False
            if good:
                self.state = BreakerState.CLOSED
                self._consecutive_bad = 0
            else:
                self._trip()
            return
        if good:
            self._consecutive_bad = 0
            return
        self._consecutive_bad += 1
        if (self.state is BreakerState.CLOSED
                and self._consecutive_bad >= self.failure_threshold):
            self._trip()

    def _trip(self) -> None:
        self.state = BreakerState.OPEN
        self._opened_at = self._clock()
        self._consecutive_bad = 0
        self._probing = False
        self.trips += 1

    def retry_after(self) -> float:
        """Seconds until the next probe could be admitted (the shed hint)."""
        if self.state is not BreakerState.OPEN:
            return 0.0
        return max(0.0, self.recovery_time
                   - (self._clock() - self._opened_at))

    def stats(self) -> dict:
        return {
            "state": self.state.value,
            "trips": self.trips,
            "probes": self.probes,
            "shed": self.shed,
        }


@dataclass
class OverloadConfig:
    """Knobs for the coordinator's overload layer (``overload=``).

    Defaults are tuned for the simulated cluster's scale: breakers trip
    after ``breaker_failures`` consecutive bad samples, a sample is bad
    above ``breaker_latency`` seconds, and an open breaker re-arms after
    ``breaker_recovery`` seconds.  ``brownout`` engages write shedding
    automatically while the health monitor reports a replica mid-recovery.
    """

    breaker_failures: int = 3
    breaker_latency: float = 0.25
    breaker_recovery: float = 0.5
    #: "auto" sheds writes while recovery is in progress; "off" never does.
    brownout: str = "auto"
    #: Default retry_after hint (seconds) for deadline/brownout sheds,
    #: where no breaker countdown supplies a better number.
    retry_after: float = 0.05
    #: Slack added to a request's remaining budget when deriving a
    #: per-shard RPC collect timeout — the "one RPC timeout" a deadline
    #: may be exceeded by at most.
    rpc_grace: float = 1.0

    def __post_init__(self) -> None:
        if self.brownout not in ("auto", "off"):
            raise ConfigurationError(
                f"brownout mode {self.brownout!r} not in ('auto', 'off')")
        # Delegate range validation to the primitives' own constructors.
        CircuitBreaker(failure_threshold=self.breaker_failures,
                       latency_threshold=self.breaker_latency,
                       recovery_time=self.breaker_recovery)
        if self.retry_after < 0:
            raise ConfigurationError(
                f"retry_after {self.retry_after} < 0")
        if self.rpc_grace <= 0:
            raise ConfigurationError(
                f"rpc_grace {self.rpc_grace} <= 0")

    def make_breaker(self, clock: Callable[[], float] = time.monotonic,
                     ) -> CircuitBreaker:
        return CircuitBreaker(failure_threshold=self.breaker_failures,
                              latency_threshold=self.breaker_latency,
                              recovery_time=self.breaker_recovery,
                              clock=clock)
