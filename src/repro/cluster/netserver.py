"""The TCP front door for the sharded cluster, and its client.

:class:`ClusterNetServer` is the :class:`~repro.cluster.netutil
.SessionServer` that serves a coordinator: one lock around everything a
frame does between its read and its write, bounded admission, and the
plaintext rejection.  :class:`ClusterClient` is the matching synchronous
client (it connects through :func:`~repro.cluster.netutil.dial`) and
:class:`BackgroundServer` runs the accept loop on a daemon thread.
ARCHITECTURE §8, §11 and §14 describe the door; §9 its fault injector.
"""

from __future__ import annotations

import socket
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.cluster import netutil
from repro.cluster.framing import read_frame, write_frame
from repro.cluster.netutil import Connection
from repro.cluster.overload import Deadline, RetryBudget
from repro.cluster.session import SecureSession, SessionManager
from repro.errors import (
    ClusterTimeoutError,
    ConfigurationError,
    DeadlineExceededError,
    OverloadedError,
    ProtocolError,
    ReplayError,
    TamperedFrameError,
)
from repro.server import protocol
from repro.server.protocol import BATCH_REJECTION, Request, Response
from repro.sgx.meter import CycleMeter

#: Client-side defaults: a hung server must never block a caller forever.
DEFAULT_CLIENT_TIMEOUT = 5.0
DEFAULT_READ_RETRIES = 2
DEFAULT_BACKOFF = 0.05
DEFAULT_BACKOFF_CAP = 1.0
#: Retries may never exceed this fraction of fresh load (anti-retry-storm).
DEFAULT_RETRY_RATIO = 0.1

#: retry_after hint (seconds) on frames the front door sheds itself.
DEFAULT_SHED_RETRY_AFTER = 0.05

#: The ``_open_frame`` verdict for a hostile frame: answer with the
#: plaintext batch rejection, then hang up.
_REJECT_AND_CLOSE = (None, (BATCH_REJECTION,), False)


class _Waiter:
    """One frame parked on the gate: woken exactly once, with a verdict."""

    __slots__ = ("deadline", "decided", "admitted")

    def __init__(self, deadline: Optional[Deadline]):
        self.deadline = deadline
        self.decided = threading.Event()
        self.admitted = False


class _AdmissionGate:
    """A global in-flight cap with LIFO queueing and deadline shedding.

    A frame holds a slot from admission until ``execute`` returns — while
    it waits for the door's execution lock and while its batch runs, not
    while its reply is encoded and written (a slow reader holds no slot).
    When every slot is busy, new frames wait on a *stack*: service is
    newest-first, because under sustained overload the freshest frame has
    the most deadline budget left and FIFO would drain the queue in
    oldest-first order — serving exactly the work most likely to be dead
    on arrival.  The queue is bounded at ``capacity`` waiters; when it
    fills, the *oldest* waiter is shed (it has waited longest and is the
    least likely to make its deadline).  A waiter whose own deadline
    expires while queued is shed the moment a slot would reach it, or by
    its wait timeout — whichever comes first.

    Threading invariants: one lock guards the counters and the stack; a
    waiter is on the stack exactly while it is undecided, and whoever
    pops it (hand-over, shed, or its own timeout) decides it under that
    lock.  :meth:`release` hands its slot to the newest live waiter
    without ever decrementing ``inflight``, so the count can never
    overshoot ``capacity`` (``max_seen`` records the high-water mark for
    the acceptance test's cap assertion).  The gate's lock is a leaf:
    nothing is called with it held, so it may be taken under the door's.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.inflight = 0
        self.max_seen = 0
        self._lock = threading.Lock()
        self._waiters: List[_Waiter] = []
        self.shed_queue_full = 0
        self.shed_expired = 0

    def acquire(self, deadline: Optional[Deadline]) -> bool:
        """Wait for a slot; False = shed (answer OVERLOADED, don't run)."""
        with self._lock:
            if self.inflight < self.capacity:
                self.inflight += 1
                if self.inflight > self.max_seen:
                    self.max_seen = self.inflight
                return True
            if deadline is not None and deadline.expired():
                self.shed_expired += 1
                return False
            if len(self._waiters) >= self.capacity:
                self._waiters.pop(0).decided.set()  # oldest: shed
                self.shed_queue_full += 1
            waiter = _Waiter(deadline)
            self._waiters.append(waiter)
        timeout = deadline.remaining() if deadline is not None else None
        if not waiter.decided.wait(timeout):
            with self._lock:
                if not waiter.decided.is_set():
                    self._waiters.remove(waiter)
                    self.shed_expired += 1
                # else: decided between the timeout and the lock; keep it
        return waiter.admitted

    def release(self) -> None:
        """Free a slot — handed to the newest live waiter when one exists."""
        with self._lock:
            while self._waiters:
                waiter = self._waiters.pop()  # LIFO: newest first
                if waiter.deadline is not None and waiter.deadline.expired():
                    self.shed_expired += 1
                    waiter.decided.set()
                    continue
                waiter.admitted = True  # slot transfers; inflight unchanged
                waiter.decided.set()
                return
            self.inflight -= 1


class ClusterNetServer(netutil.SessionServer):
    """Serves a :class:`~repro.cluster.coordinator.ClusterCoordinator`.

    A :class:`~repro.cluster.netutil.SessionServer` whose ``_lock`` is
    also held around the coordinator (not thread-safe) and the
    served/shed counters, so simulated cycles, wire bytes and
    :meth:`wire_stats` are what a single thread would produce.  Socket
    reads and writes and the admission gate's wait happen outside it.
    """

    conn_thread_name = "aria-door-conn"
    REFUSAL = (BATCH_REJECTION,)

    def __init__(
        self,
        coordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_requests: Optional[int] = None,
        sessions: Optional[SessionManager] = None,
        max_inflight: Optional[int] = None,
        max_connections: Optional[int] = None,
    ):
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, not {max_inflight}")
        if max_connections is not None and max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1, not {max_connections}")
        if sessions is None:
            # The gateway authenticates tenant claims against the roster.
            tenancy = coordinator.tenancy
            sessions = SessionManager(
                registry=None if tenancy is None else tenancy.registry,
                require_tenant=(tenancy is not None
                                and tenancy.config.require_auth))
        super().__init__(sessions, host=host, port=port)
        self.coordinator = coordinator
        #: Stop after this many request frames (None = serve forever).
        #: Handshake frames are not request frames and never count.
        self.max_requests = max_requests
        self.frames_served = 0
        self.requests_served = 0
        # Overload admission: the in-flight gate (None = unlimited), the
        # connection cap, and the front door's own shedding ledger.
        self.max_inflight = max_inflight
        self.max_connections = max_connections
        self._gate = (_AdmissionGate(max_inflight)
                      if max_inflight is not None else None)
        self.frames_shed = 0
        self.requests_shed = 0
        self.deadline_shed_frames = 0
        self.connections_refused = 0

    # -- lifecycle ----------------------------------------------------------------

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`stop` (or the ``max_requests``
        limit)."""
        if self._listener is None:
            self.start()
        if self._limit_reached():
            self.stop()
        super().serve_forever()

    def _admit(self) -> bool:
        if (self.max_connections is not None
                and len(self._conns) >= self.max_connections):
            # Over the connection cap: refuse without reply.  Any answer
            # (even a rejection frame) would let a connection flood buy
            # server work; a silent close costs one accept.
            self.connections_refused += 1
            return False
        return True

    def close(self, timeout: float = 5.0) -> None:
        """Full shutdown: drain and stop serving, then release the shards.

        :meth:`stop` joins every connection thread, so by the time the
        coordinator is closed every in-flight batch has been answered.
        Closing the coordinator joins/terminates any process-backed shard
        workers with ``timeout`` bounding each escalation step — after
        this, the process tree is clean.
        """
        self.stop(timeout)
        self.coordinator.close(timeout)

    def _limit_reached(self) -> bool:
        return (self.max_requests is not None
                and self.frames_served >= self.max_requests)

    def wire_stats(self) -> dict:
        """The front door's security ledger: alarms and refusals."""
        alarms = self.alarms
        row = {
            "tamper_alarms": alarms["tamper"],
            "replay_alarms": alarms["replay"],
            "stale_session_alarms": alarms["stale"],
            "handshake_failures": alarms["handshake"],
            "plaintext_rejections": alarms["plaintext"],
        }
        overload = {
            "max_inflight": self.max_inflight,
            "max_connections": self.max_connections,
            "frames_shed": self.frames_shed,
            "requests_shed": self.requests_shed,
            "deadline_shed_frames": self.deadline_shed_frames,
            "connections_refused": self.connections_refused,
            "max_inflight_seen": (self._gate.max_seen
                                  if self._gate is not None else 0),
            "queue_shed": (self._gate.shed_queue_full
                           if self._gate is not None else 0),
            "expired_shed": (self._gate.shed_expired
                             if self._gate is not None else 0),
        }
        row["overload"] = overload
        row["gateway"] = self.sessions.stats()
        tenancy = self.coordinator.tenancy
        if tenancy is not None:
            # Armed front doors only: an unarmed server's ledger keeps its
            # pre-tenancy shape.
            row["tenancy"] = tenancy.stats()
        return row

    # -- per-connection loop ------------------------------------------------------

    def _serve_connection(self, sock) -> None:
        super()._serve_connection(sock)
        if self._limit_reached():
            self._begin_stop()

    def _serve_frame(self, conn: Connection, payload: bytes) -> tuple:
        with self._lock:
            batch, replies, keep = self._open_frame(conn, payload)
        if batch is not None:
            replies, keep = self._run_batch(conn, *batch)
        return replies, keep

    def _open_frame(self, conn: Connection, payload: bytes) -> tuple:
        """Handshake, session ``open``, decode (lock held).

        Returns ``(batch, replies, keep)``: ``batch`` is the ``(requests,
        deadline, tenant)`` to run, or None when ``replies`` already
        answer the frame; ``keep`` False hangs up after sending them.
        """
        if not payload.startswith(protocol.V2_MAGIC):
            self.alarms["plaintext"] += 1  # not a session frame
            return _REJECT_AND_CLOSE
        session = conn.session
        if session is None or (len(payload) > 3
                               and payload[3] & protocol.FLAG_HANDSHAKE):
            # A connection's first frame, or the handshake bit (byte 3 =
            # flags): checked here.  A session's data frame is parsed
            # once, by session.open.
            try:
                fheader, _ = protocol.decode_frame(payload)
            except ProtocolError:
                return _REJECT_AND_CLOSE  # malformed v2 header: hostile
            if fheader.flags & protocol.FLAG_HANDSHAKE:
                reply = self._hello(conn, payload)
                if reply is None:
                    return _REJECT_AND_CLOSE  # hostile hello: hang up
                return None, (reply,), True
        plain = self._open_data(conn, payload)
        if plain is None:
            return _REJECT_AND_CLOSE  # alarm raised; under attack
        # The budget is the header field open() just verified the MAC over.
        deadline = None
        if payload[3] & protocol.FLAG_DEADLINE:
            deadline = Deadline.from_budget_ms(
                protocol.V2_BUDGET.unpack_from(
                    payload, protocol.V2_HEADER.size)[0])
        try:
            requests = protocol.decode_batch(plain)
        except ProtocolError:
            # Refused as a unit; the connection survives it.
            return None, (conn.session.seal(BATCH_REJECTION),), True
        # The principal is the one the handshake authenticated.
        return (requests, deadline, conn.session.tenant), (), True

    def _run_batch(
        self,
        conn: Connection,
        requests: List[Request],
        deadline: Optional[Deadline],
        tenant: Optional[str],
    ) -> Tuple[tuple, bool]:
        """Admit, execute, count, encode and seal one frame.

        Three shed points, all answered with ``STATUS_OVERLOADED`` +
        ``retry_after`` instead of silence (a shed client must learn to
        back off, not time out): the frame arrived with its budget already
        spent; the admission gate refused it (queue full, or its deadline
        ran out while queued); or — past admission — the coordinator's own
        overload layer sheds individual requests.  With a ``tenant``, the
        coordinator additionally runs per-principal admission (tenancy
        token buckets) and key prefixing, so a shed there is charged to —
        and its ``retry_after`` reflects — the offending principal's own
        bucket, not the global gate.

        Returns ``(replies, keep)``.  The gate's wait happens outside the
        lock.
        """
        expired = deadline is not None and deadline.expired()
        admitted = not expired and (
            self._gate is None or self._gate.acquire(deadline))
        with self._lock:
            if expired:
                self.deadline_shed_frames += 1
                responses = self._shed(
                    len(requests), b"deadline expired on arrival")
            elif not admitted:
                responses = self._shed(
                    len(requests), b"admission queue full")
            else:
                kwargs = {}
                if deadline is not None:
                    kwargs["deadline"] = deadline
                if tenant is not None:
                    kwargs["tenant"] = tenant
                try:
                    responses = self.coordinator.execute(requests, **kwargs)
                finally:
                    if self._gate is not None:
                        self._gate.release()
            self.frames_served += 1
            self.requests_served += len(requests)
            return self._replies(conn, responses)

    def _replies(self, conn: Connection,
                 responses: List[Response]) -> Tuple[tuple, bool]:
        """A served batch as its outgoing frames, and whether the
        connection stays open (lock held)."""
        reply = conn.session.seal(protocol.encode_batch_responses(responses))
        return (reply,), not self._limit_reached()

    def _shed(self, n: int, reason: bytes) -> List[Response]:
        self.frames_shed += 1
        self.requests_shed += n
        shed = protocol.overloaded(DEFAULT_SHED_RETRY_AFTER, reason)
        return [shed] * n


class ClusterClient:
    """Synchronous wire client: encrypted sessions, typed errors, retries.

    The client opens every connection with the attested v2 handshake
    (:mod:`repro.cluster.session`): it verifies the gateway's quote —
    pinning ``expected_measurement`` when given — and seals/opens every
    frame thereafter.  Any answer to the hello but a server hello,
    plaintext included, raises :class:`~repro.errors.HandshakeError`.

    Every socket operation carries ``timeout`` (connect *and* read), so a
    hung or fault-injected server surfaces as
    :class:`~repro.errors.ClusterTimeoutError` instead of blocking the
    caller forever.  A timeout desynchronizes the stream (the response may
    still be in flight), so recovery always reconnects and re-handshakes
    under a fresh session before retrying.

    Retries are **reads only**: :meth:`get` (and :meth:`health`) re-issue
    up to ``retries`` times with exponential backoff (``backoff * 2**n``,
    capped at ``backoff_cap``) on timeout, connection loss, or a wire
    attack caught by the session layer (tampered/replayed response) —
    idempotent, so at-least-once delivery is safe.  :meth:`put`/
    :meth:`delete` and :meth:`request_batch` never auto-retry: a write
    whose ack was lost (or forged) may still have executed, and only the
    caller knows whether replaying it is acceptable.

    Two overload-era bounds sit on top:

    * **Deadlines** — ``deadline`` (a default budget in seconds, or a
      per-call override on every request method) rides each sealed frame
      in the v2 header, caps the socket wait, and caps retry *backoff*: a
      sleep that would overrun the remaining budget raises
      :class:`~repro.errors.DeadlineExceededError` instead of sleeping
      through it, so total attempt wall-time never exceeds the caller's
      deadline by more than one in-flight RPC.
    * **Retry budget** — every retry spends a token from a
      :class:`~repro.cluster.overload.RetryBudget` (``retry_ratio``
      tokens deposited per fresh request), so a failing cluster can never
      be amplified by more than that fraction of fresh load.  A read shed
      by the server (``STATUS_OVERLOADED``) is retried after its
      ``retry_after`` hint while retries and budget last, then surfaces
      as :class:`~repro.errors.OverloadedError`; a shed *write* comes
      back as the raw OVERLOADED :class:`Response` — never auto-retried.

    ``tenant``/``credential`` make the connection act as that principal,
    authenticated inside the attested handshake (``credential`` is the
    tenant secret; it defaults to the derivable demo secret when
    omitted).  Every error this client raises is part of the
    :mod:`repro.errors` tree.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        expected_measurement: Optional[bytes] = None,
        crypto: str = "fast",
        tenant: Optional[str] = None,
        credential: Optional[bytes] = None,
        timeout: float = DEFAULT_CLIENT_TIMEOUT,
        retries: int = DEFAULT_READ_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
        backoff_cap: float = DEFAULT_BACKOFF_CAP,
        sleep: Callable[[float], None] = time.sleep,
        deadline: Optional[float] = None,
        retry_ratio: float = DEFAULT_RETRY_RATIO,
    ):
        if timeout <= 0:
            raise ConfigurationError("timeout must be positive")
        if retries < 0:
            raise ConfigurationError("retries must be >= 0")
        if deadline is not None and deadline <= 0:
            raise ConfigurationError("deadline must be positive")
        self._host = host
        self._port = port
        self._timeout = timeout
        self._retries = retries
        self._backoff = backoff
        self._backoff_cap = backoff_cap
        self._sleep = sleep
        #: Default per-call deadline budget (seconds); None = no deadline.
        self._deadline = deadline
        #: Shared across this client's reads: bounds retry amplification.
        self.retry_budget = RetryBudget(ratio=retry_ratio)
        if credential is not None and tenant is None:
            raise ConfigurationError(
                "credential requires a tenant id")
        #: Accumulates this client's share of wire crypto (handshakes plus
        #: per-frame AEAD) across the connection's whole life.
        self.wire_meter = CycleMeter()
        #: The principal this client acts as is bound (with the credential)
        #: into every connection's attested handshake.
        self._handshake = dict(
            expected_measurement=expected_measurement, crypto=crypto,
            meter=self.wire_meter, tenant=tenant, credential=credential)
        self.handshakes = 0
        self._last_handshake_cycles = 0.0
        self.reconnects = 0
        self.retried_reads = 0
        self.overload_retries = 0
        self._sock, self._session = self._connect()

    @classmethod
    def connect(cls, host: str, port: int, **options) -> "ClusterClient":
        """Connect and handshake: the spelling the docs and examples use
        for ``ClusterClient(host, port, ...)``."""
        return cls(host, port, **options)

    # -- connection + handshake ---------------------------------------------------

    def _connect(self) -> Tuple[socket.socket, SecureSession]:
        before = self.wire_meter.cycles
        connection = netutil.dial(self._host, self._port,
                                  timeout=self._timeout,
                                  handshake=self._handshake)
        self.handshakes += 1
        self._last_handshake_cycles = self.wire_meter.cycles - before
        return connection

    def _reconnect(self) -> None:
        self.close()
        self._sock, self._session = self._connect()
        self.reconnects += 1

    def session_info(self) -> dict:
        """What this connection negotiated, and what it cost.

        ``handshake_cycles`` is the simulated client-side price of the most
        recent handshake (key exchange + quote verification);
        ``wire_cycles`` accumulates all wire crypto this client has ever
        performed, handshakes and per-frame AEAD alike.
        """
        session = self._session
        return {
            "version": protocol.WIRE_V2,
            "cipher": session.cipher,
            "session_id": session.session_id,
            "tenant": session.tenant,
            "handshakes": self.handshakes,
            "handshake_cycles": self._last_handshake_cycles,
            "wire_cycles": self.wire_meter.cycles,
            "frames_sealed": session.frames_sealed,
            "frames_opened": session.frames_opened,
        }

    # -- framing ------------------------------------------------------------------

    def send_frame(self, payload: bytes,
                   deadline: Optional[Deadline] = None) -> None:
        """Seal and send one protocol payload.

        With a ``deadline``, the frame carries the *remaining* budget in
        its header's deadline field.
        """
        write_frame(self._sock, self._session.seal(
            payload, None if deadline is None else deadline.budget_ms()))

    def recv_frame(self) -> bytes:
        """Receive and open one protocol payload.

        The only plaintext the client accepts is the canonical batch
        rejection — the server (or an on-path attacker) refusing service,
        which carries denial but no data.  Any other plaintext is treated
        as a forgery.
        """
        data = read_frame(self._sock)
        if data.startswith(protocol.V2_MAGIC):
            return self._session.open(data)
        if data == BATCH_REJECTION:
            return data
        raise TamperedFrameError(
            "plaintext data frame on an encrypted session"
        )

    # -- request API --------------------------------------------------------------

    def request_batch(self, requests: List[Request],
                      deadline: Optional[float] = None) -> List[Response]:
        """One frame out, one frame back; positional responses.

        Raises :class:`~repro.errors.BatchRejectedError` if the server
        rejected the delivery as a unit,
        :class:`~repro.errors.ClusterTimeoutError` if it never answered,
        and :class:`~repro.errors.TamperedFrameError` /
        :class:`~repro.errors.ReplayError` if the response frame failed
        the session's authentication.  Never retried here — batches may
        contain writes, and a shed write comes back as its raw
        ``STATUS_OVERLOADED`` response for the caller to judge.
        """
        self.retry_budget.on_fresh()
        return self._attempt(requests, self._deadline_for(deadline))

    def _deadline_for(self, deadline: Optional[float]) -> Optional[Deadline]:
        """Start the local countdown: per-call budget, else the default."""
        budget = self._deadline if deadline is None else deadline
        if budget is None:
            return None
        if isinstance(budget, Deadline):
            return budget  # caller-managed: one budget across retries
        return Deadline(budget)

    def _attempt(self, requests: List[Request],
                 deadline: Optional[Deadline]) -> List[Response]:
        """One wire round-trip, with the socket wait capped by ``deadline``.

        The deadline cap means a hung server surfaces as
        :class:`~repro.errors.ClusterTimeoutError` no later than the
        budget's expiry — the caller's wall-time never exceeds the
        deadline by more than the one RPC already in flight.
        """
        if deadline is None:
            self.send_frame(protocol.encode_batch(requests))
            return protocol.decode_batch_responses(self.recv_frame(),
                                                   expected=len(requests))
        deadline.check()
        self._sock.settimeout(
            min(self._timeout, max(deadline.remaining(), 1e-3)))
        try:
            self.send_frame(protocol.encode_batch(requests),
                            deadline=deadline)
            return protocol.decode_batch_responses(self.recv_frame(),
                                                   expected=len(requests))
        finally:
            self._sock.settimeout(self._timeout)

    def _retrying_single(self, request: Request,
                         deadline: Optional[float] = None) -> Response:
        """At-least-once delivery for an idempotent single request.

        Wire-attack errors (tampered or replayed response) are retryable
        here for the same reason timeouts are: the request is idempotent
        and the reconnect re-handshakes under a fresh session.  Every
        retry spends a :class:`~repro.cluster.overload.RetryBudget`
        token; an exhausted budget fails fast with the original error.
        An ``OVERLOADED`` reply is retried after the server's
        ``retry_after`` hint, surfacing as
        :class:`~repro.errors.OverloadedError` once retries run out.
        """
        deadline = self._deadline_for(deadline)
        self.retry_budget.on_fresh()
        attempt = 0
        while True:
            try:
                [response] = self._attempt([request], deadline)
            except (ClusterTimeoutError, ConnectionError, OSError,
                    TamperedFrameError, ReplayError):
                if attempt >= self._retries \
                        or not self.retry_budget.try_retry():
                    raise
                self._pause(attempt, deadline, 0.0)
                self._reconnect()
                self.retried_reads += 1
                attempt += 1
                continue
            if response.status != protocol.Status.OVERLOADED:
                return response
            hint = protocol.retry_after_hint(response)
            if attempt >= self._retries \
                    or not self.retry_budget.try_retry():
                reason = protocol.overload_reason(response)
                raise OverloadedError(
                    "read shed by server"
                    + (f" ({reason.decode('utf-8', 'replace')})"
                       if reason else ""),
                    retry_after=hint)
            self._pause(attempt, deadline, hint)
            self.overload_retries += 1
            attempt += 1

    def _pause(self, attempt: int, deadline: Optional[Deadline],
               hint: float) -> None:
        """Back off before a retry — never past the caller's deadline.

        Jitter desynchronizes clients retrying after the same server
        hiccup, so the reconnect stampede spreads out; a server-supplied
        ``retry_after`` hint is honored as the floor.  A sleep that would
        overrun the remaining budget raises
        :class:`~repro.errors.DeadlineExceededError` instead: the retry
        could not finish in time, so sleeping through the deadline only
        delays the inevitable (this is what caps total attempt wall-time
        at the deadline).
        """
        delay = max(
            netutil.jittered(
                min(self._backoff * (2 ** attempt), self._backoff_cap)),
            hint,
        )
        if deadline is not None and delay >= deadline.remaining():
            raise DeadlineExceededError(
                f"retry backoff {delay * 1000.0:.0f} ms would overrun the "
                f"deadline ({deadline.remaining() * 1000.0:.0f} ms left)")
        self._sleep(delay)

    def get(self, key: bytes,
            deadline: Optional[float] = None) -> Response:
        return self._retrying_single(protocol.get(key), deadline)

    def health(self, deadline: Optional[float] = None) -> Response:
        """Probe the cluster (OP_HEALTH); retried like any read."""
        return self._retrying_single(protocol.health(), deadline)

    def put(self, key: bytes, value: bytes,
            deadline: Optional[float] = None) -> Response:
        self.retry_budget.on_fresh()
        [response] = self._attempt([protocol.put(key, value)],
                                   self._deadline_for(deadline))
        return response

    def delete(self, key: bytes,
               deadline: Optional[float] = None) -> Response:
        self.retry_budget.on_fresh()
        [response] = self._attempt([protocol.delete(key)],
                                   self._deadline_for(deadline))
        return response

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:  # pragma: no cover
            pass

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class BackgroundServer:
    """Run a :class:`ClusterNetServer`'s accept loop on a daemon thread.

    For synchronous callers (tests, examples, demos): ``start()`` binds
    and returns the address; ``stop()`` performs the graceful shutdown
    and joins the thread.
    """

    #: The door the thread runs; built as ``door(coordinator, **options)``.
    door = ClusterNetServer

    def __init__(self, coordinator, **options):
        self.server = self.door(coordinator, **options)
        self._thread: Optional[threading.Thread] = None

    def start(self) -> Tuple[str, int]:
        try:
            address = self.server.start()
        except OSError as exc:
            raise RuntimeError("cluster server crashed on startup") from exc
        self._thread = threading.Thread(target=self.server.serve_forever,
                                        daemon=True, name="aria-door")
        self._thread.start()
        return address

    def stop(self, timeout: float = 10.0) -> None:
        self.server.stop(timeout)
        if self._thread is not None:
            self._thread.join(timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Stop serving *and* release the coordinator's shard backends.

        :meth:`stop` leaves the coordinator usable (the caller may still
        want to read stats or keep serving it elsewhere); ``close`` is
        the end of the road — it also joins/terminates any process-backed
        shard workers so nothing outlives the test or script.
        """
        self.stop(timeout)
        self.server.coordinator.close(min(timeout, 5.0))

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
