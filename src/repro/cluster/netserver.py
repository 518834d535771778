"""Asyncio TCP front door for the sharded cluster.

Speaks ``repro.server.protocol`` frames over a stream with a 4-byte
little-endian length prefix::

    wire frame := frame_len (u32 LE) | payload
    payload    := v1 plaintext batch, or a v2 session frame
                  (see repro.server.protocol / repro.cluster.session)

* **Pipelining** — a client may write any number of request frames without
  waiting; responses come back in frame order (and positionally within a
  frame, per the protocol contract).
* **Bounded allocation** — ``frame_len`` is attacker-supplied, so it is
  checked against ``protocol.MAX_FRAME_BYTES`` *before* the payload is
  read; an oversized or zero length gets the canonical batch rejection and
  the connection is closed (there is no way to resynchronize a stream
  whose framing is untrusted).
* **Encrypted sessions** — a connection may open with a v2 handshake frame
  (:mod:`repro.cluster.session`): the front door's gateway
  :class:`~repro.cluster.session.SessionManager` answers with a
  transcript-bound quote, and every later frame on that connection is
  AEAD-protected.  The ``security`` policy decides what else is allowed:

  ==============  ====================================================
  ``"optional"``  (default) v1 plaintext and v2 sessions both served
  ``"required"``  v1 plaintext data frames are rejected and the
                  connection closed — encrypted or nothing
  ``"plaintext"`` v2 hellos are refused (the ``--insecure`` front
                  door that prices the v1 baseline)
  ==============  ====================================================

  Wire attacks from the fault plan (``tamper``/``replay``/``downgrade``)
  are staged here, acting as the deterministic on-path adversary; the
  matching alarms count what the session layer caught.
* **Bounded admission** — ``max_inflight`` caps how many request frames
  may be admitted (executing or queued) at once; excess frames wait on a
  LIFO stack and are shed with ``STATUS_OVERLOADED`` + ``retry_after``
  when the stack is full or their deadline budget runs out while queued
  (newest-first service: under overload the freshest work has the most
  budget left).  ``max_connections`` refuses connections beyond the cap
  outright.  Clients attach deadline budgets as a wire envelope
  (:func:`repro.server.protocol.wrap_deadline`); the front door strips
  the envelope, sheds already-expired frames without executing them, and
  hands the remaining budget to the coordinator's overload layer.
* **Graceful shutdown** — :meth:`ClusterNetServer.stop` stops accepting,
  lets in-flight frames finish, closes every connection, and wakes
  :meth:`serve_forever`.

:class:`ClusterClient` is the matching synchronous client (plain stdlib
sockets — examples, tests, and CLI tooling shouldn't need an event loop),
and :class:`BackgroundServer` runs the whole server on a daemon thread for
the same audiences.
"""

from __future__ import annotations

import asyncio
import errno
import socket
import threading
import time
from typing import Callable, List, Optional, Tuple

from repro.cluster import netutil
from repro.cluster.faults import (
    CLOSE,
    DELAY,
    DOWNGRADE,
    DROP,
    NET_TARGET,
    REPLAY,
    TAMPER,
    WIRE_KINDS,
    FaultPlan,
)
from repro.cluster.framing import (
    FRAME_HEADER,
    frame,
    frame_length_ok,
    read_frame,
    write_frame,
)
from repro.cluster.overload import Deadline, RetryBudget
from repro.cluster.session import ClientHandshake, SecureSession, SessionManager
from repro.errors import (
    ClusterConnectionError,
    ClusterTimeoutError,
    ConfigurationError,
    DeadlineExceededError,
    HandshakeError,
    OverloadedError,
    ProtocolError,
    ReplayError,
    StaleSessionError,
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

SECURITY_POLICIES = ("optional", "required", "plaintext")

#: The classic net fault kinds, consumed after a frame is served.
_CONNECTION_KINDS = frozenset({DELAY, DROP, CLOSE})


def _flip_bit(frame: bytes) -> bytes:
    """The on-path adversary's tamper: one bit of the last byte (the tag)."""
    return frame[:-1] + bytes([frame[-1] ^ 0x01])


class _AdmissionGate:
    """A global in-flight cap with LIFO queueing and deadline shedding.

    A frame holds a slot from admission until its response is written.
    When every slot is busy, new frames wait on a *stack*: service is
    newest-first, because under sustained overload the freshest frame has
    the most deadline budget left and FIFO would drain the queue in
    oldest-first order — serving exactly the work most likely to be dead
    on arrival.  The queue is bounded at ``capacity`` waiters; when it
    fills, the *oldest* waiter is shed (it has waited longest and is the
    least likely to make its deadline).  A waiter whose own deadline
    expires while queued is shed the moment a slot would reach it, or by
    its wait timeout — whichever comes first.

    Single event loop, no locks: slots hand over directly from
    :meth:`release` to the newest live waiter, so ``inflight`` can never
    overshoot ``capacity`` (``max_seen`` records the high-water mark for
    the acceptance test's cap assertion).
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.inflight = 0
        self.max_seen = 0
        self._waiters: List[Tuple[asyncio.Future, Optional[Deadline]]] = []
        self.shed_queue_full = 0
        self.shed_expired = 0

    def _admit(self) -> None:
        self.inflight += 1
        if self.inflight > self.max_seen:
            self.max_seen = self.inflight

    async def acquire(self, deadline: Optional[Deadline]) -> bool:
        """Wait for a slot; False = shed (answer OVERLOADED, don't run)."""
        if self.inflight < self.capacity:
            self._admit()
            return True
        if deadline is not None and deadline.expired():
            self.shed_expired += 1
            return False
        if len(self._waiters) >= self.capacity:
            victim, _ = self._waiters.pop(0)
            if not victim.done():
                victim.set_result(False)
                self.shed_queue_full += 1
        future = asyncio.get_running_loop().create_future()
        self._waiters.append((future, deadline))
        timeout = deadline.remaining() if deadline is not None else None
        try:
            if timeout is None:
                return bool(await future)
            return bool(await asyncio.wait_for(future, timeout))
        except asyncio.TimeoutError:
            self._waiters = [w for w in self._waiters if w[0] is not future]
            if future.done() and not future.cancelled() and future.result():
                return True  # the slot arrived in the same tick: keep it
            self.shed_expired += 1
            return False

    def release(self) -> None:
        """Free a slot — handed to the newest live waiter when one exists."""
        while self._waiters:
            future, deadline = self._waiters.pop()  # LIFO: newest first
            if future.done():
                continue  # already timed out or shed; stale entry
            if deadline is not None and deadline.expired():
                future.set_result(False)
                self.shed_expired += 1
                continue
            future.set_result(True)  # slot transfers; inflight unchanged
            return
        self.inflight -= 1

    def stats(self) -> dict:
        return {
            "capacity": self.capacity,
            "inflight": self.inflight,
            "max_inflight_seen": self.max_seen,
            "shed_queue_full": self.shed_queue_full,
            "shed_expired": self.shed_expired,
        }


class ClusterNetServer:
    """Serves a :class:`~repro.cluster.coordinator.ClusterCoordinator`."""

    def __init__(
        self,
        coordinator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_requests: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
        security: str = "optional",
        sessions: Optional[SessionManager] = None,
        max_inflight: Optional[int] = None,
        max_connections: Optional[int] = None,
        shed_retry_after: float = DEFAULT_SHED_RETRY_AFTER,
    ):
        if security not in SECURITY_POLICIES:
            raise ConfigurationError(
                f"security must be one of {SECURITY_POLICIES}, "
                f"not {security!r}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ConfigurationError(
                f"max_inflight must be >= 1, not {max_inflight}")
        if max_connections is not None and max_connections < 1:
            raise ConfigurationError(
                f"max_connections must be >= 1, not {max_connections}")
        if shed_retry_after < 0:
            raise ConfigurationError(
                f"shed_retry_after must be >= 0, not {shed_retry_after}")
        self._coordinator = coordinator
        self._host = host
        self._port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._writers: set = set()
        #: Stop after this many request frames (None = serve forever).
        #: Handshake frames are not request frames and never count.
        self.max_requests = max_requests
        #: Deterministic fault injection addressed to ``faults.NET_TARGET``,
        #: keyed by the served-frame counter: connection faults (``delay``/
        #: ``drop``/``close``) fire after a frame is served; wire attacks
        #: (``tamper``/``replay``) act on outgoing v2 session frames and
        #: ``downgrade`` on the next handshake attempt.
        self.fault_plan = fault_plan
        self.security = security
        #: The gateway enclave terminating v2 sessions (None on a
        #: plaintext-only front door).
        self.sessions = (
            sessions if sessions is not None
            else (SessionManager() if security != "plaintext" else None)
        )
        self.frames_served = 0
        self.requests_served = 0
        self.frames_dropped = 0
        self.connections_closed_by_fault = 0
        # What the session layer caught (inbound frames that failed).
        self.tamper_alarms = 0
        self.replay_alarms = 0
        self.stale_session_alarms = 0
        self.handshake_failures = 0
        # Policy refusals.
        self.hellos_refused = 0
        self.plaintext_rejections = 0
        # Sealed frames whose tenant envelope named a principal the
        # handshake did not authenticate (confused-deputy attempts).
        self.tenant_rejections = 0
        # What the fault plan staged (outbound attacks actually played).
        self.tamper_injections = 0
        self.replay_injections = 0
        self.downgrade_injections = 0
        # Overload admission: the in-flight gate (None = unlimited), the
        # connection cap, and the front door's own shedding ledger.
        self.max_inflight = max_inflight
        self.max_connections = max_connections
        self.shed_retry_after = shed_retry_after
        self._gate = (_AdmissionGate(max_inflight)
                      if max_inflight is not None else None)
        self.frames_shed = 0
        self.requests_shed = 0
        self.deadline_shed_frames = 0
        self.connections_refused = 0

    @property
    def coordinator(self):
        return self._coordinator

    # -- lifecycle ----------------------------------------------------------------

    #: Bind attempts before giving up on an address already in use.  A
    #: fixed port raced by a just-closed test server lingers in TIME_WAIT
    #: briefly; bounded retry with a short backoff deflakes that without
    #: masking a genuinely occupied port.  Shared with the shard-host
    #: listener (see :mod:`repro.cluster.netutil`).
    BIND_RETRIES = netutil.BIND_RETRIES
    BIND_RETRY_DELAY = netutil.BIND_RETRY_DELAY

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound (host, port).

        Retries ``EADDRINUSE`` up to :data:`BIND_RETRIES` times (ephemeral
        port 0 never collides, so in practice this only fires for fixed
        ports); any other bind error surfaces immediately.
        """
        self._stop_event = asyncio.Event()
        for attempt in range(self.BIND_RETRIES):
            try:
                self._server = await asyncio.start_server(
                    self._handle_connection, self._host, self._port
                )
                break
            except OSError as exc:
                if exc.errno != errno.EADDRINUSE \
                        or attempt == self.BIND_RETRIES - 1:
                    raise
                await asyncio.sleep(self.BIND_RETRY_DELAY * (attempt + 1))
        self._host, self._port = self._server.sockets[0].getsockname()[:2]
        return self._host, self._port

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self._port

    async def serve_forever(self) -> None:
        """Run until :meth:`stop` (or the ``max_requests`` limit)."""
        if self._server is None:
            await self.start()
        if self._limit_reached():
            await self.stop()
            return
        await self._stop_event.wait()

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, close connections."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # Request handling is synchronous within a connection task, so by
        # the time this coroutine runs no frame is mid-execution; closing
        # the transports ends every connection loop cleanly.
        for writer in list(self._writers):
            writer.close()
        for writer in list(self._writers):
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        self._writers.clear()
        if self._stop_event is not None:
            self._stop_event.set()

    async def close(self, timeout: float = 5.0) -> None:
        """Full shutdown: drain and stop serving, then release the shards.

        :meth:`stop` already guarantees no frame is mid-execution when it
        returns (request handling is synchronous within a connection
        task), so by the time the coordinator is closed every in-flight
        batch has been answered.  Closing the coordinator joins/terminates
        any process-backed shard workers with ``timeout`` bounding each
        escalation step — after this, the process tree is clean.
        """
        await self.stop()
        close = getattr(self._coordinator, "close", None)
        if close is not None:
            close(timeout)

    def _limit_reached(self) -> bool:
        return (self.max_requests is not None
                and self.frames_served >= self.max_requests)

    def wire_stats(self) -> dict:
        """The front door's security ledger: alarms, refusals, injections."""
        row = {
            "security": self.security,
            "tamper_alarms": self.tamper_alarms,
            "replay_alarms": self.replay_alarms,
            "stale_session_alarms": self.stale_session_alarms,
            "handshake_failures": self.handshake_failures,
            "hellos_refused": self.hellos_refused,
            "plaintext_rejections": self.plaintext_rejections,
            "tamper_injections": self.tamper_injections,
            "replay_injections": self.replay_injections,
            "downgrade_injections": self.downgrade_injections,
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
        if self.sessions is not None:
            row["gateway"] = self.sessions.stats()
        tenancy = getattr(self._coordinator, "tenancy", None)
        if tenancy is not None:
            # Armed front doors only: an unarmed server's ledger keeps its
            # pre-tenancy shape.
            row["tenancy"] = dict(tenancy.stats())
            row["tenancy"]["tenant_rejections"] = self.tenant_rejections
        return row

    # -- per-connection loop ------------------------------------------------------

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        if (self.max_connections is not None
                and len(self._writers) >= self.max_connections):
            # Over the connection cap: refuse without reply.  Any answer
            # (even a rejection frame) would let a connection flood buy
            # server work; a silent close costs one accept.
            self.connections_refused += 1
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            return
        self._writers.add(writer)
        session: Optional[SecureSession] = None
        last_reply: Optional[bytes] = None  # REPLAY's recorded frame
        try:
            while not self._stop_event.is_set():
                try:
                    header = await reader.readexactly(FRAME_HEADER.size)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                (frame_len,) = FRAME_HEADER.unpack(header)
                if not frame_length_ok(frame_len):
                    # The length itself is hostile: reject without reading
                    # (or allocating) the claimed payload, then hang up —
                    # the stream cannot be resynchronized.
                    await self._send(writer, BATCH_REJECTION)
                    break
                try:
                    payload = await reader.readexactly(frame_len)
                except (asyncio.IncompleteReadError, ConnectionError):
                    break
                if payload.startswith(protocol.V2_MAGIC):
                    if session is None or (
                            len(payload) > 3
                            and payload[3] & protocol.FLAG_HANDSHAKE):
                        # A connection's first frame, or the handshake
                        # bit (byte 3 = flags): checked here.  A session's
                        # data frame is parsed once, by session.open.
                        try:
                            fheader, _ = protocol.decode_frame(payload)
                        except ProtocolError:
                            # v2 magic, malformed header: hostile, hang up.
                            await self._send(writer, BATCH_REJECTION)
                            break
                        if fheader.flags & protocol.FLAG_HANDSHAKE:
                            session, keep = await self._serve_handshake(
                                writer, payload, session
                            )
                            if not keep:
                                break
                            continue
                    plain = await self._open_session_frame(
                        writer, payload, session
                    )
                    if plain is None:
                        break  # alarm raised; the stream is under attack
                else:
                    # v1 plaintext payload.
                    if session is not None or self.security == "required":
                        # Plaintext mid-session is a downgrade attempt;
                        # plaintext on a v2-only front door is policy.
                        self.plaintext_rejections += 1
                        await self._send(writer, BATCH_REJECTION)
                        break
                    plain = payload
                try:
                    claimed, plain = protocol.split_tenant(plain)
                    budget_ms, plain = protocol.split_deadline(plain)
                    requests = protocol.decode_batch(plain)
                except ProtocolError:
                    await self._send_in_session(
                        writer, BATCH_REJECTION, session)
                    continue
                if (session is not None and claimed is not None
                        and claimed != session.tenant):
                    # A sealed frame may only claim the principal its
                    # handshake authenticated; anything else (including a
                    # claim on a tenant-less session) is a confused-deputy
                    # attempt and is refused per-frame.
                    self.tenant_rejections += 1
                    await self._send_in_session(
                        writer, BATCH_REJECTION, session)
                    continue
                # v2: the handshake-authenticated identity is authoritative.
                # v1 plaintext: the claim rides unauthenticated, like
                # everything else on the priced baseline.
                tenant = session.tenant if session is not None else claimed
                deadline = (Deadline.from_budget_ms(budget_ms)
                            if budget_ms is not None else None)
                responses = await self._admit_and_execute(
                    requests, deadline, tenant
                )
                self.frames_served += 1
                self.requests_served += len(requests)
                action = await self._apply_net_faults()
                if action == CLOSE:
                    self.connections_closed_by_fault += 1
                    break  # hang up without answering
                if action == DROP:
                    self.frames_dropped += 1
                    continue  # swallow the response; the client times out
                reply = protocol.encode_batch_responses(responses)
                if session is not None:
                    reply = session.seal(reply)
                    last_reply = await self._play_wire_attacks(
                        writer, reply, last_reply
                    )
                else:
                    await self._send(writer, reply)
                if self._limit_reached():
                    asyncio.get_running_loop().create_task(self.stop())
                    break
        except ConnectionError:  # pragma: no cover - peer vanished mid-write
            pass
        finally:
            if session is not None and self.sessions is not None:
                self.sessions.retire(session)
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    async def _admit_and_execute(
        self,
        requests: List[Request],
        deadline: Optional[Deadline],
        tenant: Optional[str] = None,
    ) -> List[Response]:
        """Run one frame through admission control, then the coordinator.

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
        """
        if deadline is not None and deadline.expired():
            self.deadline_shed_frames += 1
            return self._shed(len(requests), b"deadline expired on arrival")
        if self._gate is not None:
            if not await self._gate.acquire(deadline):
                return self._shed(len(requests), b"admission queue full")
        try:
            kwargs = {}
            if deadline is not None:
                kwargs["deadline"] = deadline
            if tenant is not None:
                kwargs["tenant"] = tenant
            return self._coordinator.execute(requests, **kwargs)
        finally:
            if self._gate is not None:
                self._gate.release()

    def _shed(self, n: int, reason: bytes) -> List[Response]:
        self.frames_shed += 1
        self.requests_shed += n
        shed = protocol.overloaded(self.shed_retry_after, reason)
        return [shed] * n

    async def _serve_handshake(
        self,
        writer: asyncio.StreamWriter,
        payload: bytes,
        session: Optional[SecureSession],
    ) -> Tuple[Optional[SecureSession], bool]:
        """Answer a v2 client hello; returns (session, keep-connection).

        A policy refusal (plaintext-only front door) and an injected
        downgrade both answer in plaintext — exactly what an on-path
        attacker stripping the handshake looks like — and a client that
        wants encryption must treat that reply as fatal.
        """
        downgraded = self.sessions is not None and self._pop_downgrade()
        if self.sessions is None or downgraded:
            if downgraded:
                self.downgrade_injections += 1
            self.hellos_refused += 1
            await self._send(writer, BATCH_REJECTION)
            return session, True
        if session is not None:
            # Rekey: a repeated hello on one connection replaces (and
            # retires) the previous session.
            self.sessions.retire(session)
        try:
            reply, session = self.sessions.accept(payload)
        except HandshakeError:
            self.handshake_failures += 1
            await self._send(writer, BATCH_REJECTION)
            return None, False  # hostile hello: hang up
        await self._send(writer, reply)
        return session, True

    async def _open_session_frame(
        self,
        writer: asyncio.StreamWriter,
        payload: bytes,
        session: Optional[SecureSession],
    ) -> Optional[bytes]:
        """Authenticate + decrypt an inbound v2 data frame.

        Returns the plaintext, or None after raising the matching alarm —
        in which case the connection is torn down: a stream that carried a
        forged, replayed, or stale frame is not resynchronizable.
        """
        if session is None:
            # A data frame with no handshake on this connection: a frame
            # recorded from an earlier (now rekeyed) session being played
            # into a fresh connection.
            self.stale_session_alarms += 1
            await self._send(writer, BATCH_REJECTION)
            return None
        try:
            return session.open(payload)
        except TamperedFrameError:
            self.tamper_alarms += 1
        except StaleSessionError:
            self.stale_session_alarms += 1
        except ReplayError:
            self.replay_alarms += 1
        except ProtocolError:
            pass  # malformed v2 header: hostile framing, no alarm class
        await self._send(writer, BATCH_REJECTION)
        return None

    async def _play_wire_attacks(
        self,
        writer: asyncio.StreamWriter,
        reply: bytes,
        last_reply: Optional[bytes],
    ) -> bytes:
        """Send a sealed reply, staging any due tamper/replay attack.

        A replay re-sends the *recorded previous* frame ahead of the real
        reply (the client sees a frame whose sequence number went
        backwards); a tamper flips one bit of the outgoing frame's tag.
        Returns the clean frame to record for the next replay.
        """
        tamper = replay = False
        if self.fault_plan is not None:
            for event in self.fault_plan.pop_due(
                NET_TARGET, self.frames_served, kinds=WIRE_KINDS
            ):
                if event.kind == TAMPER:
                    tamper = True
                elif event.kind == REPLAY:
                    replay = True
        if replay and last_reply is not None:
            self.replay_injections += 1
            await self._send(writer, last_reply)
        if tamper:
            self.tamper_injections += 1
            await self._send(writer, _flip_bit(reply))
        else:
            await self._send(writer, reply)
        if replay and last_reply is None:
            # Nothing recorded yet: duplicate the frame just sent — the
            # duplicate is the replay the client must catch next read.
            self.replay_injections += 1
            await self._send(writer, reply)
        return reply

    def _pop_downgrade(self) -> bool:
        if self.fault_plan is None:
            return False
        return bool(self.fault_plan.pop_due(
            NET_TARGET, self.frames_served, kinds=(DOWNGRADE,)
        ))

    async def _apply_net_faults(self) -> Optional[str]:
        """Fire due connection faults; returns CLOSE/DROP to suppress the
        response, None to serve normally (delays just stall in place)."""
        if self.fault_plan is None:
            return None
        action: Optional[str] = None
        for event in self.fault_plan.pop_due(
            NET_TARGET, self.frames_served, kinds=_CONNECTION_KINDS
        ):
            if event.kind == DELAY:
                await asyncio.sleep(event.seconds)
            elif event.kind == DROP:
                action = action or DROP
            elif event.kind == CLOSE:
                action = CLOSE
        return action

    async def _send_in_session(
        self,
        writer: asyncio.StreamWriter,
        payload: bytes,
        session: Optional[SecureSession],
    ) -> None:
        if session is not None:
            payload = session.seal(payload)
        await self._send(writer, payload)

    @staticmethod
    async def _send(writer: asyncio.StreamWriter, payload: bytes) -> None:
        if frame_length_ok(len(payload)):
            writer.write(frame(payload))
        else:
            # Answers past the cap (the batch ran): the length alone makes
            # the peer's reader refuse them, typed; the body stays unsent.
            writer.write(FRAME_HEADER.pack(len(payload)))
        await writer.drain()


class ClusterClient:
    """Synchronous wire client: encrypted sessions, typed errors, retries.

    By default (``secure=True``) the client opens every connection with the
    attested v2 handshake (:mod:`repro.cluster.session`): it verifies the
    gateway's quote — pinning ``expected_measurement`` when given — and
    seals/opens every frame thereafter.  A server or on-path attacker that
    answers the hello in plaintext raises
    :class:`~repro.errors.HandshakeError`; a secure client **never** falls
    back to plaintext.  ``secure=False`` speaks the v1 plaintext protocol
    (the priced baseline; the CLI exposes it as ``--insecure``).

    Every socket operation carries ``timeout`` (connect *and* read), so a
    hung or fault-injected server surfaces as
    :class:`~repro.errors.ClusterTimeoutError` instead of blocking the
    caller forever.  A timeout desynchronizes the stream (the response may
    still be in flight), so recovery always reconnects — and, when secure,
    re-handshakes under a fresh session — before retrying.

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
      per-call override on every request method) rides each frame as the
      wire envelope, caps the socket wait, and caps retry *backoff*: a
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

    ``tenant``/``credential`` make the connection act as that principal:
    a secure client authenticates it inside the attested handshake
    (``credential`` is the tenant secret; it defaults to the derivable
    demo secret when omitted), an insecure client merely claims it per
    frame.  Every error this client raises is part of the
    :mod:`repro.errors` tree.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        secure: bool = True,
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
        #: Default per-call deadline budget (seconds); None = no envelope.
        self._deadline = deadline
        #: Shared across this client's reads: bounds retry amplification.
        self.retry_budget = RetryBudget(ratio=retry_ratio)
        if credential is not None and tenant is None:
            raise ConfigurationError(
                "credential requires a tenant id")
        self._secure = secure
        self._expected_measurement = expected_measurement
        self._crypto = crypto
        #: The principal this client acts as.  Secure connections bind it
        #: (with the credential) into the attested handshake; insecure v1
        #: connections claim it per-frame via the tenant envelope,
        #: unauthenticated like the rest of the plaintext baseline.
        self._tenant = tenant
        self._credential = credential
        self._session: Optional[SecureSession] = None
        #: Accumulates this client's share of wire crypto (handshakes plus
        #: per-frame AEAD) across the connection's whole life.
        self.wire_meter = CycleMeter()
        self.handshakes = 0
        self._last_handshake_cycles = 0.0
        self.reconnects = 0
        self.retried_reads = 0
        self.overload_retries = 0
        self._sock = self._connect()

    @classmethod
    def connect(cls, host: str, port: int, **options) -> "ClusterClient":
        """Connect (and, unless ``secure=False``, handshake): the spelling
        the docs and examples use for ``ClusterClient(host, port, ...)``."""
        return cls(host, port, **options)

    # -- connection + handshake ---------------------------------------------------

    def _connect(self) -> socket.socket:
        try:
            sock = socket.create_connection((self._host, self._port),
                                            timeout=self._timeout)
        except socket.timeout as exc:
            raise ClusterTimeoutError(
                f"connect to {self._host}:{self._port} timed out after "
                f"{self._timeout}s") from exc
        except OSError as exc:
            raise ClusterConnectionError(
                f"connect to {self._host}:{self._port} failed: {exc}"
            ) from exc
        sock.settimeout(self._timeout)
        if self._secure:
            try:
                self._session = self._handshake(sock)
            except BaseException:
                sock.close()
                raise
        return sock

    def _handshake(self, sock: socket.socket) -> SecureSession:
        before = self.wire_meter.cycles
        handshake = ClientHandshake(
            expected_measurement=self._expected_measurement,
            crypto=self._crypto,
            meter=self.wire_meter,
            tenant=self._tenant,
            credential=self._credential,
        )
        write_frame(sock, handshake.hello())
        session = handshake.finish(read_frame(sock))
        self.handshakes += 1
        self._last_handshake_cycles = self.wire_meter.cycles - before
        return session

    def _reconnect(self) -> None:
        self.close()
        self._session = None
        self._sock = self._connect()
        self.reconnects += 1

    def session_info(self) -> dict:
        """What this connection negotiated, and what it cost.

        ``handshake_cycles`` is the simulated client-side price of the most
        recent handshake (key exchange + quote verification);
        ``wire_cycles`` accumulates all wire crypto this client has ever
        performed, handshakes and per-frame AEAD alike.
        """
        info = {
            "secure": self._session is not None,
            "version": (protocol.WIRE_V2 if self._session is not None
                        else protocol.WIRE_V1),
            "cipher": (self._session.cipher if self._session is not None
                       else None),
            "session_id": (self._session.session_id
                           if self._session is not None else None),
            # The authenticated principal on a secure connection; the
            # (unauthenticated) claimed one on a v1 connection.
            "tenant": (self._session.tenant
                       if self._session is not None else self._tenant),
            "handshakes": self.handshakes,
            "handshake_cycles": self._last_handshake_cycles,
            "wire_cycles": self.wire_meter.cycles,
        }
        if self._session is not None:
            info["frames_sealed"] = self._session.frames_sealed
            info["frames_opened"] = self._session.frames_opened
        return info

    # -- framing ------------------------------------------------------------------

    def send_frame(self, payload: bytes,
                   deadline: Optional[Deadline] = None) -> None:
        """Send one protocol payload, sealed when a session is live.

        With a ``deadline``, the *remaining* budget is prefixed as the
        deadline envelope before sealing, so it rides inside the AEAD
        frame (MAC-protected) on an encrypted connection.
        """
        if deadline is not None:
            payload = protocol.wrap_deadline(payload, deadline.budget_ms())
        if self._tenant is not None:
            # Outermost envelope, so the server peels tenant, then
            # deadline.  On a secure connection this is belt-and-braces
            # (the session already carries the authenticated tenant and
            # the server enforces the match); on v1 it is the claim.
            payload = protocol.wrap_tenant(payload, self._tenant)
        if self._session is not None:
            payload = self._session.seal(payload)
        write_frame(self._sock, payload)

    def recv_frame(self) -> bytes:
        """Receive one protocol payload, opened when a session is live.

        On an encrypted connection the only plaintext the client accepts
        is the canonical batch rejection — the server (or an on-path
        attacker) refusing service, which carries denial but no data.
        Any other plaintext is treated as a forgery.
        """
        data = read_frame(self._sock)
        if self._session is None:
            return data
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
    """Run a :class:`ClusterNetServer` on a daemon thread.

    For synchronous callers (tests, examples, demos): ``start()`` blocks
    until the socket is bound and returns the address; ``stop()`` performs
    the graceful shutdown on the server's own loop and joins the thread.
    """

    def __init__(self, coordinator, *, host: str = "127.0.0.1",
                 port: int = 0, max_requests: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 security: str = "optional",
                 sessions: Optional[SessionManager] = None,
                 max_inflight: Optional[int] = None,
                 max_connections: Optional[int] = None):
        self.server = ClusterNetServer(coordinator, host=host, port=port,
                                       max_requests=max_requests,
                                       fault_plan=fault_plan,
                                       security=security,
                                       sessions=sessions,
                                       max_inflight=max_inflight,
                                       max_connections=max_connections)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="aria-cluster-server")
        self._thread.start()
        if not self._ready.wait(timeout):
            raise TimeoutError("cluster server failed to start")
        if self._error is not None:
            raise RuntimeError("cluster server crashed on startup") \
                from self._error
        return self.server.address

    def _run(self) -> None:
        async def main() -> None:
            self._loop = asyncio.get_running_loop()
            try:
                await self.server.start()
            except BaseException as exc:
                self._error = exc
                raise
            finally:
                self._ready.set()
            await self.server.serve_forever()

        try:
            asyncio.run(main())
        except BaseException as exc:  # pragma: no cover - surfaced by start()
            if self._error is None:
                self._error = exc
            self._ready.set()

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        if self._loop is not None:
            asyncio.run_coroutine_threadsafe(
                self.server.stop(), self._loop
            ).result(timeout)
        self._thread.join(timeout)

    def close(self, timeout: float = 10.0) -> None:
        """Stop serving *and* release the coordinator's shard backends.

        :meth:`stop` leaves the coordinator usable (the caller may still
        want to read stats or keep serving it elsewhere); ``close`` is
        the end of the road — it also joins/terminates any process-backed
        shard workers so nothing outlives the test or script.
        """
        self.stop(timeout)
        close = getattr(self.server.coordinator, "close", None)
        if close is not None:
            close(min(timeout, 5.0))

    def __enter__(self) -> "BackgroundServer":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
