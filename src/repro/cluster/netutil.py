"""What every attested TCP endpoint in the cluster shares.

Both edges — the client's to the front door
(:class:`~repro.cluster.netserver.ClusterNetServer`) and the
coordinator's to a shard host (:class:`~repro.cluster.sockbackend
.ShardHost`) — are one kind of thing: an attested v2 session over the
framed stream of :mod:`repro.cluster.framing`.  Both ends of it live here:

* :class:`SessionServer` — the listener, one daemon thread per
  connection, the drain on :meth:`~SessionServer.stop`, accepting a hello
  and opening a data frame, and the one alarm ledger both write to.  An
  endpoint adds only how it answers a frame.
* :func:`dial` — connect, handshake, and close the socket on any failure.
* **Listen with bind retry** — a fixed port raced by a just-closed test
  server lingers in ``TIME_WAIT`` briefly; :func:`listen` retries
  ``EADDRINUSE`` a bounded number of times with a short linear backoff,
  which deflakes that without masking a genuinely occupied port.
* **No Nagle** — every frame on every edge is one small write that the
  peer answers, and both the door (REPLAY's two replies) and the
  coordinator (a second bucket pipelined to a shard whose first is in
  flight) write twice without reading in between; :func:`no_delay` sets
  ``TCP_NODELAY`` so the second write never waits for the first one's
  (delayed) ACK.  :func:`dial` and the accept loop call it, so every
  socket end of both edges has it.
* **Retry jitter** — a fleet of clients retrying a flaky server with the
  same deterministic backoff all wake at the same instant and stampede
  it again.  :func:`jittered` spreads a base delay by a small random
  factor; callers that need reproducible schedules pass their own
  ``rng``.
"""

from __future__ import annotations

import errno
import random
import socket
import threading
import time
from collections import Counter
from typing import Optional, Tuple

from repro.cluster.framing import (
    FRAME_HEADER,
    frame,
    frame_length_ok,
    read_frame,
    wake_and_close,
    write_frame,
)
from repro.cluster.session import ClientHandshake, SecureSession, SessionManager
from repro.errors import (
    AriaError,
    ClusterConnectionError,
    ClusterTimeoutError,
    HandshakeError,
    ProtocolError,
    ReplayError,
    StaleSessionError,
    TamperedFrameError,
)

#: Bind attempts before giving up on an address already in use.
BIND_RETRIES = 5
#: Base delay between bind attempts; attempt ``i`` waits ``(i+1) *`` this.
BIND_RETRY_DELAY = 0.2

#: Fraction of a retry delay added as random jitter (uniform in
#: ``[0, delay * RETRY_JITTER]``) so concurrent clients desynchronize.
RETRY_JITTER = 0.25


def listen(
    host: str,
    port: int,
    *,
    backlog: int = 128,
    retries: int = BIND_RETRIES,
    delay: float = BIND_RETRY_DELAY,
) -> socket.socket:
    """A listening TCP socket (``SO_REUSEADDR``) on ``(host, port)``.

    Retries only ``EADDRINUSE``: ephemeral port 0 never collides, so in
    practice this only fires for fixed ports; any other bind error
    surfaces immediately, as does an ``EADDRINUSE`` that outlives the
    retry budget.
    """
    for attempt in range(retries):
        try:
            return socket.create_server((host, port), backlog=backlog)
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE or attempt == retries - 1:
                raise
            time.sleep(delay * (attempt + 1))
    raise AssertionError("unreachable")  # pragma: no cover


def no_delay(sock: socket.socket) -> None:
    """Turn Nagle's algorithm off on a connected TCP socket."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def jittered(delay: float, *, fraction: float = RETRY_JITTER,
             rng: random.Random | None = None) -> float:
    """``delay`` plus a uniform random slice of it, for retry backoff."""
    draw = rng.random() if rng is not None else random.random()
    return delay + delay * fraction * draw


def dial(host: str, port: int, *, timeout: float,
         handshake: dict) -> Tuple[socket.socket, SecureSession]:
    """Connect to an attested endpoint and run the client handshake.

    ``handshake`` holds the :class:`~repro.cluster.session.ClientHandshake`
    keywords (pinned measurements, crypto, meter, tenant).  ``timeout``
    bounds the connect and every read and write after it; the caller may
    ``settimeout`` the returned socket for its own traffic.  A failed
    connect raises :class:`~repro.errors.ClusterTimeoutError` or
    :class:`~repro.errors.ClusterConnectionError`; a failed handshake
    raises what it failed with, after closing the socket.
    """
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except socket.timeout as exc:
        raise ClusterTimeoutError(
            f"connect to {host}:{port} timed out after {timeout}s") from exc
    except OSError as exc:
        raise ClusterConnectionError(
            f"connect to {host}:{port} failed: {exc}") from exc
    try:
        no_delay(sock)
        client = ClientHandshake(**handshake)
        write_frame(sock, client.hello())
        return sock, client.finish(read_frame(sock))
    except (AriaError, OSError):
        sock.close()
        raise


class Connection:
    """What one accepted socket carries from frame to frame."""

    __slots__ = ("sock", "session", "bound")

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.session: Optional[SecureSession] = None
        #: What the endpoint bound to this connection (a shard host: the
        #: enclave the connection drives).
        self.bound = None


class SessionServer:
    """An attested endpoint: accept, serve sessions, drain on stop.

    The accept loop runs on whichever thread calls :meth:`serve_forever`;
    each admitted connection gets a daemon thread (named
    :attr:`conn_thread_name`) that blocks in ``recv`` and hands every
    frame to :meth:`_serve_frame`, which the endpoint defines.  ``_lock``
    guards the session manager (every ``accept``/``open``/``seal``
    charges its one meter), the connection registry and :attr:`alarms`;
    an endpoint may hold it longer, never shorter.

    :attr:`alarms` counts what the session layer refused: ``handshake``
    (a hello :meth:`_hello` could not accept) and ``stale``, ``tamper``,
    ``replay`` or ``malformed`` (a data frame :meth:`_open_data` could not
    open).  Each one costs the connection: a stream that carried it
    cannot be trusted or resynchronized.
    """

    #: The base delay between bind attempts (see :func:`listen`).
    BIND_RETRY_DELAY = BIND_RETRY_DELAY
    #: The name of every connection thread, for leak checks.
    conn_thread_name = "aria-conn"
    #: What the endpoint sends before hanging up on a frame whose length
    #: prefix is hostile.
    REFUSAL: tuple = ()

    def __init__(self, sessions: SessionManager, *, host: str, port: int):
        #: The gateway enclave terminating every connection's session.
        self.sessions = sessions
        self.host = host
        self.port = port
        self.alarms: Counter = Counter()
        self.connections_served = 0
        self._listener: Optional[socket.socket] = None
        self._stopping = threading.Event()
        self._lock = threading.Lock()
        #: Accepted socket -> the thread serving it.
        self._conns: dict = {}

    @property
    def address(self) -> Tuple[str, int]:
        return self.host, self.port

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind and listen; returns the bound (host, port).

        Connections queue in the listen backlog until
        :meth:`serve_forever` accepts them.
        """
        self._listener = listen(self.host, self.port,
                                delay=self.BIND_RETRY_DELAY)
        self.host, self.port = self._listener.getsockname()[:2]
        return self.host, self.port

    def serve_forever(self) -> None:
        """Accept and serve until :meth:`stop`."""
        if self._listener is None:
            self.start()
        while not self._stopping.is_set():
            try:
                sock, _ = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            no_delay(sock)
            with self._lock:
                # A connection racing stop() is not admitted: stop() would
                # not see it.
                admitted = not self._stopping.is_set() and self._admit()
                if admitted:
                    self.connections_served += 1
                    thread = threading.Thread(
                        target=self._serve_connection, args=(sock,),
                        daemon=True, name=self.conn_thread_name)
                    # Registered and started in one step, so stop() never
                    # joins a thread that has not begun.
                    self._conns[sock] = thread
                    thread.start()
            if not admitted:
                sock.close()

    def _admit(self) -> bool:
        """Whether to serve one more connection (lock held)."""
        return True

    def _begin_stop(self) -> list:
        """Stop accepting and wake every idle reader; never blocks.

        Only the *read* side of each connection is shut down: a reader
        blocked in ``recv`` sees end-of-stream and leaves, while a frame
        already past its read is still answered before its thread closes
        the socket.  Returns the connections that were live.
        """
        self._stopping.set()
        if self._listener is not None:
            wake_and_close(self._listener)
        with self._lock:
            conns = list(self._conns.items())
        for sock, _thread in conns:
            try:
                sock.shutdown(socket.SHUT_RD)
            except OSError:
                pass  # the peer already hung up
        return conns

    def stop(self, timeout: float = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain, close connections.

        ``timeout`` bounds the whole drain, however many connections are
        still answering when it starts.
        """
        conns = self._begin_stop()
        deadline = time.monotonic() + timeout
        for sock, thread in conns:
            thread.join(max(0.0, deadline - time.monotonic()))
            if thread.is_alive():
                # Stuck writing to a peer that stopped reading: cut it.
                wake_and_close(sock)

    # -- per-connection loop ------------------------------------------------------

    def _serve_connection(self, sock: socket.socket) -> None:
        conn = Connection(sock)
        try:
            while not self._stopping.is_set():
                try:
                    payload = read_frame(sock)
                except ProtocolError:
                    # The length itself is hostile: refuse without reading
                    # (or allocating) the claimed payload, then hang up —
                    # the stream cannot be resynchronized.
                    replies, keep = self.REFUSAL, False
                else:
                    replies, keep = self._serve_frame(conn, payload)
                for reply in replies:
                    self._send(sock, reply)
                if not keep:
                    break
        except OSError:
            pass  # the peer hung up, or stop() shut the read side
        finally:
            with self._lock:
                if conn.session is not None:
                    self.sessions.retire(conn.session)
                del self._conns[sock]
            sock.close()

    def _serve_frame(self, conn: Connection,
                     payload: bytes) -> Tuple[tuple, bool]:
        """Answer one frame: ``(replies, keep)``; ``keep`` False hangs up
        after the replies are sent."""
        raise NotImplementedError

    @staticmethod
    def _send(sock: socket.socket, payload: bytes) -> None:
        # A reply past the cap goes out as its length alone: it makes the
        # peer's reader refuse it, typed; the body stays unsent.
        sock.sendall(frame(payload) if frame_length_ok(len(payload))
                     else FRAME_HEADER.pack(len(payload)))

    # -- the session checks (lock held) -------------------------------------------

    def _hello(self, conn: Connection, payload: bytes) -> Optional[bytes]:
        """Accept a client hello: the server hello, or None after the
        ``handshake`` alarm.  A repeated hello on one connection rekeys:
        the previous session is retired first."""
        if conn.session is not None:
            self.sessions.retire(conn.session)
            conn.session = None
        try:
            reply, conn.session = self.sessions.accept(payload)
        except HandshakeError:
            self.alarms["handshake"] += 1
            return None
        return reply

    def _open_data(self, conn: Connection, payload: bytes) -> Optional[bytes]:
        """Authenticate and decrypt a data frame: its plaintext, or None
        after the matching alarm."""
        if conn.session is None:
            # A data frame with no handshake on this connection: a frame
            # recorded from an earlier session played into a fresh one.
            self.alarms["stale"] += 1
            return None
        try:
            return conn.session.open(payload)
        except TamperedFrameError:
            kind = "tamper"
        except StaleSessionError:
            kind = "stale"
        except ReplayError:
            kind = "replay"
        except ProtocolError:
            kind = "malformed"
        self.alarms[kind] += 1
        return None
