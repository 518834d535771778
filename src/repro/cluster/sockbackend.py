"""Socket-backed shards: enclaves in shard-host processes, reached by TCP.

The third :class:`~repro.cluster.backend.ShardBackend` implementation,
and the one that makes the cluster actually *distributed*: each shard or
replica enclave lives inside a **shard-host** process
(``python -m repro shard-host``) that is reachable only over TCP.  The
coordinator's handle, :class:`SocketShard`, speaks the same remote-shard
RPC vocabulary as the process backend (:mod:`repro.cluster.remote`), in
the same :mod:`repro.cluster.rpc` bytes, but every one of them crosses an
**attested, encrypted session**:

* the host is the front door's kind of endpoint, a
  :class:`~repro.cluster.netutil.SessionServer`, and the handle connects
  through the same :func:`~repro.cluster.netutil.dial`: it runs the v2
  handshake of :mod:`repro.cluster.session` against the host's gateway
  identity — DH key exchange, a quote bound to the handshake transcript,
  and the attested measurement checked against the deployment's
  **expected-measurement list**.  A host that fails attestation, answers
  in plaintext, or is simply not on the list never receives a single RPC;
* established frames are AES-CTR + CMAC per direction with strict
  sequence advance, so an on-path adversary tampering or replaying the
  coordinator↔shard hop trips the same typed alarms as the client edge.
  The handle counts the alarm, severs the link, and surfaces
  :class:`~repro.errors.ShardUnreachableError` — the enclave is intact,
  the *link* is compromised, and the health monitor re-handshakes a
  fresh session rather than rebuilding an empty enclave;
* every RPC reply piggybacks the enclave meter's absolute
  :meth:`~repro.sgx.meter.CycleMeter.snapshot`, so simulated cycles stay
  bit-identical across inline, process and socket backends.  The *hop's*
  crypto is charged separately — to the host's
  :class:`~repro.cluster.session.SessionManager` meter and the handle's
  ``wire_meter`` — exactly like the front door's gateway enclave.

Topology: one shard-host serves many enclaves (one per connection, each
``spawn``\\ ed or ``attach``\\ ed by its handle), and one
:class:`SocketBackend` places handles round-robin across its host list.
Consecutive ``create`` calls land on distinct hosts, so a replica
group's members never share a host when at least two hosts exist — a
whole-host ``SIGKILL`` takes out at most one replica per group.

Failure semantics, sharpened by the transport:

* **crash** — the host process (or its enclave) is gone; RPCs fail with
  :class:`~repro.errors.ShardCrashedError`, and recovery means a fresh
  enclave (``spawn`` on a live host) plus a trusted-path re-sync;
* **partition** — the host is
  alive but unreachable: the handle black-holes frames (and connect
  attempts time out) until the partition heals, raising
  :class:`~repro.errors.ShardUnreachableError` meanwhile.  On heal,
  :meth:`SocketShard.reconnect` re-dials, re-handshakes, and
  ``attach``\\ es to the *same* enclave — state intact, no rebuild —
  after which the health monitor re-syncs only the writes it missed.

Locally spawned hosts (the default when no ``hosts`` are given) are real
OS processes; the parent learns each one's ephemeral port over a one-shot
pipe, and *everything* after that — spawn, flushes, re-sync, teardown —
crosses TCP only.  :func:`reap_leaked_hosts` mirrors
:func:`~repro.cluster.procbackend.reap_leaked_workers` for the test
suite's leak checks.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import threading
import time
import weakref
from collections import Counter
from typing import List, Optional, Sequence, Tuple, Union

from repro.cluster import rpc
from repro.cluster.backend import ShardBackend
from repro.cluster.framing import read_frame, write_frame
from repro.cluster.netutil import Connection, SessionServer, dial
from repro.cluster.remote import (
    DEFAULT_CLOSE_TIMEOUT,
    DEFAULT_RPC_TIMEOUT,
    RemoteShardHandle,
    RemoteStore,
    ready_reply,
    rpc_reply,
    spawn_reply,
)
from repro.cluster.session import SessionManager, measurement
from repro.cluster.shard import EnclaveSpec
from repro.crypto.keys import KeyMaterial
from repro.errors import (
    AriaError,
    ClusterConnectionError,
    ClusterTimeoutError,
    HandshakeError,
    ProtocolError,
    ReplayError,
    ShardCrashedError,
    ShardUnreachableError,
    TamperedFrameError,
)
from repro.server.protocol import FLAG_HANDSHAKE
from repro.sgx.meter import CycleMeter

#: ``host:port[,host:port...]`` — pre-started shard hosts to use when a
#: :class:`SocketBackend` is resolved by name (``ARIA_CLUSTER_BACKEND=socket``)
#: with no explicit host list.  Unset means spawn local hosts.
SHARD_HOSTS_ENV_VAR = "ARIA_SHARD_HOSTS"

#: ``hex[,hex...]`` — the expected-measurement list matching the env hosts.
SHARD_MEASUREMENTS_ENV_VAR = "ARIA_SHARD_MEASUREMENTS"

#: How many local shard-host processes a spawn-mode backend brings up.
DEFAULT_N_HOSTS = 2

DEFAULT_CONNECT_TIMEOUT = 5.0

#: Every live SocketShard handle, whatever backend built it.
_LIVE_HANDLES: "weakref.WeakSet[SocketShard]" = weakref.WeakSet()

#: Every locally spawned shard-host process still possibly running.  A
#: strong set: a dropped backend must not let its hosts leak silently.
_LIVE_HOSTS: set = set()


def reap_leaked_hosts(timeout: float = DEFAULT_CLOSE_TIMEOUT) -> List[str]:
    """Close every socket handle, then stop every spawned shard host.

    Returns ``host:port`` for hosts that were still *running* (genuine
    leaks); already-dead hosts only need their process entry joined.
    The counterpart of :func:`~repro.cluster.procbackend
    .reap_leaked_workers` for the distributed backend's leak checks.
    """
    for handle in list(_LIVE_HANDLES):
        handle.close(timeout)
    leaked = []
    for host in list(_LIVE_HOSTS):
        if host.alive():
            leaked.append(f"{host.host}:{host.port}")
        host.stop(timeout)
    return sorted(leaked)


# ---------------------------------------------------------------------------
# The shard-host side
# ---------------------------------------------------------------------------


class ShardHost(SessionServer):
    """One shard-host process: a registry of enclaves behind a gateway.

    A :class:`~repro.cluster.netutil.SessionServer` whose session manager
    *is* the host's gateway-enclave identity, derived from ``seed`` so
    deployments can pin the measurement.  A connection's first frame must
    be a hello (anything else counts in ``alarms["handshake"]``); then it
    drives exactly one enclave, named by its first command:

    * ``spawn``  — build a fresh :class:`~repro.cluster.shard.Shard`
      from a spec (replacing any previous enclave of that id);
    * ``attach`` — re-bind to an enclave that survived a severed
      connection (the partition-heal path; state intact).

    Every data frame the host hangs up on also counts in
    ``alarms["wire"]``: the session layer's refusals, and sealed payloads
    that are no command.  A connection dying *without* a
    ``shutdown``/``kill`` command leaves its enclave in the registry:
    losing the link must not lose the data — that asymmetry is what
    distinguishes a partition from a crash.  ``kill`` and ``shutdown``
    remove the enclave.  Enclave work runs outside ``_lock``; a per-shard
    lock serialises it.
    """

    conn_thread_name = "aria-host-conn"

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 seed: int = 0, crypto: str = "fast"):
        self.seed = seed
        self.keys = KeyMaterial.from_seed(seed)
        super().__init__(SessionManager(keys=self.keys, crypto=crypto),
                         host=host, port=port)
        self._enclaves: dict = {}
        self._shard_locks: dict = {}

    @property
    def measurement(self) -> bytes:
        """What an honest quote for this host's gateway attests."""
        return measurement(self.keys)

    # -- one connection = one enclave's RPC stream --------------------------------

    def _serve_frame(self, conn: Connection, payload: bytes) -> tuple:
        with self._lock:
            if conn.session is None or (
                    len(payload) > 3 and payload[3] & FLAG_HANDSHAKE):
                reply = self._hello(conn, payload)
                # Nothing about a bad hello is ever trusted: hang up.
                return ((), False) if reply is None else ((reply,), True)
            plain = self._open_data(conn, payload)
        if plain is not None:
            try:
                cmd, arg = rpc.decode_call(plain)
            except AriaError:
                plain = None
        if plain is None:
            # Tampered or replayed on the path, or sealed by a key holder
            # around something that is no command: alarm and hang up,
            # never feeding it to the enclave.
            with self._lock:
                self.alarms["wire"] += 1
            return (), False
        shard = conn.bound
        if shard is None:
            conn.bound, reply = self._bind_enclave(cmd, arg)
        elif cmd in ("shutdown", "kill"):
            # Both remove the enclave; "kill" models the enclave (not the
            # host) dying, "shutdown" is the graceful release.
            with self._lock:
                self._enclaves.pop(shard.shard_id, None)
                self._shard_locks.pop(shard.shard_id, None)
            reply = rpc_reply(shard, cmd, arg)
        else:
            with self._shard_locks.get(shard.shard_id) or threading.Lock():
                reply = rpc_reply(shard, cmd, arg)
        self._reply(conn.sock, conn.session, conn.bound, cmd, reply)
        return (), shard is None or cmd not in ("shutdown", "kill")

    def _bind_enclave(self, cmd: str, arg) -> tuple:
        """The stream's first command, spawn or attach: ``(enclave,
        reply)``, the enclave None (and the reply saying why) when there
        is none to bind."""
        if cmd == "spawn":
            shard, reply = spawn_reply(arg)
            if shard is not None:
                with self._lock:
                    self._enclaves[shard.shard_id] = shard
                    self._shard_locks[shard.shard_id] = threading.Lock()
        elif cmd == "attach":
            with self._lock:
                shard = self._enclaves.get(arg)
            if shard is None:
                reply = rpc.encode_reply(cmd, False, ShardCrashedError(
                    f"no enclave {arg!r} on this host (it was killed, "
                    "released, or the host restarted)"))
            else:
                reply = ready_reply(shard, cmd)
        else:
            shard = None
            reply = rpc.encode_reply(cmd, False, ProtocolError(
                f"first shard-host RPC must be spawn/attach, not {cmd!r}"))
        return shard, reply

    def _reply(self, sock, session, shard, cmd: str, reply: bytes) -> None:
        with self._lock:
            frame = session.seal(reply)
        try:
            write_frame(sock, frame)
        except ProtocolError as exc:
            # Too big for one frame: the waiting parent gets a typed error.
            self._reply(sock, session, shard, cmd, rpc.encode_reply(
                cmd, False, exc, None if shard is None else shard.meter))
        except (ClusterConnectionError, ClusterTimeoutError):
            pass  # peer is gone; nothing left to tell it


def _set_process_name() -> None:
    """Make shard hosts findable by name (``pgrep aria-shard-host``).

    CI sweeps for survivors after the suite, and operators get a
    greppable process table.  Linux-only; 15 chars is the comm limit and
    exactly fits.
    """
    try:
        with open("/proc/self/comm", "w") as fh:
            fh.write("aria-shard-host")
    except OSError:  # pragma: no cover - non-Linux
        pass


def run_shard_host(*, host: str = "127.0.0.1", port: int = 0, seed: int = 0,
                   crypto: str = "fast", announce=print) -> ShardHost:
    """Start a shard host, announce its address + measurement, and serve.

    The blocking entrypoint behind ``python -m repro shard-host``.  The
    announced measurement is what operators put on coordinators'
    expected-measurement lists.
    """
    _set_process_name()
    shard_host = ShardHost(host=host, port=port, seed=seed, crypto=crypto)
    bound_host, bound_port = shard_host.start()
    announce(f"shard-host listening on {bound_host}:{bound_port}")
    announce(f"measurement: {shard_host.measurement.hex()}")
    try:
        shard_host.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive use
        pass
    finally:
        shard_host.stop()
    return shard_host


def _host_main(pipe, host: str, port: int, seed: int, crypto: str) -> None:
    """Child-process body for a locally spawned shard host.

    The pipe is a one-shot control channel: it reports the bound
    ephemeral port (or a bind failure) back to the parent and is closed
    before the first enclave exists.  All shard traffic crosses TCP.  The
    report is text: ``host:port``, or ``!`` and why the bind failed.
    """
    _set_process_name()
    shard_host = ShardHost(host=host, port=port, seed=seed, crypto=crypto)
    try:
        report = "%s:%d" % shard_host.start()
    except OSError as exc:
        report = f"!{exc}"
    pipe.send_bytes(report.encode())
    pipe.close()
    if not report.startswith("!"):
        shard_host.serve_forever()


class SpawnedHost:
    """Parent-side record of one locally spawned shard-host process."""

    def __init__(self, ctx, *, host: str = "127.0.0.1", port: int = 0,
                 seed: int = 0, crypto: str = "fast"):
        self.seed = seed
        self.measurement = measurement(KeyMaterial.from_seed(seed))
        parent_pipe, child_pipe = ctx.Pipe()
        self.process = ctx.Process(
            target=_host_main,
            args=(child_pipe, host, port, seed, crypto),
            daemon=True,
            name=f"aria-shard-host-{seed}",
        )
        self.process.start()
        child_pipe.close()
        try:
            report = parent_pipe.recv_bytes().decode()
        except (EOFError, OSError) as exc:
            self.stop()
            raise ClusterConnectionError(
                "shard host died before binding") from exc
        finally:
            parent_pipe.close()
        if report.startswith("!"):
            self.stop()
            raise ClusterConnectionError(
                f"shard host could not bind: {report[1:]}")
        [(self.host, self.port)] = _parse_hosts(report)
        _LIVE_HOSTS.add(self)

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def alive(self) -> bool:
        return self.process.is_alive()

    def kill(self) -> None:
        """SIGKILL the host process: every enclave on it dies at once."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(DEFAULT_CLOSE_TIMEOUT)

    def stop(self, timeout: float = DEFAULT_CLOSE_TIMEOUT) -> None:
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(timeout)
        if self.process.is_alive():  # pragma: no cover - stuck host
            self.process.kill()
            self.process.join(timeout)
        _LIVE_HOSTS.discard(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive() else "down"
        return f"SpawnedHost({self.host}:{self.port}, seed={self.seed}, {state})"


# ---------------------------------------------------------------------------
# The parent-side handle
# ---------------------------------------------------------------------------


class SocketShard(RemoteShardHandle):
    """Shard handle for an enclave behind an attested TCP session.

    The same RPC surface as :class:`~repro.cluster.procbackend
    .ProcessShard` — flushes (plain and pipelined), the trusted path, the
    absolute meter mirror — but the transport is a
    :class:`~repro.cluster.session.SecureSession` over TCP, and the
    handle additionally models the link itself: :meth:`partition` black-
    holes frames without touching the enclave, and :meth:`reconnect`
    re-dials, re-handshakes, and re-attaches after a heal.
    """

    #: The pid of the shard-host process its backend spawned for it
    #: (shared by the host's other enclaves); None for a host given by
    #: address.
    pid: Optional[int] = None

    def __init__(
        self,
        spec: EnclaveSpec,
        endpoint: Tuple[str, int],
        *,
        expected_measurements: Optional[Sequence[bytes]] = None,
        crypto: str = "fast",
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        super().__init__(spec)
        self.endpoint = tuple(endpoint)
        self._expected = expected_measurements or None
        self._crypto = crypto
        self._rpc_timeout = rpc_timeout
        self._connect_timeout = connect_timeout
        #: The parent's side of the hop's crypto, priced like the client
        #: edge's accounting — never merged into the shard meter, so the
        #: enclave's simulated cycles stay backend-invariant.
        self.wire_meter = CycleMeter()
        self.wire_alarms: Counter = Counter()
        self.attested_measurement: Optional[bytes] = None
        self._heal_at = 0.0
        self.reconnects = 0
        self._sock: Optional[socket.socket] = None
        self._session = None
        self._dial()
        self.store = RemoteStore(self, self._call("spawn", spec))
        _LIVE_HANDLES.add(self)

    # -- the attested hop ---------------------------------------------------------

    def _dial(self) -> None:
        """Connect and run the handshake, pinned to the measurement list."""
        self._sock, self._session = dial(
            *self.endpoint, timeout=self._connect_timeout,
            handshake=dict(expected_measurement=self._expected,
                           crypto=self._crypto, meter=self.wire_meter))
        self._sock.settimeout(self._rpc_timeout)
        self.attested_measurement = self._session.attested_measurement

    def _sever(self) -> None:
        """Drop the link (and its session), leaving the enclave's fate
        to whoever calls next: reconnect for partitions, restart for
        crashes."""
        self._session = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover
                pass
            self._sock = None

    # -- RPC plumbing -------------------------------------------------------------

    def _send(self, message: bytes) -> None:
        if self.crashed or self.closed:
            raise ShardCrashedError(
                f"shard {self.shard_id} is down (host connection dead)")
        if self.partitioned:
            raise ShardUnreachableError(
                f"shard {self.shard_id} is unreachable "
                f"(partition: frames black-holed)")
        try:
            self._transmit(message)
        except (ClusterConnectionError, ClusterTimeoutError, AttributeError):
            self._mark_crashed()
            raise ShardCrashedError(
                f"shard {self.shard_id} is down (host connection lost)")

    def _transmit(self, message: bytes) -> None:
        write_frame(self._sock, self._session.seal(message))

    def _recv(self, timeout: float = DEFAULT_RPC_TIMEOUT):
        if self.partitioned:
            # A pipelined collect racing a partition: the reply frame is
            # black-holed with everything else on the link.
            raise ShardUnreachableError(
                f"shard {self.shard_id} is unreachable "
                f"(partition: frames black-holed)")
        try:
            frame = read_frame(self._sock)
        except ClusterTimeoutError:
            self._mark_crashed()
            raise ShardCrashedError(
                f"shard {self.shard_id} host unresponsive after "
                f"{self._rpc_timeout}s")
        except (ClusterConnectionError, ProtocolError, AttributeError):
            self._mark_crashed()
            raise ShardCrashedError(
                f"shard {self.shard_id} is down (host connection died)")
        try:
            reply = self._session.open(frame)
        except (TamperedFrameError, ReplayError) as exc:
            kind = "replay" if isinstance(exc, ReplayError) else "tamper"
            raise self._compromised(kind, f"{kind}ed frame", exc) from exc
        try:
            ok, payload = rpc.decode_reply(reply, self.meter)
        except ProtocolError as exc:
            # Authentic, in sequence, and no reply: whatever holds the
            # session key on the far side is not speaking the RPC.
            raise self._compromised(
                "decode", "undecodable reply", exc) from exc
        if not ok:
            raise payload
        return payload

    def _compromised(self, kind: str, what: str,
                     exc: Exception) -> ShardUnreachableError:
        """The hop is under attack: alarm, sever the link, and let the
        health monitor re-handshake — the enclave itself is intact."""
        self.wire_alarms[kind] += 1
        self._sever()
        return ShardUnreachableError(
            f"shard {self.shard_id} link compromised ({what}): {exc}")

    def _mark_crashed(self) -> None:
        self.crashed = True
        self._sever()

    # -- partition / heal / reconnect ----------------------------------------------

    def partition(self, duration: float = 0.0) -> None:
        """Make the host unreachable: frames black-hole, connects fail.

        The enclave keeps running on the far side.  With ``duration`` 0
        the partition is immediately healable (the next
        :meth:`reconnect` succeeds); otherwise reconnect attempts inside
        the window fail like timed-out connects.
        """
        self.partitioned = True
        self._heal_at = time.monotonic() + duration
        self._sever()

    def heal(self) -> None:
        """Lift the partition window (the link becomes dialable again)."""
        self._heal_at = 0.0

    def reconnect(self) -> bool:
        """Re-dial, re-handshake, and re-attach to the same enclave.

        The partition-heal path: returns True when the host answered,
        attested, and still holds this shard's enclave — state intact,
        no re-spawn.  Returns False while the partition persists; marks
        the handle crashed (so the monitor falls back to a full restart
        + re-sync) when the host is genuinely gone, fails attestation,
        or no longer has the enclave.
        """
        if self.closed:
            return False
        if self.partitioned and time.monotonic() < self._heal_at:
            return False  # still black-holed: a connect would time out
        self.partitioned = False  # the link is dialable again
        self._sever()
        try:
            self._dial()
            # Straight onto the fresh link: _send's crashed guard is what
            # this very call is about to lift.
            self._transmit(rpc.encode_call("attach", self.shard_id))
            config = self._recv()
        except (ShardCrashedError, ClusterConnectionError,
                ClusterTimeoutError, HandshakeError, ProtocolError):
            self._mark_crashed()
            return False
        self.store.config = config
        self.crashed = False
        self._forget_flights()
        self.reconnects += 1
        return True

    # -- lifecycle ----------------------------------------------------------------

    def kill(self) -> None:
        """Kill the enclave (not the host): it vanishes from the registry.

        Best-effort over the wire — behind a partition the kill cannot be
        delivered, and the stranded enclave is swept when its host stops.
        """
        if (not self.crashed and not self.closed and not self.partitioned
                and self._session is not None):
            try:
                self._send(rpc.encode_call("kill"))
                self._recv()
            except (AriaError, OSError):
                pass
        self.crashed = True
        self._sever()

    def close(self, timeout: float = DEFAULT_CLOSE_TIMEOUT) -> None:
        """Graceful release: drain pipelined flushes, free the enclave."""
        if self.closed:
            return
        if (not self.crashed and not self.partitioned
                and self._session is not None):
            try:
                self._sock.settimeout(timeout)
                for _ in range(self._unread()):
                    self._recv()
                self._send(rpc.encode_call("shutdown"))
                self._recv()
            except (AriaError, OSError):
                pass
        self.closed = True
        self._forget_flights()
        self._sever()
        _LIVE_HANDLES.discard(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        host, port = self.endpoint
        state = ("closed" if self.closed else
                 "down" if self.crashed else
                 "partitioned" if self.partitioned else "up")
        return (f"SocketShard({self.shard_id!r}, "
                f"host={host}:{port}, {state})")


# ---------------------------------------------------------------------------
# The backend factory
# ---------------------------------------------------------------------------


def _parse_hosts(spec: Union[str, Sequence]) -> List[Tuple[str, int]]:
    """``"h:p,h:p"`` or an iterable of ``"h:p"``/(h, p) → [(h, p), ...]."""
    if isinstance(spec, str):
        spec = [part for part in spec.split(",") if part.strip()]
    endpoints = []
    for entry in spec:
        if isinstance(entry, str):
            host, _, port = entry.strip().rpartition(":")
            if not host or not port.isdigit():
                raise ValueError(f"bad shard host {entry!r}; want host:port")
            endpoints.append((host, int(port)))
        else:
            host, port = entry
            endpoints.append((str(host), int(port)))
    return endpoints


def _parse_measurements(spec: Union[str, Sequence]) -> List[bytes]:
    if isinstance(spec, str):
        spec = [part for part in spec.split(",") if part.strip()]
    parsed = []
    for entry in spec:
        parsed.append(bytes.fromhex(entry) if isinstance(entry, str)
                      else bytes(entry))
    return parsed


class SocketBackend(ShardBackend):
    """Shard enclaves in shard-host processes, reachable only over TCP.

    Two modes:

    * **spawn mode** (default): lazily brings up ``n_hosts`` local
      shard-host processes on ephemeral ports and computes their
      expected measurements from the seeds it chose — a self-contained
      multi-port topology for tests and benchmarks.  A host found dead
      at ``create`` time is respawned (fresh process, same identity
      seed, new port).
    * **static mode** (``hosts=...`` or ``$ARIA_SHARD_HOSTS``): connects
      to pre-started ``python -m repro shard-host`` processes; the
      deployment supplies the expected-measurement list
      (``expected_measurements=`` / ``$ARIA_SHARD_MEASUREMENTS``), and
      ``None`` means trust-on-first-use (quotes still verified against
      the attestation root and transcript).

    Handles are placed round-robin over the host list, so consecutive
    creates — a replica group's members, in particular — land on
    distinct hosts whenever there are at least two.
    """

    name = "socket"

    def __init__(
        self,
        *,
        hosts: Union[None, str, Sequence] = None,
        expected_measurements: Union[None, str, Sequence] = None,
        n_hosts: int = DEFAULT_N_HOSTS,
        seed: int = 0,
        crypto: str = "fast",
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
        connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
    ):
        if hosts is None:
            hosts = os.environ.get(SHARD_HOSTS_ENV_VAR) or None
        if expected_measurements is None:
            expected_measurements = (
                os.environ.get(SHARD_MEASUREMENTS_ENV_VAR) or None)
        self._static_hosts = _parse_hosts(hosts) if hosts else None
        self._pinned = (_parse_measurements(expected_measurements)
                        if expected_measurements else None)
        if n_hosts < 1:
            raise ValueError("a socket backend needs at least one host")
        self._n_hosts = n_hosts
        self._seed = seed
        self._crypto = crypto
        self._rpc_timeout = rpc_timeout
        self._connect_timeout = connect_timeout
        self._spawned: List[SpawnedHost] = []
        self._next = 0
        self._handles: "weakref.WeakSet[SocketShard]" = weakref.WeakSet()
        from repro.cluster.procbackend import default_start_method

        self._ctx = multiprocessing.get_context(default_start_method())

    # -- host pool ----------------------------------------------------------------

    @property
    def spawn_mode(self) -> bool:
        return self._static_hosts is None

    def _ensure_hosts(self) -> None:
        if not self.spawn_mode or self._spawned:
            return
        for i in range(self._n_hosts):
            self._spawned.append(SpawnedHost(
                self._ctx, seed=self._seed + 7321 * i + 1,
                crypto=self._crypto))

    def endpoints(self) -> List[Tuple[str, int]]:
        """The current host list (spawning lazily in spawn mode)."""
        if self._static_hosts is not None:
            return list(self._static_hosts)
        self._ensure_hosts()
        return [(h.host, h.port) for h in self._spawned]

    def hosts(self) -> List[SpawnedHost]:
        """Spawn mode only: the live host records (for chaos tests)."""
        self._ensure_hosts()
        return list(self._spawned)

    def _pick(self, index: int):
        """Endpoint, measurement list and host pid (None for a static
        host) for the ``index``-th placement, respawning a dead spawned
        host on the way."""
        if self._static_hosts is not None:
            endpoint = self._static_hosts[index % len(self._static_hosts)]
            return endpoint, self._pinned, None
        self._ensure_hosts()
        slot = index % len(self._spawned)
        host = self._spawned[slot]
        if not host.alive():
            host.stop()
            host = SpawnedHost(self._ctx, seed=host.seed, crypto=self._crypto)
            self._spawned[slot] = host
        return ((host.host, host.port),
                [h.measurement for h in self._spawned], host.pid)

    # -- the factory --------------------------------------------------------------

    def create(self, spec: EnclaveSpec) -> SocketShard:
        attempts = max(1, len(self.endpoints()))
        last_error: Optional[Exception] = None
        for _ in range(attempts):
            placement = self._next
            self._next += 1
            endpoint, expected, pid = self._pick(placement)
            try:
                handle = SocketShard(
                    spec, endpoint,
                    expected_measurements=expected,
                    crypto=self._crypto,
                    rpc_timeout=self._rpc_timeout,
                    connect_timeout=self._connect_timeout,
                )
            except (ClusterConnectionError, ClusterTimeoutError) as exc:
                last_error = exc  # host down: try the next one
                continue
            handle.pid = pid
            self._handles.add(handle)
            return handle
        raise ClusterConnectionError(
            f"no shard host reachable for {spec.shard_id!r}: {last_error}")

    def close(self, timeout: float = DEFAULT_CLOSE_TIMEOUT) -> None:
        for handle in list(self._handles):
            handle.close(timeout)
        for host in self._spawned:
            host.stop(timeout)
        self._spawned = []
