"""Process-backed shards: every enclave in its own OS process.

The :class:`ProcessBackend` implementation of the
:class:`~repro.cluster.backend.ShardBackend` seam.  Each shard (or
replica) enclave is built *inside* a ``multiprocessing`` worker; the
parent holds a :class:`ProcessShard`, the same
:class:`~repro.cluster.shard.ShardHandle` an inline shard is, so the
coordinator, replica groups, fault injector, balancer, health monitor and
stats aggregation all work unchanged.

What crosses the pipe (one duplex ``Pipe`` per worker, raw
``send_bytes``/``recv_bytes`` messages of :mod:`repro.cluster.rpc` — the
same bytes the socket backend seals into its frames) is the shared
remote-shard RPC vocabulary of :mod:`repro.cluster.remote`:

* batch requests / responses — ``flush_batch`` ships the whole batch and
  gets the response list back; the coordinator uses the split
  ``flush_submit``/``flush_send``/``flush_collect`` so a call's windows
  for one shard share one message and independent shards' batches
  execute concurrently (the pipe is FIFO, preserving the per-key
  ordering contract within a shard);
* trusted-path traffic — the balancer's key migrations and the health
  monitor's re-syncs run ``get``/``put``/``delete`` through the store
  proxy, so moving a record between enclaves still means a verified read
  on the source and a re-sealed put on the destination, each charged to
  the enclave that did the work;
* metering — every reply piggybacks the enclave meter's full state in
  its binary form, which the parent loads into a local mirror.  Reading
  ``meter`` reads that mirror and sends nothing; once the worker is dead
  it holds the last reply's state — a killed enclave's accounting stays
  readable, exactly like an inline crashed shard's meter.

What stays in the parent: routing (the ring), batching, replica
orchestration and failover policy, fault schedules, balancer policy,
``ops_routed`` / load-mark bookkeeping.

Crash semantics: :meth:`ProcessShard.kill` is a real ``SIGKILL`` — the
enclave, its key material and its EPC contents genuinely vanish with the
process.  Any later RPC (or a broken/EOF pipe at any time) surfaces as
:class:`~repro.errors.ShardCrashedError`, which is exactly what the
replication layer's failover already expects.  A restart builds a fresh
worker via the backend factory (new process, new keys, empty store) and
the health monitor re-syncs it through the trusted path before it
serves.

Workers are daemonic and additionally shut down by :meth:`ProcessShard
.close` (graceful ``shutdown`` RPC, then ``join`` → ``terminate`` →
``kill`` with a bounded timeout), so test runs never leak children; a
module-level registry lets the test suite's leak-check fixture reap
anything a test forgot (:func:`reap_leaked_workers`).
"""

from __future__ import annotations

import multiprocessing
import weakref
from typing import List, Optional

from repro.cluster import rpc
from repro.cluster.backend import ShardBackend
from repro.cluster.remote import (
    DEFAULT_CLOSE_TIMEOUT,
    DEFAULT_RPC_TIMEOUT,
    RemoteShardHandle,
    RemoteStore,
    rpc_reply,
    spawn_reply,
)
from repro.cluster.shard import EnclaveSpec
from repro.errors import ProtocolError, ShardCrashedError

#: Every live ProcessShard, whatever backend instance built it — the leak
#: check fixture's view of the world.
_LIVE_HANDLES: "weakref.WeakSet[ProcessShard]" = weakref.WeakSet()


def default_start_method() -> str:
    """``fork`` where available (cheap worker startup), else the
    platform's default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return "fork"
    return multiprocessing.get_start_method(allow_none=False)


def reap_leaked_workers(timeout: float = DEFAULT_CLOSE_TIMEOUT) -> List[str]:
    """Close every live handle; returns the shard ids that still had a
    *running* worker (i.e. genuine leaks — crashed workers were already
    dead and only need their process entry joined)."""
    leaked = []
    for handle in list(_LIVE_HANDLES):
        if handle.worker_alive():
            leaked.append(handle.shard_id)
        handle.close(timeout)
    return sorted(leaked)


# ---------------------------------------------------------------------------
# The worker side
# ---------------------------------------------------------------------------


def _worker_main(conn, spec: EnclaveSpec) -> None:
    """Build the real Shard and serve RPCs until shutdown (or SIGKILL)."""
    import signal

    # A foreground Ctrl-C delivers SIGINT to the whole process group.
    # Shutdown is the *parent's* call (graceful ``shutdown`` RPC, then
    # escalation in ``ProcessShard.close``): if workers died on the
    # signal, the parent's final stats collection would race their
    # exit and the serve CLI's shutdown report would read dead pipes.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    shard, reply = spawn_reply(spec)  # build failures reach the parent
    _send(conn, reply)
    if shard is not None:
        while True:
            try:
                message = conn.recv_bytes()
            except (EOFError, OSError):
                break  # parent vanished; daemon exit
            try:
                cmd, arg = rpc.decode_call(message)
            except ProtocolError as exc:
                # Not something the parent's handle can have written: stop
                # serving (the parent reads EOF as a crashed shard).
                raise SystemExit(f"shard worker {spec.shard_id}: {exc}")
            _send(conn, rpc_reply(shard, cmd, arg))
            if cmd == "shutdown":
                break
    conn.close()


def _send(conn, reply: bytes) -> None:
    try:
        conn.send_bytes(reply)
    except (BrokenPipeError, OSError):
        pass  # parent is gone; nothing left to tell it


# ---------------------------------------------------------------------------
# The parent-side handle
# ---------------------------------------------------------------------------


class ProcessShard(RemoteShardHandle):
    """The handle for an enclave living in a worker process."""

    def __init__(self, spec: EnclaveSpec, ctx):
        super().__init__(spec)
        parent_conn, child_conn = ctx.Pipe()
        self._conn = parent_conn
        self._proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, spec),
            daemon=True,
            name=f"aria-shard-{self.shard_id}",
        )
        self._proc.start()
        child_conn.close()
        # The "ready" config, or the build error raised.
        self.store = RemoteStore(self, self._recv())
        _LIVE_HANDLES.add(self)

    # -- RPC plumbing -------------------------------------------------------------

    def _send(self, message: bytes) -> None:
        if self.crashed or self.closed:
            raise ShardCrashedError(
                f"shard {self.shard_id} is down (worker process dead)"
            )
        try:
            self._conn.send_bytes(message)
        except (OSError, ValueError):
            self._mark_crashed()
            raise ShardCrashedError(
                f"shard {self.shard_id} is down (pipe broken)"
            )

    def _recv(self, timeout: float = DEFAULT_RPC_TIMEOUT):
        try:
            if not self._conn.poll(timeout):
                self._mark_crashed()
                raise ShardCrashedError(
                    f"shard {self.shard_id} worker unresponsive "
                    f"after {timeout}s"
                )
            reply = self._conn.recv_bytes()
        except (EOFError, OSError):
            self._mark_crashed()
            raise ShardCrashedError(
                f"shard {self.shard_id} is down (worker process died)"
            )
        return self._settle(reply)

    def _mark_crashed(self) -> None:
        self.crashed = True
        if self._proc.is_alive():  # a hung worker counts as dead
            self._proc.kill()
        self._proc.join(DEFAULT_CLOSE_TIMEOUT)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass

    # -- lifecycle ----------------------------------------------------------------

    @property
    def pid(self) -> Optional[int]:
        return self._proc.pid

    def worker_alive(self) -> bool:
        return self._proc.is_alive()

    def kill(self) -> None:
        """SIGKILL the worker: the enclave and its EPC contents are gone."""
        self._mark_crashed()

    def close(self, timeout: float = DEFAULT_CLOSE_TIMEOUT) -> None:
        """Graceful shutdown with a bounded timeout; always reaps the worker.

        Drains any pipelined flushes first (the pipe is FIFO, so their
        replies precede the shutdown ack), then escalates join →
        terminate → kill if the worker overstays ``timeout``.
        """
        if self.closed:
            return
        self.closed = True
        if not self.crashed and self._proc.is_alive():
            try:
                self._conn.send_bytes(rpc.encode_call("shutdown"))
                for _ in range(self._unread() + 1):
                    if not self._conn.poll(timeout):
                        break
                    rpc.decode_reply(self._conn.recv_bytes(),
                                     self.meter)
            except (ProtocolError, EOFError, OSError):
                pass
        self._forget_flights()
        self._proc.join(timeout)
        if self._proc.is_alive():  # pragma: no cover - stuck worker
            self._proc.terminate()
            self._proc.join(timeout)
        if self._proc.is_alive():  # pragma: no cover - unkillable worker
            self._proc.kill()
            self._proc.join(timeout)
        try:
            self._conn.close()
        except OSError:  # pragma: no cover
            pass
        _LIVE_HANDLES.discard(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self.crashed else ("closed" if self.closed else "up")
        return f"ProcessShard({self.shard_id!r}, pid={self.pid}, {state})"


# ---------------------------------------------------------------------------
# The backend factory
# ---------------------------------------------------------------------------


class ProcessBackend(ShardBackend):
    """One worker process per shard/replica enclave."""

    name = "process"

    def __init__(self):
        self._ctx = multiprocessing.get_context(default_start_method())
        self._handles: "weakref.WeakSet[ProcessShard]" = weakref.WeakSet()

    def create(self, spec: EnclaveSpec) -> ProcessShard:
        handle = ProcessShard(spec, self._ctx)
        self._handles.add(handle)
        return handle

    def close(self, timeout: float = DEFAULT_CLOSE_TIMEOUT) -> None:
        for handle in list(self._handles):
            handle.close(timeout)
