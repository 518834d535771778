"""Transport-agnostic plumbing for shards whose enclave lives elsewhere.

The :class:`~repro.cluster.procbackend.ProcessBackend` (enclave in a
``multiprocessing`` worker behind a pipe) and the
:class:`~repro.cluster.sockbackend.SocketBackend` (enclave in a shard-host
process behind an attested TCP session) speak the *same* RPC vocabulary,
in the same bytes: the closed command table of :mod:`repro.cluster.rpc`,
every reply piggybacking the remote enclave meter's absolute state in its
binary form.  This module holds everything both sides share:

* what the far side says about an enclave — :func:`spawn_reply` (an
  :class:`~repro.cluster.shard.EnclaveSpec` in, the real
  :class:`~repro.cluster.shard.Shard` plus its encoded ``ready`` reply
  out), :func:`ready_reply` and :func:`rpc_reply` (one command through
  :func:`dispatch_shard_rpc`, the enclave-side command table), all
  producing encoded reply bytes;
* :class:`RemoteShardHandle` — the parent-side
  :class:`~repro.cluster.shard.ShardHandle` on top of two abstract
  transport hooks, ``_send`` (message bytes out) and ``_recv``, with
  :meth:`~RemoteShardHandle._settle` turning reply bytes back into a
  payload or a raise.  The handle is its own flush endpoint
  (``flush_batch`` plus the ``flush_submit``/``flush_send``/
  ``flush_collect`` split the coordinator uses: submit queues a window,
  send ships every queued window in as few messages as the frame cap
  allows, collect reads them back in order, valid because both transports
  are FIFO per shard) and keeps ``stats`` with a post-mortem cache;
* the proxies — :class:`RemoteStore` (the trusted path: migrations and
  re-syncs) and :class:`RemoteEnclave` (platform constants and the
  meter); the handle's ``meter`` is a plain
  :class:`~repro.sgx.meter.CycleMeter` that every reply's absolute state
  is loaded into, which keeps metering backend-invariant to the bit and
  makes reading it free.

Keeping this in one place is what makes the equivalence tests meaningful:
a new transport only decides *how bytes move*, never what the RPCs mean
or how cycles are accounted.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Tuple

from repro.cluster import rpc
from repro.cluster.shard import ShardHandle
from repro.errors import ProtocolError
from repro.sgx.costs import SgxPlatform
from repro.sgx.meter import CycleMeter

#: How long a single RPC may go unanswered before the remote enclave is
#: presumed hung and treated as crashed (CI job timeouts are the outer net).
DEFAULT_RPC_TIMEOUT = 120.0

DEFAULT_CLOSE_TIMEOUT = 5.0


# ---------------------------------------------------------------------------
# The enclave side: one vocabulary for every transport
# ---------------------------------------------------------------------------


def ready_reply(shard, cmd: str) -> bytes:
    """The answer to ``spawn``/``attach``: the store config, all a handle
    cannot derive from the spec it sent.  The enclave's keys are not in
    it: they never leave the enclave."""
    return rpc.encode_reply(cmd, True, shard.store.config, shard.meter)


def spawn_reply(spec) -> Tuple[Optional[object], bytes]:
    """Build the enclave ``spec`` describes: ``(shard, ready reply)``.

    A build failure comes back as ``(None, error reply)`` so the transport
    can surface it to the parent instead of dying silently.
    """
    try:
        shard = spec.build()
    except Exception as exc:
        return None, rpc.encode_reply("spawn", False, exc)
    return shard, ready_reply(shard, "spawn")


def rpc_reply(shard, cmd: str, arg) -> bytes:
    """Run one RPC against the real Shard; its encoded reply out.

    Whatever the command (or encoding its result) raises is the reply; an
    exit or an interrupt is not an answer and ends the process instead.
    ``shutdown`` and ``kill`` are lifecycle, not store commands: they are
    acknowledged here and acted on by the transport that owns the enclave.
    """
    try:
        result = None if cmd in ("shutdown", "kill") \
            else dispatch_shard_rpc(shard, cmd, arg)
        return rpc.encode_reply(cmd, True, result, shard.meter)
    except Exception as exc:
        return rpc.encode_reply(cmd, False, exc, shard.meter)


def _flush(shard, windows) -> list:
    """Each window through the batch server in order, as its own ECALL; a
    window that raises answers with its error and the next still runs."""
    outcomes = []
    for requests in windows:
        try:
            outcomes.append(shard.server.flush_batch(requests))
        except Exception as exc:
            outcomes.append(exc)
    return outcomes


def _put(shard, pairs):
    for key, value in pairs:
        shard.store.put(key, value)


def _plant_corruption(shard, key):
    from repro.attacks.scenarios import plant_corruption

    return plant_corruption(shard.store, key)


#: What each command of :data:`repro.cluster.rpc.COMMANDS` does to the
#: enclave (``shutdown``/``kill`` belong to the transport, not to it).
_HANDLERS = {
    "flush": _flush,
    "get": lambda shard, key: shard.store.get(key),
    "put": _put,
    "delete": lambda shard, key: shard.store.delete(key),
    "load": lambda shard, pairs: shard.store.load(pairs),
    "keys": lambda shard, _: shard.store.keys(),
    "len": lambda shard, _: len(shard.store),
    "stats": lambda shard, _: shard.stats(),
    "retarget_quotas":
        lambda shard, quotas: shard.store.retarget_tenant_quotas(quotas),
    "plant_corruption": _plant_corruption,
}


def dispatch_shard_rpc(shard, cmd: str, arg):
    """Execute one RPC against the real Shard, wherever it lives."""
    return _HANDLERS[cmd](shard, arg)


# ---------------------------------------------------------------------------
# The parent side: handle base class and its proxies
# ---------------------------------------------------------------------------


class RemoteShardHandle(ShardHandle):
    """The :class:`ShardHandle` for an enclave reachable only by RPC.

    Subclasses own the transport: they implement ``_send(message)`` and
    ``_recv(timeout)`` (which must pass every reply's bytes through
    :meth:`_settle` and raise :class:`~repro.errors.ShardCrashedError`
    once the far side is gone), plus the lifecycle overrides (``close``,
    ``kill``; ``partition``/``reconnect`` where the link is modelled).  Once
    the remote's ``ready`` config arrives, they set ``store`` to a
    :class:`RemoteStore` over it.
    """

    def __init__(self, spec):
        self.shard_id = spec.shard_id
        self.epc_bytes = spec.floored_epc_bytes
        self.closed = False
        self.ops_routed = 0
        #: The flush pipeline: encoded windows not yet shipped, then, in
        #: window order, each shipped message's window count (its reply
        #: unread) or a window's outcome (read, or its message's send error).
        self._queued: list = []
        self._inbox: deque = deque()
        self._stats_cache: Optional[dict] = None
        #: Mirror of the remote enclave's meter: every reply carries the
        #: meter's full state and :meth:`_settle` loads it wholesale
        #: (absolute, so no float drift accumulates over the transport).
        #: The enclave works only inside an RPC from this handle, so the
        #: mirror is current between calls; after a kill or behind a
        #: partition it is the last state the remote reported.
        self.meter = CycleMeter()

    # -- transport hooks (subclass responsibility) --------------------------------

    def _send(self, message: bytes) -> None:
        raise NotImplementedError

    def _recv(self, timeout: float = DEFAULT_RPC_TIMEOUT):
        raise NotImplementedError

    def _settle(self, reply: bytes):
        """Fold a reply's meter into the mirror; its payload, or raise."""
        ok, payload = rpc.decode_reply(reply, self.meter)
        if not ok:
            raise payload
        return payload

    def _call(self, cmd: str, arg=None):
        if self._queued or self._inbox:
            raise RuntimeError(f"shard {self.shard_id} has uncollected "
                               f"flushes; collect them before {cmd!r}")
        self._send(rpc.encode_call(cmd, arg))
        return self._recv()

    def _unread(self) -> int:
        """Replies on the wire that no collect has read yet."""
        return sum(type(entry) is int for entry in self._inbox)

    def _forget_flights(self) -> None:
        """Drop every window in the pipeline: the link it rode is gone."""
        self._queued = []
        self._inbox.clear()

    # -- the ShardHandle members ---------------------------------------------------

    @property
    def server(self) -> "RemoteShardHandle":
        return self  # the handle is its own flush_batch endpoint

    def flush_batch(self, requests) -> list:
        """One window, shipped and answered now: the submit, send and
        collect the coordinator splits, on an empty pipeline."""
        if self._queued or self._inbox:
            raise RuntimeError(f"shard {self.shard_id} has uncollected "
                               "flushes; collect them before a flush")
        ticket = self.flush_submit(requests)
        self.flush_send()
        return self.flush_collect(ticket)

    def flush_submit(self, requests) -> int:
        """Queue a batch window for :meth:`flush_send`; returns its ticket.

        Nothing crosses yet; a window no message can carry (or that does
        not encode) is refused here.  Windows are answered in submission
        order (both the pipe and the TCP session preserve it), so a ticket
        is just the window's place in the queue.
        """
        self._queued.append(rpc.encode_window(requests))
        return len(self._queued)

    def flush_send(self) -> None:
        """Ship every queued window: one message, more only where the frame
        cap needs them.  A message the transport refuses answers each of
        its windows with that error at collect, so nothing raises here and
        every window keeps its place in the pipeline."""
        queued, self._queued = self._queued, []
        for count, message in rpc.pack_windows(queued):
            try:
                self._send(message)
            except Exception as exc:
                self._inbox.extend([exc] * count)
            else:
                self._inbox.append(count)

    def flush_collect(self, ticket: int,
                      timeout: Optional[float] = None) -> list:
        """The responses of the oldest uncollected window, or its error.

        ``timeout`` (default :data:`DEFAULT_RPC_TIMEOUT`) lets the
        coordinator derive a per-shard RPC deadline from a request's
        remaining budget; exceeding it raises
        :class:`~repro.errors.ShardCrashedError` (hung => presumed dead),
        which the overload layer's breaker then counts as a failure.  A
        reply that does not come answers every window of its message with
        that error; the shard is treated as lost, never resumed
        mid-stream.  A window still queued ships first: no collect waits
        on a window that was never sent.
        """
        inbox = self._inbox
        if not inbox:
            self.flush_send()
            if not inbox:
                raise RuntimeError(f"{self.shard_id}: no flush to collect")
        outcome = inbox.popleft()
        if type(outcome) is int:
            try:
                outcomes = self._recv(DEFAULT_RPC_TIMEOUT if timeout is None
                                      else timeout)
                if len(outcomes) != outcome:
                    raise ProtocolError(f"{outcome} windows, {len(outcomes)} "
                                        "outcomes")
            except Exception as exc:
                # Whatever ends the reply answers each of its windows, so
                # the stream stays in step even for an error collect re-raises.
                outcomes = [exc] * outcome
            inbox.extendleft(reversed(outcomes[1:]))
            outcome = outcomes[0]
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    def stats(self) -> dict:
        if self.crashed or self.closed or self.partitioned:
            # A dead enclave still has a story to tell: serve the last row
            # the remote reported (the meter mirror keeps cycles current
            # up to its final reply).
            row = dict(self._stats_cache) if self._stats_cache else {
                "shard": self.shard_id, "keys": 0,
                "cycles": self.meter.cycles, "epc_bytes": self.epc_bytes,
            }
            row["ops_routed"] = self.ops_routed
            return row
        row = self._call("stats")
        row["ops_routed"] = self.ops_routed
        self._stats_cache = dict(row)
        return row

    def plant_corruption(self, key: bytes = b"") -> bool:
        """Run the fault injector's corruption plant beside the enclave."""
        return bool(self._call("plant_corruption", key))


class RemoteStore:
    """Store proxy: the trusted path (migration, re-sync) over the RPC."""

    def __init__(self, handle: RemoteShardHandle, config):
        self._handle = handle
        self.config = config
        self.enclave = RemoteEnclave(handle)

    def get(self, key: bytes) -> bytes:
        return self._handle._call("get", key)

    def put(self, key: bytes, value: bytes) -> None:
        self._handle._call("put", [(key, value)])

    def delete(self, key: bytes) -> None:
        self._handle._call("delete", key)

    def load(self, pairs) -> None:
        self._handle._call("load", pairs)

    def keys(self):
        return iter(self._handle._call("keys"))

    def __len__(self) -> int:
        return self._handle._call("len")

    def retarget_tenant_quotas(self, quotas) -> None:
        """Re-partition the remote enclave's cache quotas live (§16); once
        it has, this handle's config carries the new map, as
        ``AriaStore.retarget_tenant_quotas`` leaves its own."""
        quotas = dict(quotas) if quotas else None
        self._handle._call("retarget_quotas", quotas)
        self.config.tenant_quotas = quotas


class RemoteEnclave:
    """Enclave facade: platform constants and the meter mirror."""

    def __init__(self, handle: RemoteShardHandle):
        self._handle = handle
        #: Built as :class:`~repro.cluster.shard.Shard` builds its own.
        self.platform = SgxPlatform(epc_bytes=handle.epc_bytes)

    @property
    def meter(self) -> CycleMeter:
        return self._handle.meter


#: The name ``perfbench/tracing.py`` times the hop's flush endpoint by.
RemoteServer = RemoteShardHandle
