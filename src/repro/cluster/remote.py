"""Transport-agnostic plumbing for shards whose enclave lives elsewhere.

The :class:`~repro.cluster.procbackend.ProcessBackend` (enclave in a
``multiprocessing`` worker behind a pipe) and the
:class:`~repro.cluster.sockbackend.SocketBackend` (enclave in a shard-host
process behind an attested TCP session) speak the *same* RPC vocabulary:
pickled ``(cmd, args)`` requests answered by ``(tag, payload, meter_dict)``
triples, where every reply piggybacks a full absolute
:meth:`~repro.sgx.meter.CycleMeter.snapshot` of the remote enclave's
meter.  This module holds everything both sides share:

* what the far side says about an enclave — :func:`spawn_reply` (an
  :class:`~repro.cluster.shard.EnclaveSpec` in, the real
  :class:`~repro.cluster.shard.Shard` plus its ``ready`` info dict out),
  :func:`rpc_reply` (one command through :func:`dispatch_shard_rpc`, the
  enclave-side command table) and :func:`encode_reply`, all producing the
  one reply triple;
* :class:`RemoteShardHandle` — the parent-side base class implementing
  the Shard duck-type contract (``store``/``server``/``meter``, balancer
  marks, ``stats`` with a post-mortem cache) on top of two abstract
  transport hooks, ``_send`` and ``_recv``, with :meth:`~RemoteShardHandle
  ._settle` turning a reply triple back into a payload or a raise;
* the proxies — :class:`RemoteServer` (``flush_batch`` plus the
  pipelined ``flush_submit``/``flush_collect`` split the coordinator
  uses, valid because both transports are FIFO per shard),
  :class:`RemoteStore` (the trusted path: migrations and re-syncs),
  :class:`RemoteEnclave` and :class:`RemoteMeter` (the absolute-snapshot
  mirror that keeps metering backend-invariant to the bit).

Keeping this in one place is what makes the equivalence tests meaningful:
a new transport only decides *how bytes move*, never what the RPCs mean
or how cycles are accounted.
"""

from __future__ import annotations

import os
import pickle
from collections import Counter
from typing import Optional, Tuple

from repro.errors import AriaError, ShardCrashedError
from repro.sgx.costs import SgxPlatform
from repro.sgx.meter import CycleMeter, MeterSnapshot

#: How long a single RPC may go unanswered before the remote enclave is
#: presumed hung and treated as crashed (CI job timeouts are the outer net).
DEFAULT_RPC_TIMEOUT = 120.0

DEFAULT_CLOSE_TIMEOUT = 5.0


# ---------------------------------------------------------------------------
# The enclave side: one vocabulary for every transport
# ---------------------------------------------------------------------------


def reply_triple(tag: str, payload, shard=None) -> tuple:
    """The reply triple; every one piggybacks the enclave's absolute
    meter snapshot (None only when no enclave exists yet)."""
    meter = None if shard is None else shard.meter.snapshot().to_dict()
    return (tag, payload, meter)


def ready_reply(shard, **host_info) -> tuple:
    """The ``ready`` triple: what a handle needs to mirror this enclave."""
    enclave = shard.store.enclave
    info = {
        "shard_id": shard.shard_id,
        "epc_bytes": shard.epc_bytes,
        "pid": os.getpid(),
        "cpu_hz": enclave.platform.cpu_hz,
        "encryption_key": enclave.keys.encryption_key,
        "mac_key": enclave.keys.mac_key,
        "config": shard.store.config,
    }
    info.update(host_info)
    return reply_triple("ready", info, shard)


def spawn_reply(spec, **host_info) -> Tuple[Optional[object], tuple]:
    """Build the enclave ``spec`` describes: ``(shard, ready triple)``.

    A build failure comes back as ``(None, err triple)`` so the transport
    can surface it to the parent instead of dying silently.
    """
    try:
        shard = spec.build()
    except BaseException as exc:
        return None, reply_triple("err", exc)
    return shard, ready_reply(shard, **host_info)


def rpc_reply(shard, cmd: str, args: tuple) -> tuple:
    """Run one RPC against the real Shard; ``ok``/``err`` triple out.

    ``shutdown`` and ``kill`` are lifecycle, not store commands: they are
    acknowledged here and acted on by the transport that owns the enclave.
    """
    if cmd in ("shutdown", "kill"):
        return reply_triple("ok", None, shard)
    try:
        return reply_triple("ok", dispatch_shard_rpc(shard, cmd, args), shard)
    except BaseException as exc:
        return reply_triple("err", exc, shard)


def encode_reply(reply: tuple) -> bytes:
    try:
        return pickle.dumps(reply)
    except Exception:
        # Unpicklable payload (an exotic exception, typically): degrade to
        # a typed, picklable error rather than wedging the stream.
        tag, payload, meter_dict = reply
        return pickle.dumps((
            "err", AriaError(f"unpicklable {tag} payload: {payload!r}"),
            meter_dict))


def dispatch_shard_rpc(shard, cmd: str, args: tuple):
    """Execute one RPC against the real Shard, wherever it lives."""
    store = shard.store
    if cmd == "flush":
        (requests,) = args
        return list(shard.server.flush_batch(requests))
    if cmd == "get":
        return store.get(args[0])
    if cmd == "put":
        return store.put(args[0], args[1])
    if cmd == "delete":
        return store.delete(args[0])
    if cmd == "load":
        return store.load(args[0])
    if cmd == "keys":
        return list(store.keys())
    if cmd == "len":
        return len(store)
    if cmd == "contains":
        return args[0] in store
    if cmd == "stats":
        return shard.stats()
    if cmd == "sync":
        return None  # the reply's piggybacked meter is the whole point
    if cmd == "retarget_quotas":
        return store.retarget_tenant_quotas(args[0])
    if cmd == "plant_corruption":
        from repro.cluster.faults import plant_corruption

        return plant_corruption(store, args[0])
    if cmd == "corrupt_in_place":
        from repro.attacks.scenarios import corrupt_record_in_place

        return corrupt_record_in_place(store, args[0])
    raise ValueError(f"unknown shard RPC {cmd!r}")


# ---------------------------------------------------------------------------
# The parent side: handle base class and its proxies
# ---------------------------------------------------------------------------


class RemoteShardHandle:
    """Shard-duck-typed handle for an enclave reachable only by RPC.

    Subclasses own the transport: they implement ``_send(cmd, args)`` and
    ``_recv(timeout)`` (which must pass every reply triple through
    :meth:`_settle` and raise :class:`~repro.errors.ShardCrashedError`
    once the far side is gone), plus lifecycle (``close``, optionally
    ``kill``).  After the transport delivers the remote's ``ready`` info
    dict, they call :meth:`_attach` to wire up the proxies.
    """

    def __init__(self, shard_id: str):
        self.shard_id = shard_id
        self.crashed = False
        self.closed = False
        self.ops_routed = 0
        self._load_mark = 0.0
        self._pending = 0  # pipelined flushes submitted but not collected
        self._stats_cache: Optional[dict] = None
        self._meter = RemoteMeter(self)
        self._info: dict = {}
        self.epc_bytes = 0

    def _attach(self, info: dict) -> None:
        """Record the remote's ``ready`` info and build the proxies."""
        self._info = info
        self.epc_bytes = info["epc_bytes"]
        self._store = RemoteStore(self)
        self._server = RemoteServer(self)

    # -- transport hooks (subclass responsibility) --------------------------------

    def _send(self, cmd: str, args: tuple = ()) -> None:
        raise NotImplementedError

    def _recv(self, timeout: float = DEFAULT_RPC_TIMEOUT):
        raise NotImplementedError

    def _absorb_meter(self, meter_dict) -> None:
        if meter_dict is not None:
            self._meter.absorb(meter_dict)

    def _settle(self, reply: tuple):
        """Fold a reply triple's meter in; return its payload or raise."""
        tag, payload, meter_dict = reply
        self._absorb_meter(meter_dict)
        if tag == "err":
            if isinstance(payload, BaseException):
                raise payload
            raise AriaError(str(payload))  # pragma: no cover - degraded path
        return payload

    def _call(self, cmd: str, args: tuple = ()):
        if self._pending:
            raise RuntimeError(
                f"shard {self.shard_id} has {self._pending} uncollected "
                f"flushes; collect them before issuing {cmd!r}"
            )
        self._send(cmd, args)
        return self._recv()

    # -- Shard duck-typing --------------------------------------------------------

    @property
    def store(self) -> "RemoteStore":
        return self._store

    @property
    def server(self) -> "RemoteServer":
        return self._server

    @property
    def meter(self) -> "RemoteMeter":
        return self._meter

    def load_since_mark(self) -> float:
        return self.meter.cycles - self._load_mark

    def mark_load(self) -> None:
        self._load_mark = self.meter.cycles

    def stats(self) -> dict:
        if self.crashed or self.closed or getattr(self, "partitioned", False):
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
        return self._call("plant_corruption", (key,))


class RemoteServer:
    """The handle's ``server``: flush_batch plus the pipelined split pair."""

    def __init__(self, handle: RemoteShardHandle):
        self._handle = handle

    def flush_batch(self, requests) -> list:
        return self._handle._call("flush", (list(requests),))

    def flush_submit(self, requests) -> int:
        """Ship a batch without waiting; returns a collection ticket.

        Submissions to one shard are answered in FIFO order (both the
        pipe and the TCP session preserve ordering), so tickets are just
        the in-flight depth at submission time.
        """
        handle = self._handle
        handle._send("flush", (list(requests),))
        handle._pending += 1
        return handle._pending

    def flush_collect(self, ticket: int,
                      timeout: float = DEFAULT_RPC_TIMEOUT) -> list:
        """Collect one submitted flush, optionally under a tighter deadline.

        ``timeout`` lets the coordinator derive a per-shard RPC deadline
        from a request's remaining budget; exceeding it raises
        :class:`~repro.errors.ShardCrashedError` (hung => presumed dead),
        which the overload layer's breaker then counts as a failure.  Note
        that a timed-out collect desynchronizes the FIFO ticket stream —
        the shard is treated as lost, never resumed mid-stream.
        """
        handle = self._handle
        try:
            return handle._recv(timeout)
        finally:
            handle._pending = max(0, handle._pending - 1)


class RemoteStore:
    """Store proxy: the trusted path (migration, re-sync) over the RPC."""

    def __init__(self, handle: RemoteShardHandle):
        self._handle = handle
        self._enclave = RemoteEnclave(handle)

    def get(self, key: bytes) -> bytes:
        return self._handle._call("get", (key,))

    def put(self, key: bytes, value: bytes) -> None:
        self._handle._call("put", (key, value))

    def delete(self, key: bytes) -> None:
        self._handle._call("delete", (key,))

    def load(self, pairs) -> None:
        self._handle._call("load", (list(pairs),))

    def keys(self):
        return iter(self._handle._call("keys"))

    def __len__(self) -> int:
        return self._handle._call("len")

    def __contains__(self, key: bytes) -> bool:
        return self._handle._call("contains", (key,))

    def corrupt_record_in_place(self, key: bytes) -> None:
        """Attack-surface hook: tamper a record inside the remote host's
        untrusted memory (see ``repro.attacks.scenarios``)."""
        self._handle._call("corrupt_in_place", (key,))

    def retarget_tenant_quotas(self, quotas) -> None:
        """Re-partition the remote enclave's cache quotas live (§16)."""
        self._handle._call("retarget_quotas",
                           (dict(quotas) if quotas else None,))

    @property
    def config(self):
        return self._handle._info["config"]

    @property
    def enclave(self) -> "RemoteEnclave":
        return self._enclave


class RemoteEnclave:
    """Enclave facade: platform constants, key material, the meter mirror."""

    def __init__(self, handle: RemoteShardHandle):
        self._handle = handle
        self._platform: Optional[SgxPlatform] = None

    @property
    def platform(self) -> SgxPlatform:
        if self._platform is None:
            self._platform = SgxPlatform(
                epc_bytes=self._handle.epc_bytes,
                cpu_hz=self._handle._info["cpu_hz"],
            )
        return self._platform

    @property
    def keys(self):
        from repro.crypto.keys import KeyMaterial

        return KeyMaterial(
            encryption_key=self._handle._info["encryption_key"],
            mac_key=self._handle._info["mac_key"],
        )

    @property
    def meter(self) -> "RemoteMeter":
        return self._handle._meter


class RemoteMeter:
    """Parent-side mirror of the remote enclave's :class:`CycleMeter`.

    Every RPC reply carries a full meter snapshot which replaces the
    local mirror wholesale (absolute state, so no float drift can
    accumulate over the transport); explicit reads issue a cheap ``sync``
    round-trip while the remote is reachable.  After a kill — or behind a
    partition — the mirror serves the last state the remote reported.
    """

    def __init__(self, handle: RemoteShardHandle):
        self._handle = handle
        self._mirror = CycleMeter()

    def absorb(self, meter_dict: dict) -> None:
        self._mirror.reset()
        self._mirror.merge(MeterSnapshot.from_dict(meter_dict))

    def _sync(self) -> None:
        handle = self._handle
        if handle.crashed or handle.closed or handle._pending \
                or getattr(handle, "partitioned", False):
            return
        try:
            handle._call("sync")
        except ShardCrashedError:
            pass  # serve the mirror as of the last successful reply

    @property
    def cycles(self) -> float:
        self._sync()
        return self._mirror.cycles

    @property
    def events(self) -> Counter:
        self._sync()
        return Counter(self._mirror.events)

    def snapshot(self) -> MeterSnapshot:
        self._sync()
        return self._mirror.snapshot()
