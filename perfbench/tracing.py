"""Timing wrappers installed around each layer's public callables.

Nothing under ``src/`` knows about spans yet, so the traced run wraps the
program from outside: :meth:`Tracer.install` replaces the callables listed
in :data:`LAYERS` (class attributes, and module functions in every
``repro`` module that imported them by name) with closures that time the
call, and :meth:`Tracer.uninstall` puts the originals back.  Install
*before* building the system: objects capture bound methods at
construction (``fetch_counter=self.counters.fetch``).

A span's *self time* is its duration minus the part its child spans cover.
Each thread keeps its own span stack, so the front-door server thread's
spans are not mistaken for children of the client's.  Six million spans a
run do not fit in memory at Python object sizes, so the wrappers fold each
span into per-layer (self time, calls) accumulators as it closes instead
of keeping it.

Blocking socket reads inside a span are charged to the pseudo-layer
:data:`IO_WAIT` rather than to the layer that waits: while the client
waits, another thread or process does the work, and counting both would
make the layers sum to more than the call.
"""

from __future__ import annotations

import functools
import importlib
import os
import socket
import sys
import threading
import time
import types
from typing import Dict, List, Tuple

#: layer -> "module:Class.method" / "module:function" targets.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "cluster.netserver": (
        "repro.cluster.netserver:ClusterClient.request_batch",
        "repro.cluster.netserver:ClusterClient.send_frame",
        "repro.cluster.netserver:ClusterClient.recv_frame",
    ),
    "cluster.session": (
        "repro.cluster.session:SecureSession.seal",
        "repro.cluster.session:SecureSession.open",
    ),
    "server.protocol": (
        "repro.server.protocol:encode_batch",
        "repro.server.protocol:decode_batch",
        "repro.server.protocol:encode_batch_responses",
        "repro.server.protocol:decode_batch_responses",
    ),
    "cluster.coordinator": (
        "repro.cluster.coordinator:ClusterCoordinator.execute",
    ),
    "cluster.ring": (
        "repro.cluster.ring:HashRing.route",
    ),
    "cluster.remote": (
        "repro.cluster.remote:RemoteServer.flush_batch",
        "repro.cluster.remote:RemoteServer.flush_submit",
        "repro.cluster.remote:RemoteServer.flush_collect",
    ),
    "cluster.replication": (
        "repro.cluster.replication:ReplicaGroup.flush_batch",
    ),
    "persist": (
        "repro.persist.durability:PartitionDurability.commit",
        "repro.persist.disk:FileDisk.append",
        "repro.persist.disk:FileDisk.write_blob",
    ),
    "server.server": (
        "repro.server.server:AriaServer.flush_batch",
        "repro.server.server:AriaServer.handle_batch",
    ),
    "core.store": (
        "repro.core.store:AriaStore.get",
        "repro.core.store:AriaStore.put",
        "repro.core.store:AriaStore.delete",
    ),
    "index": (
        "repro.index.hashtable:AriaHashIndex.get",
        "repro.index.hashtable:AriaHashIndex.put",
        "repro.index.hashtable:AriaHashIndex.delete",
    ),
    "core.counters": (
        "repro.core.counters:CounterManager.fetch",
        "repro.core.counters:CounterManager.free",
        "repro.core.counters:CounterManager.read_counter",
        "repro.core.counters:CounterManager.increment_counter",
    ),
    "cache": (
        "repro.cache.secure_cache:SecureCache.read_counter",
        "repro.cache.secure_cache:SecureCache.write_counter",
        "repro.cache.secure_cache:SecureCache.increment_counter",
    ),
    "merkle": (
        "repro.merkle.tree:MerkleTree.read_node",
        "repro.merkle.tree:MerkleTree.write_node",
        "repro.merkle.tree:MerkleTree.node_mac",
        "repro.merkle.tree:MerkleTree.verify_node_uncached",
    ),
    "core.record": (
        "repro.core.record:RecordCodec.seal",
        "repro.core.record:RecordCodec.open",
        "repro.core.record:RecordCodec.parse_header",
        "repro.core.record:RecordCodec.reseal_ad_field",
    ),
    "crypto": (
        "repro.crypto.backend:FastCryptoBackend.encrypt",
        "repro.crypto.backend:FastCryptoBackend.decrypt",
        "repro.crypto.backend:FastCryptoBackend.mac",
    ),
    "sgx.enclave": tuple(
        f"repro.sgx.enclave:Enclave.{name}" for name in (
            "read_untrusted", "write_untrusted", "epc_touch", "epc_copy_in",
            "mac", "mac_verify", "encrypt", "decrypt", "hash_key", "compare",
            "ecall")),
    "sgx.memory": (
        "repro.sgx.memory:UntrustedMemory.read",
        "repro.sgx.memory:UntrustedMemory.write",
    ),
    "sgx.meter": (
        "repro.sgx.meter:CycleMeter.charge",
        "repro.sgx.meter:CycleMeter.count",
        "repro.sgx.meter:CycleMeter.charge_event",
    ),
    "alloc": (
        "repro.alloc.heap:HeapAllocator.alloc",
        "repro.alloc.heap:HeapAllocator.free",
    ),
}

#: Pseudo-layer for blocking socket reads made inside a span.
IO_WAIT = "io_wait"
_CALIBRATION = "calibration"


class _ThreadState:
    __slots__ = ("stack", "self_ns", "calls")

    def __init__(self, n_slots: int):
        self.stack: List[int] = []
        self.self_ns = [0] * n_slots
        self.calls = [0] * n_slots


class Tracer:
    """Installs, accumulates and removes the timing wrappers."""

    def __init__(self):
        self.layers = list(LAYERS)
        self._slots = {name: i for i, name in enumerate(
            self.layers + [IO_WAIT, _CALIBRATION])}
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._undo: list = []
        #: Targets that no longer resolve to a plain function (renamed or
        #: moved by a later change); their layer reads low, so say so.
        self.missing: List[str] = []

    # -- wrappers -------------------------------------------------------------

    def _new_state(self) -> _ThreadState:
        state = _ThreadState(len(self._slots))
        with self._lock:
            self._states.append(state)
        self._local.state = state
        return state

    def _wrap(self, fn, slot: int, *, only_nested: bool = False):
        local = self._local
        new_state = self._new_state
        now = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            try:
                state = local.state
            except AttributeError:
                state = new_state()
            stack = state.stack
            if only_nested and not stack:
                return fn(*args, **kwargs)
            stack.append(0)
            started = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - started
                state.self_ns[slot] += elapsed - stack.pop()
                state.calls[slot] += 1
                if stack:
                    stack[-1] += elapsed

        return traced

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for layer, targets in LAYERS.items():
            slot = self._slots[layer]
            for target in targets:
                if not self._patch(target, slot):
                    self.missing.append(target)
        # socket.socket inherits recv from the C type; shadow it on the
        # Python subclass and drop the shadow again on uninstall.
        socket.socket.recv = self._wrap(socket.socket.recv,
                                        self._slots[IO_WAIT],
                                        only_nested=True)
        self._undo.append((delattr, socket.socket, "recv"))
        # A forked shard host must run the program unwrapped: its spans
        # could never be read back, and would slow the host down.
        os.register_at_fork(after_in_child=self.uninstall)

    def _patch(self, target: str, slot: int) -> bool:
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return False
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            original = vars(owner).get(attr) if owner is not None else None
            if not isinstance(original, types.FunctionType):
                return False
            setattr(owner, attr, self._wrap(original, slot))
            self._undo.append((setattr, owner, attr, original))
            return True
        original = vars(module).get(attr)
        if not isinstance(original, types.FunctionType):
            return False
        wrapper = self._wrap(original, slot)
        for name, other in list(sys.modules.items()):
            # Whoever did ``from module import function`` holds its own
            # reference; patch every repro module that does.
            if other is not None and name.split(".")[0] == "repro" \
                    and vars(other).get(attr) is original:
                setattr(other, attr, wrapper)
                self._undo.append((setattr, other, attr, original))
        return True

    def uninstall(self) -> None:
        while self._undo:
            action, *args = self._undo.pop()
            action(*args)

    # -- accumulators ---------------------------------------------------------

    def reset(self) -> None:
        """Zero every accumulator (call between spans, never inside one)."""
        for state in self._states:
            state.self_ns = [0] * len(self._slots)
            state.calls = [0] * len(self._slots)

    def save(self) -> list:
        return [(state, list(state.self_ns), list(state.calls))
                for state in self._states]

    def restore(self, saved: list) -> None:
        """Forget spans recorded since :meth:`save` (bookkeeping RPCs)."""
        for state, self_ns, calls in saved:
            state.self_ns = self_ns
            state.calls = calls

    def totals(self) -> Dict[str, Tuple[int, int]]:
        """layer -> (self ns, calls), summed over threads."""
        out = {}
        for layer in self.layers + [IO_WAIT]:
            slot = self._slots[layer]
            out[layer] = (sum(s.self_ns[slot] for s in self._states),
                          sum(s.calls[slot] for s in self._states))
        return out

    def span_overhead_ns(self, n_calls: int = 20_000) -> float:
        """What one wrapper adds to a call, measured on a wrapped no-op."""

        def noop():
            return None

        wrapped = self._wrap(noop, self._slots[_CALIBRATION])
        now = time.perf_counter_ns
        best = None
        for _ in range(5):
            started = now()
            for _ in range(n_calls):
                noop()
            plain = now() - started
            started = now()
            for _ in range(n_calls):
                wrapped()
            cost = (now() - started - plain) / n_calls
            best = cost if best is None else min(best, cost)
        return best
