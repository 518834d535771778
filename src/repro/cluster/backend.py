"""The ``ShardBackend`` seam: who actually hosts a shard's enclave.

Everything above a shard — :class:`~repro.cluster.coordinator
.ClusterCoordinator`, :class:`~repro.cluster.replication.ReplicaGroup`,
the balancer, health monitor, elastic engine and stats — talks to one
typed contract, :class:`~repro.cluster.shard
.ShardHandle` (``shard_id``, ``store``, ``server.flush_batch``, ``meter``,
balancer marks, ``stats``, every optional member declared with a default).
This module is its factory side, with three interchangeable implementations:

* :class:`InlineBackend` — the original behaviour: the enclave simulation
  lives in the caller's process (zero-copy, deterministic, the default
  for tests and single-machine benchmarks);
* :class:`~repro.cluster.procbackend.ProcessBackend` — each shard/replica
  enclave runs in its own ``multiprocessing`` worker behind a message
  pipe; batch requests, key-migration and re-sync traffic serialize over
  it, so the untrusted front-end work genuinely parallelizes across
  cores and a ``kill`` is a real ``SIGKILL``;
* :class:`~repro.cluster.sockbackend.SocketBackend` — enclaves live in
  shard-host processes reachable only over TCP, behind an attested,
  AEAD-framed session per handle; the distributed deployment shape,
  with network partitions as a first-class failure mode.

Backends are *factories*: they build shard handles but never route
requests, so the coordinator stays backend-agnostic.  Metering is
backend-invariant by construction — the same enclave code runs either
way, only the transport differs — which is what lets the equivalence
tests assert byte-identical responses and identical simulated cycles.

Selection order for :func:`resolve_backend`: an explicit argument (name
or instance) beats the ``ARIA_CLUSTER_BACKEND`` environment variable
(how the test suite re-runs the cluster suites on every backend), which
beats ``inline``.
"""

from __future__ import annotations

import abc
import os
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    from repro.cluster.shard import EnclaveSpec, ShardHandle

#: Environment override consulted when no backend is passed explicitly.
BACKEND_ENV_VAR = "ARIA_CLUSTER_BACKEND"

BACKEND_NAMES = ("inline", "process", "socket")


class ShardBackend(abc.ABC):
    """Factory for :class:`~repro.cluster.shard.ShardHandle` instances."""

    name: str = "abstract"

    @abc.abstractmethod
    def create(self, spec: "EnclaveSpec") -> "ShardHandle":
        """Build the enclave ``spec`` describes and return its handle.

        Backends that host the enclave elsewhere ship ``spec`` itself to
        the far side, which calls ``spec.build()`` — the enclave is built
        identically wherever it lives.
        """

    def enter_stage(self, shard_id: str, subject, stage: str) -> None:
        """A live migration of ``shard_id`` entered ``stage``; ``subject``
        is that shard's handle (None before an add has built it)."""

    def close(self, timeout: float = 5.0) -> None:
        """Release whatever the backend holds (worker processes, pipes)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


class InlineBackend(ShardBackend):
    """Shards in the caller's process — the original zero-copy behaviour."""

    name = "inline"

    def create(self, spec: "EnclaveSpec") -> "ShardHandle":
        return spec.build()


BackendSpec = Union[None, str, ShardBackend]


def resolve_backend(backend: BackendSpec = None) -> ShardBackend:
    """Turn a backend name/instance/None into a ready :class:`ShardBackend`."""
    if backend is None:
        backend = os.environ.get(BACKEND_ENV_VAR) or "inline"
    if isinstance(backend, ShardBackend):
        return backend
    if backend not in BACKEND_NAMES:
        from repro.errors import UnknownBackendError

        raise UnknownBackendError(
            f"unknown shard backend {backend!r}; choose from {BACKEND_NAMES}"
        )
    if backend == "inline":
        return InlineBackend()
    if backend == "socket":
        from repro.cluster.sockbackend import SocketBackend

        return SocketBackend()
    from repro.cluster.procbackend import ProcessBackend

    return ProcessBackend()
