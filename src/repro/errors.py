"""Exception hierarchy for the Aria reproduction.

Every failure mode the paper discusses maps to a distinct exception so tests
and the attack suite can assert on the *kind* of detection that fired.
"""

from __future__ import annotations


class AriaError(Exception):
    """Base class for all errors raised by this library."""


class IntegrityError(AriaError):
    """A MAC comparison failed: data in untrusted memory was modified.

    Raised whenever a computed MAC does not match the stored MAC — for KV
    records, Merkle-tree nodes, or index connections (AdField mismatch).
    """


class ReplayError(IntegrityError):
    """A replay attack was detected.

    Stale-but-valid (data, counter, MAC) triples are caught by the Merkle
    tree over the encryption counters: the replayed counter no longer matches
    the MAC path up to the in-enclave root (or first cached ancestor).

    The wire layer raises the same alarm for replayed session frames: a v2
    frame whose sequence number does not advance past the last one seen
    (see :mod:`repro.cluster.session`) is a recorded-and-resent frame, even
    though its MAC verifies.
    """


class CounterReuseError(IntegrityError):
    """The counter-area bitmap says a 'free' counter is already in use.

    The paper (SectionV-C, counter area management) treats this as evidence of
    an attack on the untrusted free-counter circular buffer.
    """


class DeletionError(IntegrityError):
    """Unauthorized deletion detected.

    A key was not found in the index although the in-enclave entry/path count
    says it must exist (SectionV-C, index protection).
    """


class KeyNotFoundError(AriaError, KeyError):
    """A Get/Delete referenced a key that is not in the store."""


class CapacityError(AriaError):
    """A fixed-size resource (EPC budget, counter area, chunk) is exhausted."""


class AllocationError(AriaError):
    """The user-space heap allocator could not satisfy a request."""


class ConfigurationError(AriaError):
    """An AriaConfig combination is invalid (e.g. arity < 2)."""


class UnknownFaultKindError(ConfigurationError, ValueError):
    """A scheduled fault event named a fault kind that does not exist.

    A typo'd kind used to build an event that silently never fires; it is
    rejected at construction instead.  Inherits ``ValueError`` for callers
    that predate the typed :class:`AriaError` tree.
    """


class PlanRejectedError(ConfigurationError):
    """A proposed topology change violated a reconfiguration constraint.

    Raised by the :class:`~repro.cluster.elastic.ReconfigPlanner` when a
    proposed delta (shard add/remove, replication change, vnode moves)
    fails one of its cross-layer constraint models *before* anything is
    applied — the model-checked half of elastic scale-out.  ``constraint``
    names the violated model (``"epc_budget"``, ``"replication_floor"``,
    ``"durability_continuity"``, ``"tenant_quota"``, ``"migration_cost"``,
    or ``"topology"`` for structurally invalid deltas), so operators and
    tests can assert on *which* model refused, not just that one did.
    """

    def __init__(self, message: str, *, constraint: str = "topology"):
        super().__init__(message)
        #: The violated constraint model's name.
        self.constraint = constraint


class UnknownBackendError(ConfigurationError, ValueError):
    """A shard-backend name did not resolve to a registered backend.

    Inherits ``ValueError`` so pre-existing ``except ValueError`` handlers
    around :func:`repro.cluster.backend.resolve_backend` keep working.
    """


class InvalidWorkersError(ConfigurationError, ValueError):
    """A shard worker count (``workers=`` or ``ARIA_SHARD_WORKERS``) is
    not a positive integer.

    Inherits ``ValueError`` for the same reason as
    :class:`UnknownBackendError`: callers that predate the typed tree
    catch that around the cluster builders.
    """


class ShardCrashedError(AriaError):
    """The target enclave has been killed (fault injection / host crash).

    A crash is a *loss of the enclave*, not of untrusted memory: EPC
    contents and trust anchors are gone, and a restarted enclave comes back
    empty until it re-syncs from a live replica through the trusted path.
    """


class ShardUnreachableError(ShardCrashedError):
    """The shard's host is alive but unreachable (network partition).

    Distinct from a crash: the enclave, its keys and its state are
    presumed intact on the far side of the partition — frames are merely
    black-holed (or connects time out) until the link heals.  Inherits
    :class:`ShardCrashedError` so the replication layer's existing
    failover treats an unreachable replica exactly like a dead one for
    serving purposes; the health monitor, however, *reconnects* to a
    healed partition instead of rebuilding an empty enclave.
    """


class ReplicaUnavailableError(AriaError):
    """No live replica could serve the request (the whole group is down)."""


class OverloadedError(AriaError):
    """The server shed this request to protect itself (admission control).

    Overload shedding is a *policy* outcome, not a failure of the shed
    request: nothing was executed, nothing was lost, and the server is
    telling the client exactly when to come back via ``retry_after``
    (seconds).  Raised client-side when a response carries
    ``STATUS_OVERLOADED`` and the client's retry budget (or deadline) does
    not allow another attempt.
    """

    def __init__(self, message: str = "server overloaded",
                 *, retry_after: float = 0.0):
        super().__init__(message)
        #: Server hint: seconds to wait before retrying (0.0 = no hint).
        self.retry_after = float(retry_after)


class DeadlineExceededError(OverloadedError):
    """The caller's deadline budget ran out before the work could finish.

    Inherits :class:`OverloadedError` because a blown deadline is shed the
    same way server-side (``STATUS_OVERLOADED`` with a ``retry_after``
    hint), and client-side both mean "this attempt did not execute".
    Distinct type so callers can tell "the cluster refused" from "my own
    budget expired" — e.g. when a retry sleep would overrun the deadline.
    """


class ClusterTimeoutError(AriaError):
    """A cluster client timed out waiting for the server.

    Raised instead of the raw ``socket.timeout`` so callers can distinguish
    "the server hung" (retryable for idempotent reads) from protocol or
    integrity failures (never blindly retryable).
    """


class ProtocolError(AriaError, ValueError):
    """A malformed wire frame (attacker-supplied bytes are never trusted).

    Inherits ``ValueError`` for backward compatibility with callers that
    predate the unified :class:`AriaError` tree.
    """


class BatchRejectedError(ProtocolError):
    """The server rejected the whole batch; none of its requests executed."""


class HandshakeError(AriaError):
    """The attested session handshake failed.

    Covers every way the v2 handshake can go wrong: truncated or malformed
    hellos, a quote that fails attestation verification, a quote bound to a
    different handshake transcript, an enclave measurement that does not
    match the client's expectation, and any answer to a hello that is not
    a server hello, plaintext included.
    """


class TamperedFrameError(IntegrityError):
    """A v2 wire frame failed AEAD authentication.

    The ciphertext, the frame header, or the tag was modified in flight;
    nothing of the payload is released to the caller.
    """


class StaleSessionError(ReplayError):
    """A frame arrived under a session id that is not live on this channel.

    Recording an encrypted frame and replaying it on a later connection
    (after a rekey) presents a valid-looking frame under a retired session
    id; it is rejected before any decryption output is produced.
    """


class ClusterConnectionError(AriaError, ConnectionError):
    """The cluster connection was closed or could not be established.

    The typed replacement for bare ``ConnectionError``/``OSError`` escaping
    :class:`~repro.cluster.netserver.ClusterClient`; inherits
    ``ConnectionError`` so existing ``except ConnectionError`` handlers keep
    working.
    """


class DurabilityError(AriaError):
    """The sealed persistence layer failed: commit, verification, recovery.

    Root of the durability branch (:mod:`repro.persist`).  A commit-time
    ``DurabilityError`` means the batch was *not* made durable and must not
    be acknowledged; a recovery-time one means the on-disk state could not
    be turned back into a partition.
    """


class RollbackDetectedError(DurabilityError, IntegrityError):
    """Recovered state is not fresh: the monotonic-counter binding failed.

    The classic SGX persistence attack — replaying a stale-but-validly
    sealed snapshot/log pair, truncating the log past an epoch boundary, or
    resetting the counter service itself — leaves the recovered epoch out
    of step with the non-volatile monotonic counter.  Inherits
    :class:`IntegrityError` because rollback *is* an integrity violation on
    the time axis, so existing ``except IntegrityError`` alarm handlers
    catch it too.
    """


class TornLogError(DurabilityError):
    """The write-ahead log ends in a partial record (crash mid-append).

    Raised only when recovery is asked to be strict about the tail;
    by default the torn suffix — which was never acknowledged, because
    acks happen only after a complete group commit — is discarded and
    recovery proceeds to the last complete record.
    """


class RecoveryError(DurabilityError):
    """Whole-partition recovery could not complete (no usable sealed state)."""


class DiskIOError(DurabilityError, OSError):
    """The untrusted storage backend failed an I/O operation mid-commit.

    Inherits ``OSError`` so callers treating storage failures generically
    keep working; the batch being committed is not acknowledged.
    """
