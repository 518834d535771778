"""Routes decoded requests to shards and batch-flushes per shard.

The coordinator is the *untrusted* front half of the serving layer: it
decodes frames once, consults the :class:`~repro.cluster.ring.HashRing`,
and accumulates a per-shard buffer.  When a shard's buffer reaches
``batch_window`` (or the caller drains), the whole buffer crosses that
shard's enclave boundary through the existing ECALL-amortized path
(:meth:`repro.server.server.AriaServer.flush_batch`) — one ECALL per
flush, not per request, which is the whole point (Section II-A: the
boundary crossing dominates; Harnik et al. measure the same on real
hardware).

Ordering contract: responses are returned positionally (response *i*
answers request *i*), and because a key always routes to exactly one shard
whose buffer preserves arrival order, per-key operation order is preserved
even though different shards flush independently.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Dict, Iterable, List, Optional

from repro.cluster.overload import (
    CircuitBreaker,
    Deadline,
    OverloadConfig,
    TokenBucket,
)
from repro.cluster.tenancy import (
    TenancyConfig,
    TenantRegistry,
    owner_token_of,
)
from repro.cluster.ring import DEFAULT_VNODES, HashRing, VnodeSpec
from repro.cluster.shard import ShardHandle
from repro.cluster.stats import ClusterStats
from repro.errors import (
    AriaError,
    ConfigurationError,
    IntegrityError,
    KeyNotFoundError,
    OverloadedError,
    ReplicaUnavailableError,
)
from repro.server import protocol
from repro.server.protocol import (
    OP_GET,
    OP_HEALTH,
    Request,
    Response,
    Status,
)

DEFAULT_BATCH_WINDOW = 32


class _Flight:
    """One shard's batch between its submit and its collect.

    Every handle answers ``flush_submit``/``flush_send``/``flush_collect``:
    an in-process enclave runs the batch at submit, a remote one queues it
    and runs it in its worker or host once ``flush_send`` ships the call's
    windows, so independent shards' batches overlap and are collected
    after the whole stream is out.  A flight the overload layer shed
    carries its ``flushed`` responses instead of a ticket.
    """

    __slots__ = ("shard_id", "seqs", "flushed", "error", "ticket",
                 "latency")

    def __init__(self, shard_id, seqs, *, flushed=None, error=None,
                 ticket=None, latency=None):
        self.shard_id = shard_id
        self.seqs = seqs
        self.flushed = flushed
        self.error = error
        self.ticket = ticket
        #: Overload bookkeeping: the laps this shard held the coordinator
        #: (see :meth:`_OverloadState.lap`); None where the flight feeds no
        #: breaker sample (unarmed, or shed and fallback flights, which
        #: never touched the primary).
        self.latency = latency


class _OverloadState:
    """The coordinator's overload machinery: breakers, brownout, counters.

    Built by :class:`ClusterCoordinator` from its ``overload=`` config;
    all decisions are untrusted parent-side work and never charge a shard
    meter, so a cluster with the layer *enabled but unstressed* stays
    bit-identical to one without it on every simulated column.
    """

    def __init__(self, config: OverloadConfig,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.clock = clock
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.deadline_shed = 0
        self.breaker_shed = 0
        self.brownout_shed = 0
        self.breaker_read_routes = 0
        self.brownout_engagements = 0
        self._brownout_since: Optional[float] = None
        self._brownout_total = 0.0
        self._mark = 0.0

    def lap(self) -> float:
        """Seconds since the running call's previous clock read.

        A breaker sample is the laps during which *that* shard held the
        coordinator: the lap its submit closes plus the lap its collect
        closes, and never the time other shards ran between the two.  A
        remote shard's windows ride one message, so for them the collect
        part is every lap the shard held since ``flush_send``: the ship's
        own lap and each of its collects so far.  Every read is a lap
        boundary, so a flight costs two reads and a shipped message one
        more — the count an injected clock shared with the tenant buckets
        sees.
        """
        now = self.clock()
        elapsed = now - self._mark
        self._mark = now
        return elapsed

    def breaker_for(self, shard_id: str) -> CircuitBreaker:
        breaker = self.breakers.get(shard_id)
        if breaker is None:
            breaker = self.config.make_breaker(self.clock)
            self.breakers[shard_id] = breaker
        return breaker

    def update_brownout(self, recovering: bool) -> bool:
        """Track brownout engage/disengage; returns whether it is active."""
        active = recovering and self.config.brownout == "auto"
        now = self._mark = self.clock()
        if active and self._brownout_since is None:
            self._brownout_since = now
            self.brownout_engagements += 1
        elif not active and self._brownout_since is not None:
            self._brownout_total += now - self._brownout_since
            self._brownout_since = None
        return self._brownout_since is not None

    def brownout_seconds(self) -> float:
        total = self._brownout_total
        if self._brownout_since is not None:
            total += self.clock() - self._brownout_since
        return total

    def shed_response(self, retry_after: float, reason: bytes) -> Response:
        return protocol.overloaded(retry_after or self.config.retry_after,
                                   reason)

    def stats(self) -> dict:
        shed = self.deadline_shed + self.breaker_shed + self.brownout_shed
        return {
            "shed": shed,
            "deadline_shed": self.deadline_shed,
            "breaker_shed": self.breaker_shed,
            "brownout_shed": self.brownout_shed,
            "breaker_read_routes": self.breaker_read_routes,
            "breaker_trips": sum(b.trips for b in self.breakers.values()),
            "breakers_open": sum(
                1 for b in self.breakers.values()
                if b.state.value != "closed"),
            "brownout_engagements": self.brownout_engagements,
            "brownout_seconds": self.brownout_seconds(),
            "breakers": {sid: b.stats()
                         for sid, b in sorted(self.breakers.items())},
        }


class _TenancyState:
    """The coordinator's tenancy machinery: per-tenant buckets + namespaces.

    Built by :class:`ClusterCoordinator` from its ``tenancy=`` config.  Like
    :class:`_OverloadState`, every decision here is untrusted parent-side
    work that never charges a shard meter, so an armed-but-idle tenancy
    layer (no tenant traffic) stays bit-identical to an unarmed cluster on
    every simulated column.  The injectable ``clock`` feeds every
    per-tenant :class:`~repro.cluster.overload.TokenBucket`, which is what
    keeps bucket sheds deterministic across the inline/process/socket
    backends in the T1 experiment.
    """

    def __init__(self, config: TenancyConfig,
                 clock: Callable[[], float] = time.monotonic):
        self.config = config
        self.clock = clock
        self.registry = TenantRegistry(config.tenants)
        self.buckets: Dict[str, TokenBucket] = {}
        self.prefixes: Dict[str, bytes] = {}
        for tenant in config.tenants:
            self.prefixes[tenant.tenant_id] = tenant.prefix
            if tenant.rate is not None:
                self.buckets[tenant.tenant_id] = TokenBucket(
                    tenant.rate, tenant.burst, clock)
        self.admitted: Dict[str, int] = {t.tenant_id: 0
                                         for t in config.tenants}
        self.shed: Dict[str, int] = {t.tenant_id: 0 for t in config.tenants}
        #: Requests shed for want of a known principal: an unknown tenant
        #: id, or no tenant at all on a key inside a tenant's namespace.
        self.unknown_shed = 0
        #: Roster edits applied live through :meth:`repartition`.
        self.repartitions = 0

    def repartition(self, config: TenancyConfig) -> None:
        """Adopt a new roster in place (ARCHITECTURE §16's follow-on).

        Surviving tenants keep their admission history *and* their bucket
        deficit: a tenant whose rate changed gets a new bucket primed with
        its old fill **fraction**, so a roster edit cannot be used to
        instantly refill a drained whale.  Departed tenants' buckets,
        prefixes and counters are dropped; new tenants start fresh.
        """
        old_buckets = self.buckets
        self.config = config
        self.registry = TenantRegistry(config.tenants)
        self.buckets = {}
        self.prefixes = {}
        for tenant in config.tenants:
            self.prefixes[tenant.tenant_id] = tenant.prefix
            if tenant.rate is None:
                continue
            bucket = TokenBucket(tenant.rate, tenant.burst, self.clock)
            old = old_buckets.get(tenant.tenant_id)
            if old is not None:
                fraction = max(0.0, min(1.0, old.available / old.burst))
                bucket._tokens = fraction * bucket.burst
            self.buckets[tenant.tenant_id] = bucket
        self.admitted = {t.tenant_id: self.admitted.get(t.tenant_id, 0)
                         for t in config.tenants}
        self.shed = {t.tenant_id: self.shed.get(t.tenant_id, 0)
                     for t in config.tenants}
        self.repartitions += 1

    def try_admit(self, tenant: str) -> Optional[Response]:
        """One request's admission verdict: ``None`` or a shed response.

        The shed's ``retry_after`` is *this tenant's* bucket refill time
        (``bucket.time_until(1.0)``), never a global gate's countdown — a
        whale's backoff hint must price the whale's own deficit.
        """
        if tenant not in self.prefixes:
            self.unknown_shed += 1
            return protocol.overloaded(0.0, b"unknown tenant")
        bucket = self.buckets.get(tenant)
        if bucket is not None and not bucket.try_acquire(1.0):
            self.shed[tenant] += 1
            return protocol.overloaded(
                bucket.time_until(1.0),
                b"tenant rate limit: " + tenant.encode())
        self.admitted[tenant] += 1
        return None

    def refuse_anonymous(self, key: bytes) -> Optional[Response]:
        """A shed response if an anonymous request's ``key`` lies in a
        registered tenant's namespace, else ``None``.

        A principal is only what a handshake authenticated: without one,
        a raw key spelling ``tenant_prefix(id) + name`` would read and
        write that tenant's data past its bucket and its fence.
        """
        token = owner_token_of(key)
        if token is None or self.registry.tenant_for_token(token) is None:
            return None
        self.unknown_shed += 1
        return protocol.overloaded(0.0, b"tenant namespace, no principal")

    def prefix_request(self, tenant: str, request: Request) -> Request:
        """Relocate a request into its tenant's key namespace."""
        return Request(request.opcode,
                       self.prefixes[tenant] + request.key,
                       request.value)

    def retry_after(self, tenant: str) -> float:
        """The tenant-correct backoff hint (0.0 for unlimited tenants)."""
        bucket = self.buckets.get(tenant)
        return bucket.time_until(1.0) if bucket is not None else 0.0

    def stats(self) -> dict:
        return {
            "tenants": sorted(self.prefixes),
            "admitted": {t: n for t, n in sorted(self.admitted.items())},
            "shed": {t: n for t, n in sorted(self.shed.items())},
            "unknown_shed": self.unknown_shed,
            "repartitions": self.repartitions,
        }


class ClusterCoordinator:
    """The sharded serving layer's routing + batching brain."""

    def __init__(
        self,
        shards: List[ShardHandle],
        *,
        ring: Optional[HashRing] = None,
        vnodes: VnodeSpec = DEFAULT_VNODES,
        batch_window: int = DEFAULT_BATCH_WINDOW,
        overload: Optional[OverloadConfig] = None,
        tenancy: Optional[TenancyConfig] = None,
        clock: Callable[[], float] = time.monotonic,
        backend=None,
    ):
        if not shards:
            raise ValueError("a cluster needs at least one shard")
        if batch_window < 1:
            raise ValueError("batch_window must be >= 1")
        self.shards: Dict[str, ShardHandle] = {
            s.shard_id: s for s in shards}
        if len(self.shards) != len(shards):
            raise ValueError("duplicate shard ids")
        self.ring = ring or HashRing(self.shards, vnodes=vnodes)
        if set(self.ring.shards()) != set(self.shards):
            raise ValueError("ring membership does not match the shard set")
        self.batch_window = batch_window
        #: Consulted after every executed batch when set: the hot-shard
        #: balancer and the replica health monitor (which also drives
        #: brownout).  Plain attributes; assign one to arm it.
        self.balancer = None
        self.health_monitor = None
        #: The ShardBackend that built these shards, when the builder
        #: passes it along; :meth:`close` releases it (worker processes,
        #: spawned shard hosts) after the shards themselves.
        self.backend = backend
        self.ops_routed = 0
        #: Whole-flush failures converted to per-request error responses.
        self.flush_failures = 0
        #: Overload layer (breakers, deadline shedding, brownout) and
        #: tenancy layer (per-tenant buckets + key namespaces), armed from
        #: their configs; ``clock`` feeds breakers and buckets alike
        #: (injectable, so tests and the T1 experiment are deterministic).
        #: Shard-side cache partitioning is not armed here: quotas travel
        #: in the shards' AriaConfig (``tenant_quotas``, see
        #: ``ClusterConfig.build``), because remote backends rebuild their
        #: stores from the spawn spec.
        self.overload = _OverloadState(overload, clock) \
            if overload is not None else None
        self.tenancy = _TenancyState(tenancy, clock) \
            if tenancy is not None else None
        #: Elastic reconfiguration engine (``ClusterConfig.build`` sets it).
        self.elastic = None
        #: What cold-start recovery replayed (durable clusters).
        self.durability_restored: dict = {}

    # -- live topology (driven by the elastic engine at cutover) ------------------

    def admit_shard(self, shard, *, ring: HashRing) -> None:
        """Cutover for an add: the shard and the new ring land atomically.

        ``ring`` must be the target ring (old membership plus this shard);
        admitting a shard the ring doesn't route to — or swapping a ring
        that routes to shards the coordinator doesn't hold — would strand
        keys, so membership is revalidated here like in ``__init__``.
        """
        if shard.shard_id in self.shards:
            raise ValueError(f"shard {shard.shard_id!r} already admitted")
        if set(ring.shards()) != set(self.shards) | {shard.shard_id}:
            raise ValueError("ring membership does not match the shard set "
                             "after admission")
        self.shards[shard.shard_id] = shard
        self.ring = ring

    def retire_shard(self, shard_id: str, *, ring: HashRing) -> ShardHandle:
        """Cutover for a remove: unroute and detach the shard atomically.

        Returns the detached shard — still open, still holding its copy
        of the migrated keys — so the caller (the elastic engine's RETIRE
        stage) can release its enclaves *after* the swap is visible.
        """
        if shard_id not in self.shards:
            raise ValueError(f"unknown shard {shard_id!r}")
        if set(ring.shards()) != set(self.shards) - {shard_id}:
            raise ValueError("ring membership does not match the shard set "
                             "after retirement")
        shard = self.shards.pop(shard_id)
        self.ring = ring
        if self.overload is not None:
            self.overload.breakers.pop(shard_id, None)
        return shard

    def on_topology_change(self) -> None:
        """Re-partition roster-derived state after a membership change.

        Pushes the live tenant quota map to every member shard so cache
        partitions agree across old and new members (§16's follow-on:
        no stale static fractions after topology changes).
        """
        if self.tenancy is not None:
            quotas = self.tenancy.config.cache_quota_map()
            self._push_tenant_quotas(quotas or None)

    def retarget_tenancy(self, config: TenancyConfig) -> "_TenancyState":
        """Apply a roster change live (§16's follow-on, the roster half).

        Admission buckets re-partition in place — surviving tenants keep
        their deficit, departed tenants drop, new tenants start fresh —
        and the new cache quota map is pushed to every shard enclave
        through the trusted path, replacing the build-time fractions.
        """
        if self.tenancy is None:
            raise ConfigurationError(
                "retarget_tenancy needs a coordinator built with tenancy "
                "armed: the front door reads the roster once, at "
                "construction")
        self.tenancy.repartition(config)
        self._push_tenant_quotas(config.cache_quota_map() or None)
        return self.tenancy

    def _push_tenant_quotas(self, quotas) -> int:
        """Retarget every live enclave's cache quotas; returns the count.

        Best-effort on purpose: a crashed or partitioned replica misses
        the push but rebuilds from its (stale) spawn spec, and the next
        :meth:`on_topology_change` or roster edit re-pushes.
        """
        pushed = 0
        for shard in self.shard_list():
            replicas = shard.replicas
            targets = ([r.shard for r in replicas]
                       if replicas is not None else [shard])
            for target in targets:
                try:
                    target.store.retarget_tenant_quotas(quotas)
                    pushed += 1
                except AriaError:
                    continue
        return pushed

    def shard_for(self, key: bytes) -> ShardHandle:
        return self.shards[self.ring.route(key)]

    def shard_list(self) -> List[ShardHandle]:
        return [self.shards[shard_id] for shard_id in sorted(self.shards)]

    # -- the batched request path -------------------------------------------------

    def execute(self, requests: Iterable[Request],
                *, deadline: Optional[Deadline] = None,
                tenant: Optional[str] = None) -> List[Response]:
        """Route, batch, flush; returns responses positionally.

        Buffers per shard and flushes a shard the moment its buffer fills,
        so a stream larger than ``batch_window * n_shards`` stays at a
        bounded memory footprint instead of materializing per-shard
        sub-streams.  Every window is submitted at dispatch (an inline
        shard runs it there, a remote one queues it), each touched shard's
        ``flush_send`` ships its queued windows in one message once the
        call is routed, and the windows are collected in dispatch order; a
        shard's windows run in dispatch order, each its own ECALL,
        preserving per-key ordering.

        With the overload layer armed (``overload=`` at construction),
        ``deadline`` is the request frame's remaining budget: buckets that
        would dispatch after it expires are shed with
        ``Status.OVERLOADED`` instead of queueing dead work, and remote
        collects are bounded by the remaining budget plus one RPC grace.
        Brownout (health monitor mid-recovery) sheds writes up front, and
        each shard's circuit breaker gates its dispatches.

        With the tenancy layer armed (``tenancy=`` at construction) and a
        ``tenant`` presented, each request first passes that tenant's own
        token bucket — sheds are typed ``Status.OVERLOADED`` with the
        *tenant's* bucket refill time as the hint, charged to the
        offending principal — and admitted requests are relocated into the
        tenant's key namespace before the ring routes them.  Anonymous
        requests (``tenant=None``) bypass both, byte-identically to a
        pre-tenancy cluster — except that one whose key lies inside a
        registered tenant's namespace is shed the same typed way, never
        routed (:meth:`_TenancyState.refuse_anonymous`).
        """
        requests = list(requests)
        responses: List[Optional[Response]] = [None] * len(requests)
        pending: Dict[str, List[int]] = {sid: [] for sid in self.shards}
        inflight: List[_Flight] = []
        over = self.overload
        ten = self.tenancy
        brownout = False
        if over is not None:
            # Also the call's first lap boundary (see _OverloadState.lap).
            monitor = self.health_monitor
            brownout = over.update_brownout(
                monitor is not None and monitor.recovering())
        route = self.ring.route
        batch_window = self.batch_window
        # Every dispatched flight is settled before an exception leaves:
        # a remote shard's reply left unread would answer the next call.
        error: Optional[Exception] = None
        try:
            for seq, request in enumerate(requests):
                if request.opcode == OP_HEALTH:
                    # Answered at the front door, never routed to an enclave.
                    responses[seq] = self.health_response()
                    continue
                if ten is not None:
                    if tenant is None:
                        shed = ten.refuse_anonymous(request.key)
                    else:
                        shed = ten.try_admit(tenant)
                        if shed is None:
                            request = ten.prefix_request(tenant, request)
                            requests[seq] = request  # dispatch reads these
                    if shed is not None:
                        responses[seq] = shed
                        continue
                if brownout and request.opcode != OP_GET:
                    over.brownout_shed += 1
                    responses[seq] = over.shed_response(
                        0.0, b"brownout: recovery in progress")
                    continue
                shard_id = route(request.key)
                bucket = pending[shard_id]
                bucket.append(seq)
                if len(bucket) >= batch_window:
                    inflight.append(
                        self._dispatch(shard_id, bucket, requests, deadline))
                    pending[shard_id] = []
            for shard_id, bucket in pending.items():
                if bucket:
                    inflight.append(
                        self._dispatch(shard_id, bucket, requests, deadline))
        except Exception as exc:
            error = exc
        # The call is fully routed: each shard that queued windows ships
        # them in one message before the first collect waits.  Armed, the
        # ship is a lap of its own, the first of what the shard holds.
        held: Dict[str, float] = {}
        for flight in inflight:
            send = self.shards[flight.shard_id].flush_send
            if send is not None and flight.ticket is not None \
                    and flight.shard_id not in held:
                try:
                    send()
                except Exception as exc:
                    error = error or exc
                held[flight.shard_id] = 0.0 if over is None else over.lap()
        for flight in inflight:
            try:
                self._collect(flight, responses, deadline, held)
            except Exception as exc:
                error = error or exc
        if error is not None:
            raise error
        if self.elastic is not None:
            # After responses settle: acked writes into moving ranges are
            # dual-applied and one bounded migration batch advances.
            self.elastic.after_execute(requests, responses)
        self.ops_routed += len(requests)
        if self.balancer is not None:
            self.balancer.observe(len(requests))
        if self.health_monitor is not None:
            self.health_monitor.observe(len(requests))
        return responses  # type: ignore[return-value]  # all slots filled

    def _dispatch(self, shard_id: str, seqs: List[int],
                  requests: List[Request],
                  deadline: Optional[Deadline] = None) -> _Flight:
        """Submit one shard its batch.

        Overload gates run first: an expired deadline sheds the bucket
        (work that cannot finish in time must not queue behind work that
        can), and an open breaker sheds writes while routing reads to a
        live secondary where the shard is a replica group.
        """
        over = self.overload
        if over is not None:
            if deadline is not None and deadline.expired():
                over.deadline_shed += len(seqs)
                shed = over.shed_response(0.0, b"deadline expired")
                return _Flight(shard_id, seqs, flushed=[shed] * len(seqs))
            breaker = over.breaker_for(shard_id)
            if not breaker.allow():
                return self._breaker_shed(shard_id, seqs, requests,
                                          breaker, over)
        shard = self.shards[shard_id]
        shard.ops_routed += len(seqs)
        ticket = error = None
        try:
            ticket = shard.flush_submit(list(map(requests.__getitem__, seqs)))
        except AriaError as exc:
            error = exc
        # Timed from the call's previous read: the submit (an inline
        # flush; for a durable group, the whole apply + stage) and the
        # routing since, which is the coordinator's own and small.
        return _Flight(shard_id, seqs, error=error, ticket=ticket,
                       latency=None if over is None else over.lap())

    def _breaker_shed(self, shard_id: str, seqs: List[int],
                      requests: List[Request], breaker: CircuitBreaker,
                      over: "_OverloadState") -> _Flight:
        """The open-breaker path: reads to a secondary, writes shed.

        A replica group overrides :meth:`~repro.cluster.shard.ShardHandle
        .flush_reads_fallback`; reads go there (a different enclave than
        the slow primary, so no breaker sample is taken).  Everything else
        — writes always, reads on a handle with no secondary (``None``) —
        is shed with the breaker's own countdown as the retry_after hint.
        """
        shard = self.shards[shard_id]
        shed = over.shed_response(breaker.retry_after(),
                                  b"breaker open: " + shard_id.encode())
        flushed: List[Response] = [shed] * len(seqs)
        read_pos = [i for i, s in enumerate(seqs)
                    if requests[s].opcode == OP_GET]
        if read_pos:
            try:
                served = shard.flush_reads_fallback(
                    [requests[seqs[i]] for i in read_pos])
            except AriaError:
                served = None
            if served is not None:
                for i, response in zip(read_pos, served):
                    flushed[i] = response
                over.breaker_read_routes += len(read_pos)
                shard.ops_routed += len(read_pos)
        over.breaker_shed += sum(
            1 for r in flushed if r.status == Status.OVERLOADED)
        return _Flight(shard_id, seqs, flushed=flushed)

    def _collect(self, flight: _Flight,
                 responses: List[Optional[Response]],
                 deadline: Optional[Deadline],
                 held: Dict[str, float]) -> None:
        """Settle one flight; a failing shard costs error responses, not
        the batch: every request it owned gets ``Status.UNAVAILABLE`` and
        the other shards' response slots are untouched.

        ``held`` maps each shard whose windows went out in one message to
        the laps it has held the coordinator since the ship."""
        over = self.overload
        flushed = flight.flushed
        if flight.error is None and flushed is None:
            timeout = None
            if over is not None and deadline is not None:
                # The per-shard RPC deadline: remaining budget plus one
                # grace period.  Exceeding it treats the shard as hung
                # (ShardCrashedError), which the breaker then counts.
                timeout = deadline.remaining() + over.config.rpc_grace
            try:
                flushed = self.shards[flight.shard_id].flush_collect(
                    flight.ticket, timeout=timeout)
            except AriaError as exc:
                flight.error = exc
        if flight.latency is not None:
            lap = over.lap()
            if flight.shard_id in held:
                # A shipped window's answer came with its message's: its
                # wait is all its shard held since the ship, never the
                # ~0 pop of an outcome an earlier collect already read.
                lap = held[flight.shard_id] = held[flight.shard_id] + lap
            flight.latency += lap
            over.breaker_for(flight.shard_id).record(
                flight.error is None, flight.latency)
        if flight.error is not None:
            self.flush_failures += 1
            error = Response(
                Status.UNAVAILABLE,
                f"shard {flight.shard_id} failed: "
                f"{type(flight.error).__name__}".encode(),
            )
            for seq in flight.seqs:
                responses[seq] = error
            return
        if len(flushed) != len(flight.seqs) \
                and protocol.is_batch_rejection(flushed):
            # The shard refused the whole batch (a cap violation in the
            # pre-decoded path mirrors decode_batch's rejection contract):
            # none of its requests executed, every slot learns that.  A
            # plain zip would silently leave slots unanswered.
            for seq in flight.seqs:
                responses[seq] = Response(Status.BAD_REQUEST)
            return
        for seq, response in zip(flight.seqs, flushed):
            responses[seq] = response

    # -- convenience single-request API (one request through execute) ----------

    def get(self, key: bytes) -> bytes:
        return self._call(protocol.get(key)).value

    def put(self, key: bytes, value: bytes) -> None:
        self._call(protocol.put(key, value))

    def delete(self, key: bytes) -> None:
        self._call(protocol.delete(key))

    def _call(self, request: Request) -> Response:
        """Run one request through :meth:`execute`, so admission, breakers,
        the balancer and health observation, and a migration's dual-apply
        all see it; a status other than OK raises its typed error."""
        [response] = self.execute([request])
        status = response.status
        if status == Status.NOT_FOUND:
            raise KeyNotFoundError(request.key)
        if status == Status.OVERLOADED:
            raise OverloadedError(
                protocol.overload_reason(response).decode("utf-8", "replace"),
                retry_after=protocol.retry_after_hint(response))
        if status == Status.INTEGRITY_FAILURE:
            raise IntegrityError(response.value.decode())
        if status == Status.UNAVAILABLE:
            raise ReplicaUnavailableError(response.value.decode())
        if status != Status.OK:
            raise AriaError(f"request failed with status {int(status)}")
        return response

    # -- health -------------------------------------------------------------------

    def health_response(self) -> Response:
        """The OpCode.HEALTH reply: a JSON cluster summary (no enclave touched).

        Per shard: ``"up"``/``"down"`` for plain shards (a plain shard is
        down only when crashed by fault injection), or a replica-state map
        for replica groups.
        """
        shards: Dict[str, object] = {}
        up = 0
        for shard in self.shard_list():
            replicas = shard.replicas
            if replicas is not None:
                states = {r.replica_id: r.state.value for r in replicas}
                shards[shard.shard_id] = states
                up += any(state == "up" for state in states.values())
            else:
                alive = not shard.crashed
                shards[shard.shard_id] = "up" if alive else "down"
                up += alive
        summary = {
            "shards": shards,
            "n_shards": len(self.shards),
            "n_serving": up,
            "ops_routed": self.ops_routed,
            "flush_failures": self.flush_failures,
        }
        batchexec = self._batchexec_health()
        if batchexec:
            summary["batchexec"] = batchexec
        summary.update(self.layer_stats())
        return Response(Status.OK,
                        json.dumps(summary, sort_keys=True).encode())

    def layer_stats(self) -> Dict[str, dict]:
        """``{"overload"|"tenancy"|"elastic": counters}`` for each armed
        layer, read now: the one source ``OP_HEALTH`` and
        :meth:`ClusterStats.report` both show."""
        layers = {}
        if self.overload is not None:
            layers["overload"] = self.overload.stats()
        if self.tenancy is not None:
            tenancy = self.tenancy.stats()
            denials = self._tenancy_health()
            if denials:
                tenancy["cache_evict_denials"] = denials
            layers["tenancy"] = tenancy
        if self.elastic is not None:
            layers["elastic"] = self.elastic.stats()
        return layers

    def _batchexec_health(self) -> Dict[str, dict]:
        """Per-shard conflict/abort/fallback counters for ``OP_HEALTH``.

        Read off the meters' ``batchexec_*`` events, which piggyback on
        every RPC reply as absolute snapshots: no RPC at all (a remote
        handle's meter is its local mirror), and a crashed or partitioned
        shard serves its last-known mirror instead of failing the probe.
        Empty (and omitted from the summary) when no shard runs the
        parallel engine.
        """
        counters: Dict[str, dict] = {}
        for shard in self.shard_list():
            try:
                events = shard.meter.events
            except AriaError:
                continue
            if not events["batchexec_batch"]:
                continue
            counters[shard.shard_id] = {
                "batches": events["batchexec_batch"],
                "conflicts": (events["batchexec_conflict_raw"]
                              + events["batchexec_conflict_waw"]
                              + events["batchexec_conflict_war"]),
                "deferred": events["batchexec_deferred"],
                "fallback_rounds": events["batchexec_fallback_round"],
            }
        return counters

    def _tenancy_health(self) -> Dict[str, int]:
        """Per-tenant Secure Cache eviction-denial counters for OP_HEALTH.

        Read off the shard meters' ``tenant_evict_denied[:token]`` events,
        which piggyback on every RPC reply as absolute snapshots (the same
        free ride :meth:`_batchexec_health` uses — no RPC).  Owner tokens
        map back to tenant ids through the registry; an unknown token (a
        tenant since removed from the roster) reports under its raw token.
        """
        ten = self.tenancy
        counters: Dict[str, int] = {}
        prefix = "tenant_evict_denied:"
        for shard in self.shard_list():
            try:
                events = shard.meter.events
            except AriaError:
                continue
            for name, count in list(events.items()):
                if not name.startswith(prefix) or not count:
                    continue
                token = name[len(prefix):]
                label = ten.registry.tenant_for_token(token) or token
                counters[label] = counters.get(label, 0) + count
        return counters

    # -- bulk load (unmetered, mirrors AriaStore.load) ----------------------------

    def load(self, pairs: Iterable[tuple],
             *, tenant: Optional[str] = None) -> None:
        """Partition a dataset by the ring and bulk-load each shard.

        With ``tenant`` (and tenancy armed), keys are relocated into the
        tenant's namespace first — the load-phase mirror of
        :meth:`execute`'s prefixing, so loaded and served keys agree.
        Refused while a migration is in flight: only the elastic engine
        moves keys then, and a key loaded past its copy batch would be
        lost at cutover.
        """
        if self.elastic is not None and self.elastic.active:
            raise AriaError(
                f"load refused: a migration is in flight (stage "
                f"{self.elastic.stage}); finish it first")
        if tenant is not None:
            if self.tenancy is None or tenant not in self.tenancy.prefixes:
                raise AriaError(f"unknown tenant {tenant!r} for load")
            prefix = self.tenancy.prefixes[tenant]
            pairs = ((prefix + key, value) for key, value in pairs)
        per_shard: Dict[str, list] = {sid: [] for sid in self.shards}
        for key, value in pairs:
            per_shard[self.ring.route(key)].append((key, value))
        for shard_id, shard_pairs in per_shard.items():
            if shard_pairs:
                self.shards[shard_id].store.load(shard_pairs)

    # -- reporting ----------------------------------------------------------------

    def total_keys(self) -> int:
        return sum(len(s.store) for s in self.shards.values())

    def stats(self) -> ClusterStats:
        """A fresh delta window over every shard (see ClusterStats)."""
        return ClusterStats(self.shard_list(), layers=self.layer_stats)

    # -- lifecycle ----------------------------------------------------------------

    def close(self, timeout: float = 5.0) -> None:
        """Release every shard's backing resources.

        Inline shards are a no-op; process-backed shards get a graceful
        shutdown (join → terminate → kill, each bounded by ``timeout``),
        so callers — and pytest runs — never leak worker processes.
        Idempotent; the coordinator must not be used afterwards.
        """
        for shard in self.shard_list():
            shard.close(timeout)
        if self.backend is not None:
            self.backend.close(timeout)
