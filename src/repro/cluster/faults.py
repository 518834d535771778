"""Deterministic fault injection at the seams the adversary owns.

A :class:`FaultPlan` is a replayable schedule of :class:`FaultEvent`\\ s;
three wrappers play it where each kind attacks (ARCHITECTURE §9):
:class:`FaultyBackend` builds :class:`FaultyShard` handles (shard and
migration-stage kinds), :class:`FaultyDisk` wraps the untrusted disk
(durability kinds) and :class:`FaultyDoor` is the front door with an
on-path adversary (net and wire kinds).  No production module consumes a
plan.
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.cluster.backend import BackendSpec, ShardBackend, resolve_backend
from repro.cluster.elastic import MIGRATION_STAGES
from repro.cluster.netserver import BackgroundServer, ClusterNetServer
from repro.cluster.shard import ShardHandle
from repro.errors import (
    DiskIOError,
    ShardCrashedError,
    ShardUnreachableError,
    UnknownFaultKindError,
)
from repro.persist.disk import UntrustedDisk

KILL = "kill"
CORRUPT = "corrupt"
# The host is alive but unreachable: frames black-hole and connects time
# out until the partition heals.  Distinct from KILL — the enclave and
# its state survive on the far side, so recovery is a reconnect +
# re-handshake + delta re-sync, never a rebuild.
PARTITION = "partition"
# The enclave is alive and correct but *stalled*: every flush takes
# ``seconds`` of extra wall-clock (EPC thrashing, a paging storm, a noisy
# neighbour).  Distinct from KILL (nothing died) and PARTITION (frames
# are answered, just late) — the failure mode circuit breakers exist
# for, because a slow shard stalls whole batches without tripping any
# crash or integrity alarm.
SLOW = "slow"
DELAY = "delay"
DROP = "drop"
CLOSE = "close"
# Wire attacks (an on-path adversary, played by the server itself so the
# schedule stays deterministic): flip a ciphertext bit in the outgoing
# frame, or resend a recorded frame.
TAMPER = "tamper"
REPLAY = "replay"
# Durability faults, played by FaultyDisk at a partition's commit attempts
# (and, for the attacker-strikes-during-downtime kinds, at recovery
# start).  ``at`` counts the partition's commit attempts.
TORN = "torn"            # append half a record, then "crash" the write
TRUNCATE = "truncate"    # cut the on-disk log in half
IO_ERROR = "io_error"    # the commit write fails before any byte lands
CAPTURE = "capture"      # attacker snapshots the whole untrusted disk
ROLLBACK = "rollback"    # attacker restores the captured disk state
CTR_RESET = "ctr_reset"  # attacker wipes the monotonic counter

#: The FaultPlan target the front door plays.
NET_TARGET = "net"

_SHARD_KINDS = {KILL, CORRUPT, PARTITION, SLOW}
_NET_KINDS = {DELAY, DROP, CLOSE, TAMPER, REPLAY}
_DUR_KINDS = {TORN, TRUNCATE, IO_ERROR, CAPTURE, ROLLBACK, CTR_RESET}

#: Net kinds that act on a sealed reply.
WIRE_KINDS = frozenset({TAMPER, REPLAY})

#: Kinds FaultyDisk plays.
DURABILITY_KINDS = frozenset(_DUR_KINDS)

#: Durability kinds safe inside a serving-phase chaos schedule: each is
#: detected at the next commit and repaired from live state, so the
#: zero-acked-write-loss invariant stays assertable.  ROLLBACK/CTR_RESET
#: belong in downtime scenarios where recovery must *reject* the state.
CHAOS_DUR_KINDS = (TORN, TRUNCATE, IO_ERROR)

#: Kinds the downtime attacker plays when a recovery starts.
_DOWNTIME_KINDS = (CAPTURE, ROLLBACK, CTR_RESET, TRUNCATE)

#: Stage ordinals for stage-addressed injection: an event scheduled ``at``
#: one of these fires when a migration *enters* that stage.
STAGE_ORDINALS = {name: i + 1 for i, name in enumerate(MIGRATION_STAGES)}


def dur_target(group_id: str) -> str:
    """The FaultPlan target addressing a partition's durability sidecar."""
    return f"{group_id}/dur"


def elastic_target(shard_id: str) -> str:
    """The FaultPlan target for stage-addressed migration faults.

    Events scheduled against this target (with ``at`` set to a
    :data:`STAGE_ORDINALS` value) are applied to the migration's subject
    shard — the new shard for an add, the leaving shard for a remove —
    when the migration enters that stage.
    """
    return f"{shard_id}/elastic"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is a per-target trigger point: for shard faults, the number of
    requests the target has flushed (restarts included); for net faults,
    the number of frames the door has served; for durability faults, the
    partition's commit attempts; for stage faults, a
    :data:`STAGE_ORDINALS` value.  Each event fires exactly once.
    """

    kind: str
    target: str
    at: int
    key: bytes = b""        # CORRUPT: record to tamper (b"" = first key)
    seconds: float = 0.0    # DELAY/SLOW: stall; PARTITION: heal window
    ops: int = 0            # SLOW: flushes to stall (0 = until heal())

    def __post_init__(self):
        if self.kind not in _SHARD_KINDS | _NET_KINDS | _DUR_KINDS:
            raise UnknownFaultKindError(
                f"unknown fault kind {self.kind!r}; an event that can "
                "never fire is a schedule bug, not a no-op"
            )
        if self.at < 0:
            raise ValueError("fault trigger point must be >= 0")


class FaultPlan:
    """An immutable schedule of faults plus the fired-state bookkeeping."""

    def __init__(self, events: Iterable[FaultEvent] = (), *, spec: str = ""):
        self._by_target: Dict[str, List[FaultEvent]] = {}
        known = _SHARD_KINDS | _NET_KINDS | _DUR_KINDS
        for event in sorted(events, key=lambda e: (e.at, e.kind)):
            if event.kind not in known:
                # FaultEvent validates at construction, but a duck-typed
                # stand-in (or a future kind removed from the sets) must
                # not slip into a schedule as a never-firing ghost.
                raise UnknownFaultKindError(
                    f"unknown fault kind {event.kind!r} in plan event "
                    f"for target {event.target!r}"
                )
            self._by_target.setdefault(event.target, []).append(event)
        self._fired: set = set()
        #: How this plan was built (chaos() records its full argument list)
        #: so a failing chaos run can name its schedule in the assertion.
        self.spec = spec

    # -- fluent construction ------------------------------------------------------

    def _add(self, event: FaultEvent) -> "FaultPlan":
        self._by_target.setdefault(event.target, []).append(event)
        self._by_target[event.target].sort(key=lambda e: (e.at, e.kind))
        return self

    def kill(self, target: str, at: int) -> "FaultPlan":
        return self._add(FaultEvent(KILL, target, at))

    def corrupt(self, target: str, at: int, key: bytes = b"") -> "FaultPlan":
        return self._add(FaultEvent(CORRUPT, target, at, key=key))

    def partition(self, target: str, at: int,
                  seconds: float = 0.0) -> "FaultPlan":
        """Cut the target's host off the network at the ``at``-th op.

        ``seconds`` is the heal window: reconnect attempts inside it fail
        like timed-out connects; 0 means the partition is healable as
        soon as the health monitor notices (transient blip).
        """
        return self._add(FaultEvent(PARTITION, target, at, seconds=seconds))

    def slow(self, target: str, at: int, seconds: float,
             ops: int = 0) -> "FaultPlan":
        """Stall every flush of ``target`` by ``seconds`` from the
        ``at``-th op on.  ``ops`` bounds how many flushes stall (0 = the
        stall persists until :meth:`FaultyShard.heal`)."""
        return self._add(FaultEvent(SLOW, target, at, seconds=seconds,
                                    ops=ops))

    def delay(self, at: int, seconds: float,
              target: str = NET_TARGET) -> "FaultPlan":
        return self._add(FaultEvent(DELAY, target, at, seconds=seconds))

    def drop(self, at: int, target: str = NET_TARGET) -> "FaultPlan":
        return self._add(FaultEvent(DROP, target, at))

    def close(self, at: int, target: str = NET_TARGET) -> "FaultPlan":
        return self._add(FaultEvent(CLOSE, target, at))

    def tamper(self, at: int, target: str = NET_TARGET) -> "FaultPlan":
        """Flip a bit of the ``at``-th served frame's payload in flight."""
        return self._add(FaultEvent(TAMPER, target, at))

    def replay(self, at: int, target: str = NET_TARGET) -> "FaultPlan":
        """Resend the previous wire frame after the ``at``-th one."""
        return self._add(FaultEvent(REPLAY, target, at))

    def torn(self, target: str, at: int) -> "FaultPlan":
        """Tear the ``at``-th commit's append: half the record, then crash."""
        return self._add(FaultEvent(TORN, target, at))

    def truncate(self, target: str, at: int) -> "FaultPlan":
        """Cut the partition's on-disk log in half at the ``at``-th commit."""
        return self._add(FaultEvent(TRUNCATE, target, at))

    def io_error(self, target: str, at: int) -> "FaultPlan":
        """Fail the ``at``-th commit's write before any byte lands."""
        return self._add(FaultEvent(IO_ERROR, target, at))

    def capture(self, target: str, at: int) -> "FaultPlan":
        """Attacker snapshots the untrusted disk at the ``at``-th commit."""
        return self._add(FaultEvent(CAPTURE, target, at))

    def rollback(self, target: str, at: int) -> "FaultPlan":
        """Attacker restores the captured disk state (stale-state replay)."""
        return self._add(FaultEvent(ROLLBACK, target, at))

    def ctr_reset(self, target: str, at: int) -> "FaultPlan":
        """Attacker wipes the partition's monotonic counter."""
        return self._add(FaultEvent(CTR_RESET, target, at))

    # -- consumption --------------------------------------------------------------

    def events_for(self, target: str) -> List[FaultEvent]:
        return list(self._by_target.get(target, ()))

    def pop_due(self, target: str, counter: int,
                kinds: Optional[Iterable[str]] = None) -> List[FaultEvent]:
        """Events for ``target`` with ``at <= counter`` not yet fired.

        ``kinds`` restricts which kinds may fire (and be consumed) at this
        call site: the front door pops TAMPER/REPLAY only when it seals a
        reply, so an event never burns itself at a point where it cannot
        act.
        """
        wanted = None if kinds is None else set(kinds)
        due = []
        for event in self._by_target.get(target, ()):
            if wanted is not None and event.kind not in wanted:
                continue
            if event.at <= counter and id(event) not in self._fired:
                self._fired.add(id(event))
                due.append(event)
        return due

    def fired(self) -> int:
        """How many of the plan's events have been consumed so far."""
        return len(self._fired)

    def __len__(self) -> int:
        return sum(len(v) for v in self._by_target.values())

    # -- reproducibility ----------------------------------------------------------

    def describe(self) -> str:
        """The plan, human-readably: spec line plus every event and its
        fired state.  Chaos tests put this in their assertion messages so a
        red CI run can be replayed locally without bisecting seeds."""
        lines = [self.spec or f"FaultPlan({len(self)} events)"]
        for target in sorted(self._by_target):
            for event in self._by_target[target]:
                fired = "fired" if id(event) in self._fired else "pending"
                extra = ""
                if event.key:
                    extra += f" key={event.key.hex()}"
                if event.seconds:
                    extra += f" seconds={event.seconds}"
                if event.ops:
                    extra += f" ops={event.ops}"
                lines.append(f"  {event.kind:>9} @ {event.at:<6} "
                             f"-> {target} [{fired}]{extra}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """A JSON-ready form (the CI fault-plan artifact on failure)."""
        return {
            "spec": self.spec,
            "fired": self.fired(),
            "events": [
                {
                    "kind": e.kind,
                    "target": e.target,
                    "at": e.at,
                    "key": e.key.hex(),
                    "seconds": e.seconds,
                    "ops": e.ops,
                    "fired": id(e) in self._fired,
                }
                for events in self._by_target.values() for e in events
            ],
        }

    # -- randomized-but-deterministic schedules -----------------------------------

    @classmethod
    def chaos(
        cls,
        targets: List[str],
        *,
        horizon: int,
        n_kills: int = 2,
        n_corrupts: int = 2,
        n_partitions: int = 0,
        n_slows: int = 0,
        slow_seconds: float = 0.02,
        slow_ops: int = 8,
        min_gap: int = 0,
        seed: int = 0,
        dur_targets: Optional[List[str]] = None,
        n_dur: int = 0,
        dur_horizon: Optional[int] = None,
    ) -> "FaultPlan":
        """A seeded random kill/corrupt schedule over ``targets``.

        Trigger points are drawn uniformly from ``[1, horizon)`` and then
        spaced at least ``min_gap`` ops apart *globally*, so a recovery
        pass (health check + re-sync) scheduled between faults gets a
        chance to run before the next one lands — the chaos test's
        "killing any *single* replica" regime rather than a simultaneous
        multi-kill.  Same (targets, horizon, counts, seed) → same plan.

        With ``dur_targets`` (each a :func:`dur_target` address) and
        ``n_dur`` > 0, the schedule also draws durability faults from
        :data:`CHAOS_DUR_KINDS` — torn appends, log truncation, commit I/O
        errors — with trigger points in ``[1, dur_horizon)`` counted in
        *commit attempts* (one per batch with acked writes, far fewer than
        ops; default ``max(2, horizon // 16)``).
        """
        if not targets:
            raise ValueError("chaos needs at least one target")
        rng = random.Random(seed)
        kinds = ([KILL] * n_kills + [CORRUPT] * n_corrupts
                 + [PARTITION] * n_partitions + [SLOW] * n_slows)
        rng.shuffle(kinds)
        points: List[int] = []
        at = 0
        for i, _ in enumerate(kinds):
            at = max(at + min_gap, rng.randrange(1, max(2, horizon)))
            points.append(at)
        events = [
            FaultEvent(kind, rng.choice(targets), at,
                       seconds=slow_seconds if kind == SLOW else 0.0,
                       ops=slow_ops if kind == SLOW else 0)
            for kind, at in zip(kinds, sorted(points))
        ]
        if dur_targets and n_dur:
            span = dur_horizon if dur_horizon is not None \
                else max(2, horizon // 16)
            for _ in range(n_dur):
                events.append(FaultEvent(
                    rng.choice(CHAOS_DUR_KINDS),
                    rng.choice(dur_targets),
                    rng.randrange(1, max(2, span)),
                ))
        spec = (f"FaultPlan.chaos(targets={targets!r}, horizon={horizon}, "
                f"n_kills={n_kills}, n_corrupts={n_corrupts}, "
                f"n_partitions={n_partitions}, n_slows={n_slows}, "
                f"min_gap={min_gap}, seed={seed}")
        if dur_targets and n_dur:
            spec += (f", dur_targets={dur_targets!r}, n_dur={n_dur}, "
                     f"dur_horizon={dur_horizon!r}")
        spec += ")"
        return cls(events, spec=spec)




# -- the backend seam: shard and stage kinds ------------------------------------


class FaultyShard(ShardHandle):
    """A handle wrapper that injects the plan's faults into its own path.

    A :class:`~repro.cluster.shard.ShardHandle` around any other (``inner``),
    so coordinators, replica groups, balancers and stats aggregation all
    work unchanged.  It is its own ``server``: every flush passes through
    :meth:`flush_batch`, which counts it and fires the faults due.
    Touching the ``store`` or flushing a crashed shard raises
    :class:`~repro.errors.ShardCrashedError` — dead enclaves don't answer.
    """

    def __init__(self, shard, plan: Optional[FaultPlan] = None):
        self.inner = shard
        self.plan = plan or FaultPlan()
        #: The target's requests ``flushed`` and handles ``built``.  A
        #: FaultyBackend shares one per target id across the handles it
        #: builds, so both survive the restart that replaces this one.
        self.counts = Counter(built=1)
        self.corruptions = 0
        self.partitions = 0
        self.reconnects = 0
        self.stalls = 0
        self._partitioned = False
        self._heal_at = 0.0
        self._stall_seconds = 0.0
        self._stall_ops_left: Optional[int] = None

    # -- fault application --------------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        if event.kind == KILL:
            self.kill()
        elif event.kind == CORRUPT:
            self.corrupt(event.key)
        elif event.kind == PARTITION:
            self.partition(event.seconds)
        elif event.kind == SLOW:
            self.stall(event.seconds, event.ops)
        else:  # pragma: no cover - plans are validated at construction
            raise ValueError(f"shard cannot apply fault {event.kind!r}")

    def kill(self) -> None:
        """Kill the enclave: every later touch raises ShardCrashedError.

        On a process-backed shard this is a real ``SIGKILL`` of the
        worker — the enclave, its keys and its EPC contents die with the
        OS process, not as a flag in the parent.  A restart replaces the
        whole handle (:meth:`~repro.cluster.replication.Replica.restart`).
        """
        self.crashed = True
        self.inner.kill()

    def corrupt(self, key: bytes = b"") -> None:
        """Flip a ciphertext bit of one record in untrusted memory.

        With no explicit ``key``, the first key the index yields is hit —
        deterministic for a given store history.  A corrupt on an empty
        (or crashed) shard is a no-op: there is nothing to tamper with.
        The plant runs wherever the enclave lives (see
        :func:`repro.attacks.scenarios.plant_corruption`), so inline and
        process shards meter the attacker's walk identically.
        """
        if self.plant_corruption(key):
            self.corruptions += 1

    # -- stalls -------------------------------------------------------------------

    def stall(self, seconds: float, ops: int = 0) -> None:
        """Make every flush take ``seconds`` of extra wall-clock.

        The enclave stays alive, correct, and metered exactly as before —
        only the *latency* of the parent-side flush changes, which is what
        makes SLOW invisible to crash/integrity alarms and the reason
        circuit breakers key on latency.  ``ops`` bounds how many flushes
        stall (0 = until :meth:`heal`).
        """
        if self.crashed:
            return
        self._stall_seconds = float(seconds)
        self._stall_ops_left = int(ops) if ops > 0 else None

    @property
    def stalled(self) -> bool:
        if self._stall_seconds <= 0.0:
            return False
        if self._stall_ops_left is not None and self._stall_ops_left <= 0:
            self._stall_seconds = 0.0
            self._stall_ops_left = None
            return False
        return True

    # -- partitions ---------------------------------------------------------------

    def partition(self, duration: float = 0.0) -> None:
        """Cut the shard off without killing it: frames black-hole.

        Socket-backed shards partition for real (the link is severed and
        the far-side enclave keeps its state); for inline/process shards
        the wrapper black-holes its own request path so the *failure
        signature* — :class:`~repro.errors.ShardUnreachableError`, enclave
        state intact — is identical across backends.  ``duration`` is the
        heal window: :meth:`reconnect` refuses until it has elapsed.
        """
        if self.crashed:
            return
        self.partitions += 1
        self.inner.partition(duration)
        if not self.inner.partitioned:  # no link of its own to sever
            self._partitioned = True
            self._heal_at = time.monotonic() + duration

    def heal(self) -> None:
        """Collapse the remaining heal window; the next reconnect succeeds.

        Also lifts any :meth:`stall`: a healed shard serves at full speed.
        """
        self._heal_at = 0.0
        self._stall_seconds = 0.0
        self._stall_ops_left = None
        self.inner.heal()

    def reconnect(self) -> bool:
        """Try to re-establish the link to a partitioned shard.

        Returns ``True`` when the shard is reachable again — state intact,
        no restart or re-sync-from-scratch needed.  Returns ``False``
        while the heal window is still open, or when the far side turned
        out to be dead (in which case ``crashed`` is now set and the
        normal restart path applies).
        """
        if self.crashed:
            return False
        if self._partitioned:  # the wrapper's own black hole
            if time.monotonic() < self._heal_at:
                return False
            self._partitioned = False
            self.reconnects += 1
            return True
        ok = self.inner.reconnect()
        if ok:
            self.reconnects += 1
        elif self.inner.crashed:
            self.crashed = True
        return ok

    @property
    def partitioned(self) -> bool:
        return self._partitioned or self.inner.partitioned

    # -- the ShardHandle members ---------------------------------------------------

    @property
    def shard_id(self) -> str:
        return self.inner.shard_id

    @property
    def store(self):
        if self.crashed:
            raise ShardCrashedError(
                f"shard {self.shard_id} is down (enclave killed)"
            )
        if self.partitioned:
            raise ShardUnreachableError(
                f"shard {self.shard_id} is unreachable (partitioned)"
            )
        return self.inner.store

    @property
    def server(self) -> "FaultyShard":
        return self  # the wrapper interposes on every flush itself

    def flush_batch(self, requests) -> list:
        """The request path: count, fire the due faults, then flush."""
        requests = list(requests)
        target = self.shard_id
        self.counts["flushed"] += len(requests)
        for event in self.plan.pop_due(target, self.counts["flushed"]):
            self.apply(event)
        if self.crashed:
            raise ShardCrashedError(
                f"shard {target} is down (enclave killed)")
        if self.partitioned:
            raise ShardUnreachableError(
                f"shard {target} is unreachable (partitioned)")
        # A SLOW stall happens here, in the parent-side request path, so
        # the failure signature — the flush call takes `seconds` longer,
        # nothing raises — is identical across inline/process/socket
        # backends, just like PARTITION black-holing.
        if self.stalled:
            self.stalls += 1
            if self._stall_ops_left is not None:
                self._stall_ops_left -= 1
            time.sleep(self._stall_seconds)
        return self.inner.server.flush_batch(requests)

    def plant_corruption(self, key: bytes = b"") -> bool:
        """Corrupt one record where the inner handle's enclave lives; a
        killed enclave has nothing left to tamper with."""
        return not self.crashed and self.inner.plant_corruption(key)

    @property
    def epc_bytes(self) -> int:
        return self.inner.epc_bytes

    @property
    def meter(self):
        return self.inner.meter

    @property
    def ops_routed(self) -> int:
        return self.inner.ops_routed

    @ops_routed.setter
    def ops_routed(self, value: int) -> None:
        self.inner.ops_routed = value

    def load_since_mark(self) -> float:
        return self.inner.load_since_mark()

    def mark_load(self) -> None:
        self.inner.mark_load()

    def stats(self) -> dict:
        row = self.inner.stats()
        row["crashed"] = self.crashed
        row["restarts"] = self.counts["built"] - 1
        row["partitions"] = self.partitions
        row["reconnects"] = self.reconnects
        row["stalls"] = self.stalls
        return row

    def close(self, timeout: float = 5.0) -> None:
        self.inner.close(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self.crashed else "up"
        return f"FaultyShard({self.shard_id!r}, {state})"


class FaultyBackend(ShardBackend):
    """A :class:`~repro.cluster.backend.ShardBackend` whose every handle is
    a :class:`FaultyShard` playing ``plan``.

    Pass it wherever a backend instance is accepted
    (``ClusterConfig.backend``): replica groups, restarts and elastic adds
    all build through it, so every enclave of the cluster is addressable.
    Stage-addressed events fire from :meth:`enter_stage`, round-robin
    across the subject's replicas: one event hits one enclave, so an R>1
    subject rides out a staged KILL via failover while an R=1 subject
    exercises the abort path.
    """

    def __init__(self, inner: BackendSpec = None,
                 plan: Optional[FaultPlan] = None):
        self.inner = resolve_backend(inner)
        self.plan = plan if plan is not None else FaultPlan()
        self.name = self.inner.name
        self._counts: Dict[str, Counter] = {}
        self._stage_hits: Dict[str, int] = {}

    def create(self, spec) -> FaultyShard:
        shard = FaultyShard(self.inner.create(spec), self.plan)
        shard.counts = self._counts.setdefault(spec.shard_id, Counter())
        shard.counts["built"] += 1
        return shard

    def enter_stage(self, shard_id: str, subject, stage: str) -> None:
        target = elastic_target(shard_id)
        if stage == MIGRATION_STAGES[0]:
            self._stage_hits[target] = 0  # a new migration of this subject
        if subject is None:
            return  # an add before PREPARE built the joining group
        members = [r.shard for r in subject.replicas] \
            if subject.replicas is not None else [subject]
        for event in self.plan.pop_due(target, STAGE_ORDINALS[stage]):
            hits = self._stage_hits.get(target, 0)
            members[hits % len(members)].apply(event)
            self._stage_hits[target] = hits + 1

    def close(self, timeout: float = 5.0) -> None:
        self.inner.close(timeout)


# -- the disk seam: durability kinds ---------------------------------------------


class FaultyDisk(UntrustedDisk):
    """An untrusted disk with the host's hand on it.

    Reads the durability protocol off the disk calls
    :class:`~repro.persist.durability.PartitionDurability` makes for
    partition ``p``: every commit attempt opens by measuring ``p.log``
    (the count ``at`` is keyed on, and where an I/O error fails the
    attempt), the next append to ``p.log`` is the one a TORN event tears,
    and every recovery opens by reading ``p.snap`` (where the downtime
    kinds strike).  ``counters`` is the monotonic counter service a
    CTR_RESET wipes (``p.epoch``).
    """

    def __init__(self, inner: UntrustedDisk, plan: FaultPlan, counters):
        self.inner = inner
        self.plan = plan
        self.counters = counters
        self.name = inner.name
        self._attempts: Dict[str, int] = {}
        self._torn: set = set()
        self._captured: Dict[str, object] = {}

    def _fire(self, partition: str, kinds) -> bool:
        """Apply the due events; True when an I/O error is among them."""
        io_error = False
        log = partition + ".log"
        for event in self.plan.pop_due(dur_target(partition),
                                       self._attempts.get(log, 0), kinds):
            if event.kind == CAPTURE:
                self._captured[partition] = self.inner.capture()
            elif event.kind == ROLLBACK:
                if partition in self._captured:
                    self.inner.restore(self._captured[partition])
            elif event.kind == CTR_RESET:
                self.counters.reset(partition + ".epoch")
            elif event.kind == TRUNCATE:
                self.inner.truncate(log, self.inner.size(log) // 2)
            elif event.kind == TORN:
                self._torn.add(log)
            else:
                io_error = True
        return io_error

    def size(self, name: str) -> int:
        if name.endswith(".log"):
            partition = name[:-len(".log")]
            self._attempts[name] = self._attempts.get(name, 0) + 1
            if self._fire(partition, DURABILITY_KINDS):
                raise DiskIOError(
                    f"{partition}: injected I/O error — commit write failed")
        return self.inner.size(name)

    def append(self, name: str, data: bytes) -> None:
        if name in self._torn:
            self._torn.discard(name)
            self.inner.append(name, data[: len(data) // 2])
            raise DiskIOError(
                f"{name[:-len('.log')]}: torn write — host crashed "
                "mid-append")
        self.inner.append(name, data)

    def read_blob(self, name: str) -> Optional[bytes]:
        if name.endswith(".snap"):
            self._fire(name[:-len(".snap")], _DOWNTIME_KINDS)
        return self.inner.read_blob(name)

    def write_blob(self, name: str, data: bytes) -> None:
        self.inner.write_blob(name, data)

    def sync(self) -> None:
        self.inner.sync()

    def truncate(self, name: str, length: int) -> None:
        self.inner.truncate(name, length)

    def delete(self, name: str) -> None:
        self.inner.delete(name)

    def capture(self) -> object:
        return self.inner.capture()

    def restore(self, token: object) -> None:
        self.inner.restore(token)

    def close(self) -> None:
        self.inner.close()


# -- the wire seam: net and wire kinds --------------------------------------------


def _flip_bit(frame: bytes) -> bytes:
    """The on-path adversary's tamper: one bit of the last byte (the tag)."""
    return frame[:-1] + bytes([frame[-1] ^ 0x01])


class FaultyDoor(ClusterNetServer):
    """The front door with an on-path adversary on its replies.

    Events addressed to :data:`NET_TARGET` fire on the door-wide
    served-frame count, after the frame is served: DROP swallows the
    reply, CLOSE hangs up without it, DELAY stalls it (outside the door
    lock, so only this connection waits), TAMPER flips a bit of the sealed
    reply's tag and REPLAY re-sends the connection's previous sealed reply
    ahead of it.  The client must surface the last two as typed errors.
    """

    def __init__(self, coordinator, plan: FaultPlan, **options):
        super().__init__(coordinator, **options)
        self.plan = plan
        self._last_reply: Dict[object, bytes] = {}
        self._delay: Dict[object, float] = {}

    def _run_batch(self, conn, *batch):
        replies, keep = super()._run_batch(conn, *batch)
        delay = self._delay.pop(conn)
        if delay:
            # A stop() cuts the stall short: the door is draining.
            self._stopping.wait(delay)
        return replies, keep

    def _replies(self, conn, responses):
        action, delay = None, 0.0
        for event in self.plan.pop_due(NET_TARGET, self.frames_served,
                                       (DELAY, DROP, CLOSE)):
            if event.kind == DELAY:
                delay += event.seconds
            elif event.kind == CLOSE or action is None:
                action = event.kind
        self._delay[conn] = delay
        if action == CLOSE:
            return (), False  # hang up without answering
        if action == DROP:
            return (), not self._limit_reached()  # the client times out
        (reply,), keep = super()._replies(conn, responses)
        kinds = {e.kind for e in self.plan.pop_due(
            NET_TARGET, self.frames_served, WIRE_KINDS)}
        outgoing = _flip_bit(reply) if TAMPER in kinds else reply
        last = self._last_reply.get(conn)
        self._last_reply[conn] = reply
        if REPLAY not in kinds:
            return (outgoing,), keep
        # Nothing recorded yet: duplicate the frame just sent — the
        # duplicate is the replay the client must catch next read.
        return ((last, outgoing) if last is not None
                else (outgoing, reply)), keep


class FaultyBackgroundServer(BackgroundServer):
    """:class:`~repro.cluster.netserver.BackgroundServer` around a
    :class:`FaultyDoor`: ``FaultyBackgroundServer(coordinator, plan=plan)``."""

    door = FaultyDoor
