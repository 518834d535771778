"""Deterministic fault injection for the cluster serving layer.

The paper's threat model (Section II-B) makes the *host* adversarial; a
production deployment additionally has to survive the mundane versions of
the same events — enclaves dying, untrusted memory rotting, connections
hanging.  This module stages both kinds on a fixed, replayable schedule:

* :class:`FaultPlan` — an ordered schedule of :class:`FaultEvent`\\ s, each
  addressed to a target (a replica's shard id, or ``"net"`` for the TCP
  front door) and triggered when that target's own operation/frame counter
  reaches ``at``.  Plans are pure data: the same plan against the same
  workload produces the same failure history, which is what makes chaos
  tests assertable.
* :class:`FaultyShard` — a :class:`~repro.cluster.shard.ShardHandle`
  around another one, whose server counts the requests it flushes and
  consults the plan before every flush: a due ``kill`` raises
  :class:`~repro.errors.ShardCrashedError` (and keeps raising until
  :meth:`FaultyShard.restart`), a due ``corrupt`` flips a ciphertext bit
  in the shard's untrusted memory via ``repro.attacks`` so the *next*
  touch of that record trips an integrity alarm.
* net faults (``delay`` / ``drop`` / ``close``) are consumed by
  :class:`~repro.cluster.netserver.ClusterNetServer`, keyed by its served
  frame count.
* wire attacks (``tamper`` / ``replay``) are the on-path adversary of
  the v2 session layer, also played by the front door: tamper flips a
  ciphertext bit in an outgoing sealed frame, replay resends the
  previously sent frame.  Both must surface client-side as typed errors
  (``TamperedFrameError`` / ``ReplayError``), never as decoded garbage.

A **kill** models the loss of the enclave, not of the host: EPC contents
and trust anchors are gone, so :meth:`FaultyShard.restart` brings up a
*fresh* enclave (new keys, empty store) that must re-sync from a live
replica through the trusted path before serving again (see
``repro.cluster.health``).  Harnik et al. plan for exactly this restart
path in production SGX storage.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.cluster.shard import ShardHandle
from repro.errors import (
    ShardCrashedError,
    ShardUnreachableError,
    UnknownFaultKindError,
)

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
# Durability faults, consumed by repro.persist.PartitionDurability at its
# commit boundaries (and, for the attacker-strikes-during-downtime kinds,
# at recovery start).  ``at`` counts the partition's commit attempts.
TORN = "torn"            # append half a record, then "crash" the write
TRUNCATE = "truncate"    # cut the on-disk log in half
IO_ERROR = "io_error"    # the commit write fails before any byte lands
CAPTURE = "capture"      # attacker snapshots the whole untrusted disk
ROLLBACK = "rollback"    # attacker restores the captured disk state
CTR_RESET = "ctr_reset"  # attacker wipes the monotonic counter

#: The FaultPlan target consumed by the TCP front door.
NET_TARGET = "net"

_SHARD_KINDS = {KILL, CORRUPT, PARTITION, SLOW}
_NET_KINDS = {DELAY, DROP, CLOSE, TAMPER, REPLAY}
_DUR_KINDS = {TORN, TRUNCATE, IO_ERROR, CAPTURE, ROLLBACK, CTR_RESET}

#: Net kinds that act on a sealed reply.
WIRE_KINDS = frozenset({TAMPER, REPLAY})

#: Kinds the durability layer consumes (see repro.persist.durability).
DURABILITY_KINDS = frozenset(_DUR_KINDS)

#: Durability kinds safe inside a serving-phase chaos schedule: each is
#: detected at the next commit and repaired from live state, so the
#: zero-acked-write-loss invariant stays assertable.  ROLLBACK/CTR_RESET
#: belong in downtime scenarios where recovery must *reject* the state.
CHAOS_DUR_KINDS = (TORN, TRUNCATE, IO_ERROR)


def dur_target(group_id: str) -> str:
    """The FaultPlan target addressing a partition's durability sidecar."""
    return f"{group_id}/dur"


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``at`` is a per-target trigger point: for shard faults, the number of
    requests the target has flushed; for net faults, the number of frames
    the server has served.  Each event fires exactly once.
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


def plant_corruption(store, key: bytes = b"") -> bool:
    """Flip a ciphertext bit of one record in ``store``'s untrusted memory.

    The whole plant — victim selection (unmetered: it is the attacker's
    work) plus the bit flip — runs against the *real* store, so it must
    execute wherever the enclave lives: ``ShardHandle.plant_corruption``
    calls it directly, remote handles run it beside the enclave via the
    ``plant_corruption`` RPC.  Returns whether a corruption landed (an
    empty store, a vanished key, or a previously-tripped alarm all mean
    there was nothing to tamper with).
    """
    from repro.attacks.scenarios import corrupt_record_in_place
    from repro.errors import AriaError
    from repro.sgx.meter import MeterPause

    if len(store) == 0:
        return False
    try:
        with MeterPause(store.enclave.meter):
            victim = key or next(iter(store.keys()))
        corrupt_record_in_place(store, victim)
    except AriaError:
        return False
    return True


class _FaultyServer:
    """The request-path interposer: counts flushes, fires due faults."""

    def __init__(self, owner: "FaultyShard"):
        self._owner = owner

    def flush_batch(self, requests) -> list:
        requests = list(requests)
        owner = self._owner
        owner.ops_flushed += len(requests)
        for event in owner.plan.pop_due(owner.shard_id, owner.ops_flushed):
            owner.apply(event)
        if owner.crashed:
            raise ShardCrashedError(
                f"shard {owner.shard_id} is down (enclave killed)"
            )
        if owner.partitioned:
            raise ShardUnreachableError(
                f"shard {owner.shard_id} is unreachable (partitioned)"
            )
        # A SLOW stall happens here, in the parent-side request path, so the
        # failure signature — the flush call takes `seconds` longer, nothing
        # raises — is identical across inline/process/socket backends, just
        # like PARTITION black-holing.
        if owner.stalled:
            owner.stalls += 1
            if owner._stall_ops_left is not None:
                owner._stall_ops_left -= 1
            time.sleep(owner._stall_seconds)
        return owner.inner.server.flush_batch(requests)


class FaultyShard(ShardHandle):
    """A handle wrapper that injects the plan's faults into its own path.

    A :class:`~repro.cluster.shard.ShardHandle` around any other (``inner``),
    so coordinators, replica groups, balancers and stats aggregation all
    work unchanged.
    Touching the ``store`` or ``server`` of a crashed shard raises
    :class:`~repro.errors.ShardCrashedError` — dead enclaves don't answer.
    """

    def __init__(
        self,
        shard,
        plan: Optional[FaultPlan] = None,
        *,
        rebuild: Optional[Callable[[], object]] = None,
    ):
        self.inner = shard
        self.plan = plan or FaultPlan()
        self._rebuild = rebuild
        self.ops_flushed = 0
        self.restarts = 0
        self.corruptions = 0
        self.partitions = 0
        self.reconnects = 0
        self.stalls = 0
        self._partitioned = False
        self._heal_at = 0.0
        self._stall_seconds = 0.0
        self._stall_ops_left: Optional[int] = None
        self._server = _FaultyServer(self)

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
        OS process, not as a flag in the parent.
        """
        self.crashed = True
        self.inner.kill()

    def corrupt(self, key: bytes = b"") -> None:
        """Flip a ciphertext bit of one record in untrusted memory.

        With no explicit ``key``, the first key the index yields is hit —
        deterministic for a given store history.  A corrupt on an empty
        (or crashed) shard is a no-op: there is nothing to tamper with.
        The plant runs wherever the enclave lives (see
        :func:`plant_corruption`), so inline and process shards meter the
        attacker's walk identically.
        """
        if self.crashed:
            return
        if self.inner.plant_corruption(key):
            self.corruptions += 1

    def restart(self):
        """Replace the dead enclave with a fresh, *empty* one.

        EPC contents (keys, trust anchors, Secure Cache) did not survive,
        so the replacement shares nothing with its predecessor; the health
        monitor must re-sync it from a live replica before it serves.
        Returns the new inner shard.
        """
        if not self.crashed:
            raise ShardCrashedError(
                f"shard {self.shard_id} is not down; nothing to restart"
            )
        if self._rebuild is None:
            raise ShardCrashedError(
                f"shard {self.shard_id} has no rebuild recipe"
            )
        old = self.inner
        self.inner = self._rebuild()
        self.crashed = False
        self._partitioned = False
        self._heal_at = 0.0
        self._stall_seconds = 0.0
        self._stall_ops_left = None
        self.restarts += 1
        old.close()  # reap the dead worker's process entry and pipe
        return self.inner

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
    def server(self):
        return self._server

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
        row["restarts"] = self.restarts
        row["partitions"] = self.partitions
        row["reconnects"] = self.reconnects
        row["stalls"] = self.stalls
        return row

    def close(self, timeout: float = 5.0) -> None:
        self.inner.close(timeout)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "down" if self.crashed else "up"
        return f"FaultyShard({self.shard_id!r}, {state})"
