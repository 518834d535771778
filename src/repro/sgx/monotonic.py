"""Simulated SGX monotonic counters: the non-volatile freshness anchor.

Sealing (:mod:`repro.sgx.sealing`) protects enclave state at rest but gives
no freshness: a snapshotted sealed blob replays perfectly.  Real SGX closes
the gap with *monotonic counters* — tiny non-volatile integers the enclave
can only ever increment, surviving enclave (and platform) restarts.  State
sealed together with the counter value can be checked on recovery: if the
counter has moved past the value bound into the blob, the blob is stale.

This module models such a service:

* counters are **non-volatile**: they live outside any enclave (in this
  simulation, in the :class:`MonotonicCounterService` object, optionally
  mirrored to a host file for ``python -m repro serve --durable``), so they
  survive every enclave kill/restart the fault layer stages;
* counters are **priced honestly**: SGX's own PSE counters take 80-250 ms
  per increment (ROTE; Ariadne), and even a ROTE-style distributed counter
  service needs ~1-2 ms per update — multi-million-cycle operations either
  way, charged via :class:`~repro.sgx.costs.CostModel` (``ctr_increment`` /
  ``ctr_read``).  This is *the* design force behind the durability layer's
  epoch scheme: counters are bound at snapshot/log-epoch boundaries, never
  per write;
* counters are **faultable**: :meth:`reset` is the attack surface — a
  malicious host wiping the counter store (or rolling back the NVRAM behind
  a PSE) — which honest recovery must detect, not trust.

Each access also pays an OCALL: the counter hardware/service lives outside
the enclave, so reading or bumping it is a boundary crossing.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.errors import RecoveryError
from repro.sgx.costs import CostModel, DEFAULT_COSTS
from repro.sgx.meter import CycleMeter


class MonotonicCounterService:
    """A non-volatile, increment-only counter store shared by enclaves.

    One service instance stands in for the platform's counter facility; the
    durability layer gives every partition its own counter id.  All methods
    that act for an enclave take a ``meter`` and charge the modeled cost
    there — the service itself is untrusted plumbing and owns no meter.
    """

    def __init__(self, *, costs: CostModel = DEFAULT_COSTS,
                 path: Optional[str] = None):
        self._costs = costs
        self._path = path
        self._counters: Dict[str, int] = {}
        self.increments = 0
        self.reads = 0
        self.resets = 0
        if path is not None and os.path.exists(path):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    self._counters = {k: int(v)
                                      for k, v in json.load(fh).items()}
            except (OSError, ValueError, TypeError, AttributeError) as exc:
                raise RecoveryError(
                    f"counter file {path!r} is unreadable ({exc}): the "
                    "freshness anchor is gone, refusing to start from "
                    "zero") from exc

    # -- the enclave-facing API ---------------------------------------------------

    def create(self, counter_id: str) -> int:
        """Ensure ``counter_id`` exists (at 0); idempotent, returns its value.

        Unmetered: creation happens once per partition lifetime, during
        setup, and real services price it like a read anyway — tests that
        care can read immediately after.
        """
        if counter_id not in self._counters:
            self._counters[counter_id] = 0
            self._persist()
        return self._counters[counter_id]

    def read(self, counter_id: str, *,
             meter: Optional[CycleMeter] = None) -> int:
        """Read the counter's current value (an OCALL plus the service cost)."""
        self.reads += 1
        if meter is not None:
            meter.charge_event("ocall", self._costs.ocall)
            meter.charge_event("ctr_read", self._costs.ctr_read)
        return self._counters.setdefault(counter_id, 0)

    def increment(self, counter_id: str, *,
                  meter: Optional[CycleMeter] = None) -> int:
        """Bump the counter by one and return the new value.

        The increment is durable before it returns (see :meth:`_persist`)
        — that ordering is what lets recovery treat "counter ahead of
        recovered epoch" as proof of rollback rather than a crash window.
        """
        self.increments += 1
        if meter is not None:
            meter.charge_event("ocall", self._costs.ocall)
            meter.charge_event("ctr_increment", self._costs.ctr_increment)
        value = self._counters.get(counter_id, 0) + 1
        self._counters[counter_id] = value
        self._persist()
        return value

    # -- the attack surface -------------------------------------------------------

    def reset(self, counter_id: str, value: int = 0) -> None:
        """Host attack: wipe/rewind a counter (no real enclave API does this).

        Models a malicious platform rolling back the NVRAM or wiping the
        counter service's state wholesale.  Recovery must *detect* the
        resulting mismatch (recovered epoch ahead of the counter), never
        accept it.
        """
        self.resets += 1
        self._counters[counter_id] = value
        self._persist()

    # -- plumbing -----------------------------------------------------------------

    def _persist(self) -> None:
        """Atomic, and flushed before the rename: a host crash leaves the
        old file or the new one, complete — never an empty one.  The rename
        itself rides the next flush of the data directory or its journal,
        which on the durability path follows at once (the EPOCH record's,
        the snapshot's)."""
        if self._path is None:
            return
        tmp = self._path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self._counters, fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self._path)

    def peek(self, counter_id: str) -> int:
        """Unmetered read for tests/stats (not an enclave-path operation)."""
        return self._counters.get(counter_id, 0)

    def stats(self) -> dict:
        return {
            "counters": dict(self._counters),
            "increments": self.increments,
            "reads": self.reads,
            "resets": self.resets,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"MonotonicCounterService({len(self._counters)} counters, "
                f"{self.increments} increments)")
