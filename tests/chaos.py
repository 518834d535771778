"""The one chaos gauntlet's shared half: a seeded stream and an oracle.

Each fault suite's gauntlet is a *scenario* — its cluster recipe, backend,
fault plan and seed, plus any bar only it has (goodput ratios, injection
counts, a SIGKILLed host, engine stats) — written as calls into this module:

* :class:`ZipfStream` is the seeded zipf(0.99) get/put stream every
  gauntlet drives: ``rng.choices`` over ``key-%04d`` with ``1/rank**s``
  weights, then one ``rng.random() < 0.5`` per pick choosing a versioned
  put (``val-%08d``) over a get.  A seed names the whole stream.
* :class:`History` records every (request, response) pair a driver saw —
  ``coordinator.execute``, a ``ClusterClient``, a tenant's client — and
  checks what "no acknowledged write is lost" means in one place: every
  slot is answered; every non-OK status is one the scenario allows and
  carries its reason (an OVERLOADED shed, a positive ``retry_after``
  hint); every acked write reads back exactly; every replica is UP after
  recovery; the fault plan fully fired.

``tests/test_planted_mutations.py`` holds this oracle to five planted
defects, each of which must fail the scenario that catches it.
"""

from itertools import accumulate

from repro.cluster import ReplicaState
from repro.server import protocol
from repro.server.protocol import OP_PUT, STATUS_OK, STATUS_OVERLOADED

ZIPF_S = 0.99  # the skew every gauntlet drives


class ZipfStream:
    """Seeded zipf(``ZIPF_S``) batches of ``per_batch`` gets and versioned
    puts.

    ``version`` is the last value number already handed out; each put
    takes the next one, so a value names the write that made it.
    """

    def __init__(self, rng, n_keys, *, per_batch=24, version=0):
        self.rng = rng
        self.keys = [b"key-%04d" % i for i in range(n_keys)]
        # rng.choices accumulates its weights on every call; the same sums
        # once give the same picks.
        self.cum_weights = list(accumulate(
            1.0 / (rank ** ZIPF_S) for rank in range(1, n_keys + 1)))
        self.per_batch = per_batch
        self.version = version

    def batch(self):
        batch = []
        for key in self.rng.choices(self.keys, cum_weights=self.cum_weights,
                                    k=self.per_batch):
            if self.rng.random() < 0.5:
                self.version += 1
                batch.append(protocol.put(key, b"val-%08d" % self.version))
            else:
                batch.append(protocol.get(key))
        return batch


class History:
    """Every (request, response) pair of one scenario, checked as it lands.

    ``allowed`` names the non-OK statuses the scenario may answer with
    (none by default); ``plan`` is its fault plan, printed with every
    failure so a red run carries its schedule.  ``acked`` maps each key to
    the last value an OK put stored there; ``refused`` keeps each allowed
    non-OK response; ``ok``/``offered`` count responses for goodput.
    """

    def __init__(self, *, allowed=(), plan=None):
        self.allowed = frozenset(allowed)
        self.plan = plan
        self.acked = {}
        self.refused = []
        self.ok = 0
        self.offered = 0

    def describe(self):
        return "" if self.plan is None else "\n" + self.plan.describe()

    def record(self, requests, responses):
        """Check one delivery's answers, positionally; returns them."""
        assert len(responses) == len(requests), (
            f"{len(requests)} requests, {len(responses)} responses"
            f"{self.describe()}")
        for request, response in zip(requests, responses):
            assert response is not None, (
                f"{request.key}: no response{self.describe()}")
            self.offered += 1
            if response.status == STATUS_OK:
                self.ok += 1
                if request.opcode == OP_PUT:
                    self.acked[request.key] = request.value
                continue
            assert response.status in self.allowed, (
                f"{request.key}: status {response.status} "
                f"{response.value!r}{self.describe()}")
            if response.status == STATUS_OVERLOADED:
                # A typed shed: a positive retry_after hint and a reason.
                assert protocol.retry_after_hint(response) > 0
                assert protocol.overload_reason(response) != b""
            else:
                assert response.value != b"", (
                    f"{request.key}: status {response.status} without a "
                    f"reason{self.describe()}")
            self.refused.append(response)
        return responses

    def run(self, execute, stream, more):
        """Send ``stream`` batches through ``execute`` while ``more(ops)``
        holds for the ops this run has sent; returns its (ok, offered)."""
        ok, offered = self.ok, self.offered
        while more(self.offered - offered):
            batch = stream.batch()
            self.record(batch, execute(batch))
        return self.ok - ok, self.offered - offered

    def until_fired(self, min_ops, max_ops):
        """A ``more`` for :meth:`run`: at least ``min_ops``, then on until
        the plan has fully fired (``max_ops`` is a safety valve, not the
        bar — :meth:`fired` is)."""
        plan = self.plan
        return lambda ops: ops < min_ops or (
            plan.fired() < len(plan) and ops < max_ops)

    def fired(self, count=None):
        """The whole fault plan fired (and, given ``count``, was that big)."""
        fired, size = self.plan.fired(), len(self.plan)
        assert fired == size, (
            f"fault plan fired {fired} of {size} events{self.describe()}")
        if count is not None:
            assert size == count, (
                f"fault plan has {size} events, not {count}{self.describe()}")

    def replicas_up(self, coordinator):
        """Recovery converged: every replica of every group is UP."""
        for group in coordinator.shard_list():
            for replica in group.replicas:
                assert replica.state is ReplicaState.UP, (
                    f"{replica.replica_id} never rejoined{self.describe()}")

    def readback(self, read):
        """Every acked write reads back exactly through ``read(key)``."""
        for key, value in self.acked.items():
            assert read(key) == value, (
                f"lost acked write on {key}{self.describe()}")
