"""Small shared network plumbing for every TCP endpoint in the cluster.

Three things live here so the front door (:mod:`repro.cluster.netserver`)
and the shard hosts (:mod:`repro.cluster.sockbackend`) behave the same
way under test churn:

* **Listen with bind retry** — a fixed port raced by a just-closed test
  server lingers in ``TIME_WAIT`` briefly; :func:`listen` retries
  ``EADDRINUSE`` a bounded number of times with a short linear backoff,
  which deflakes that without masking a genuinely occupied port.
* **No Nagle** — every frame on every edge is one small write that the
  peer answers, and both the door (REPLAY's two replies) and the
  coordinator (a second bucket pipelined to a shard whose first is in
  flight) write twice without reading in between; :func:`no_delay` sets
  ``TCP_NODELAY`` so the second write never waits for the first one's
  (delayed) ACK.  Called on all four socket ends: the door's accepted
  sockets, ``ClusterClient``, ``SocketShard`` and ``ShardHost``.
* **Retry jitter** — a fleet of clients retrying a flaky server with the
  same deterministic backoff all wake at the same instant and stampede
  it again.  :func:`jittered` spreads a base delay by a small random
  factor; callers that need reproducible schedules pass their own
  ``rng``.
"""

from __future__ import annotations

import errno
import random
import socket
import time

#: Bind attempts before giving up on an address already in use.
BIND_RETRIES = 5
#: Base delay between bind attempts; attempt ``i`` waits ``(i+1) *`` this.
BIND_RETRY_DELAY = 0.2

#: Fraction of a retry delay added as random jitter (uniform in
#: ``[0, delay * RETRY_JITTER]``) so concurrent clients desynchronize.
RETRY_JITTER = 0.25


def listen(
    host: str,
    port: int,
    *,
    backlog: int = 128,
    retries: int = BIND_RETRIES,
    delay: float = BIND_RETRY_DELAY,
) -> socket.socket:
    """A listening TCP socket (``SO_REUSEADDR``) on ``(host, port)``.

    Retries only ``EADDRINUSE``: ephemeral port 0 never collides, so in
    practice this only fires for fixed ports; any other bind error
    surfaces immediately, as does an ``EADDRINUSE`` that outlives the
    retry budget.
    """
    for attempt in range(retries):
        try:
            return socket.create_server((host, port), backlog=backlog)
        except OSError as exc:
            if exc.errno != errno.EADDRINUSE or attempt == retries - 1:
                raise
            time.sleep(delay * (attempt + 1))
    raise AssertionError("unreachable")  # pragma: no cover


def no_delay(sock: socket.socket) -> None:
    """Turn Nagle's algorithm off on a connected TCP socket."""
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


def jittered(delay: float, *, fraction: float = RETRY_JITTER,
             rng: random.Random | None = None) -> float:
    """``delay`` plus a uniform random slice of it, for retry backoff."""
    draw = rng.random() if rng is not None else random.random()
    return delay + delay * fraction * draw
