"""How fast is the host right now?  A fixed reference kernel, timed.

The sandbox is a 2-vCPU VM on a shared host: for minutes at a time — and,
inside those, from one tenth of a second to the next — the same code runs
up to 2x slower, in CPU time as much as in wall time.  Nothing a benchmark
run does to itself (more segments, medians, the fastest quarter of them)
removes a slow phase that outlasts the run.  So the timed phase is
interleaved with *probes*: after every segment of calls (~0.1 s) this
module times a fixed piece of interpreter-bound work (~8 ms), and the
engine reports every duration multiplied by

    speed = REFERENCE_S / (what the probes next to it took)

i.e. in the time the *reference host* would have needed — the sandbox in a
quiet moment.  Measured over 3-minute passes cut into 12 s windows, raw
wall metrics spread 7-19 % (inter-quartile range over median) from window
to window; the same windows normalised spread 2-6 %.

The kernel belongs to the benchmark and calls nothing under ``src/``, so a
change to the program cannot move it.  It mixes what the program's hot
path is made of — bytecode dispatch, small ``bytes`` building, a keyed
blake2s, dict and list traffic — with random reads and writes over ~5 MB,
because a slow phase taxes cache misses more than arithmetic: a
compute-only kernel under-corrected the memory-heavier workloads.  It
allocates no container objects, so it never triggers the cyclic collector.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from typing import NamedTuple

#: Wall (and CPU) seconds one probe takes on the reference host: the
#: 2-vCPU sandbox this benchmark was written on, in a quiet moment.  Only a
#: scale: it turns "relative to the kernel" back into readable seconds.
REFERENCE_S = 0.0065
PROBE_ITERATIONS = 2500

_MASK = (1 << 15) - 1
_STRIDE = 7919
_TABLE = [(i * 2654435761 & 0xFFFFFFFF).to_bytes(4, "little") * 12
          for i in range(_MASK + 1)]
_INDEX = {i * _STRIDE: _TABLE[i] for i in range(_MASK + 1)}
_KEY = b"perfbench-probe!"


def _kernel(iterations: int) -> int:
    table, index, mask, stride = _TABLE, _INDEX, _MASK, _STRIDE
    blake2s = hashlib.blake2s
    key = _KEY
    recent = {}
    state = 12345
    acc = 0
    for i in range(iterations):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        slot = state & mask
        row = table[slot]
        data = b"%08x%08x" % (i, acc & 0xFFFFFFFF)
        tag = blake2s(data + row[:16], key=key, digest_size=16).digest()
        recent[i & 1023] = tag
        table[(slot * 31) & mask] = row[:24] + tag[:8] + row[32:]
        acc += len(index[slot * stride]) + tag[0]
        buffer = bytearray(data)
        buffer[4:8] = tag[:4]
        acc ^= int.from_bytes(buffer[:8], "little") & 0xFF
    return acc


class Probe(NamedTuple):
    wall_s: float
    cpu_s: float


class Speed(NamedTuple):
    """Shares of the reference host's speed: 1.0 is the reference host,
    0.5 a host that takes twice as long."""

    wall: float
    cpu: float


def probe() -> Probe:
    """Time the kernel once, on both of this process's clocks.

    Sleeps a millisecond first.  The kernel never lets go of the GIL, and a
    front-door thread that has just sent its last reply is still inside a
    traced span: it would wait out a whole switch interval there, and the
    wait would be booked as that layer's self time.
    """
    time.sleep(0.001)
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    _kernel(PROBE_ITERATIONS)
    wall_s = time.perf_counter() - wall0
    return Probe(wall_s, time.process_time() - cpu0)


def speed(*probes: Probe) -> Speed:
    """Host speed over ``probes``, from their mean on each clock."""
    return Speed(REFERENCE_S * len(probes) / sum(p.wall_s for p in probes),
                 REFERENCE_S * len(probes) / sum(p.cpu_s for p in probes))


def settled_speed() -> Speed:
    """Host speed from the median of five probes back to back: brackets
    work too long to interleave with probes (set-up)."""
    taken = [probe() for _ in range(5)]
    return Speed(REFERENCE_S / statistics.median(p.wall_s for p in taken),
                 REFERENCE_S / statistics.median(p.cpu_s for p in taken))
