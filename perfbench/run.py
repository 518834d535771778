"""One workload, one run, one JSON line: the entry point ``BENCHMARK.json``
names.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``: every end-to-end metric
with ``--trace 0``, every per-layer metric with ``--trace 1``.  The exit
code is non-zero — and no result is printed — when the program under test
is missing; it is non-zero, with ``"correct": false``, when an operation's
outcome disagrees with the reference model.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pin() -> None:
    """One CPU and one hash seed for this process and all it starts.

    *One CPU* (the last one allowed; threads and shard hosts inherit it).
    The host-speed probes run on the client's CPU, so they can only speak
    for work done there.  With the front-door thread or the shard hosts on
    the VM's other vCPU, ten-run sets of the same code read 22-31 % apart on
    ``door_inline_rd95`` whenever the host scheduled the two vCPUs
    unevenly; alternating pinned and unpinned segments in one process,
    ``hop_socket_wr50`` spread 0.6 % pinned and 5 % unpinned.  The price:
    shard hosts take turns, so wall metrics sum the hop's work and do not
    show its overlap (``cluster.coordinator.parallel_efficiency`` does, on
    the simulated clock).

    *One hash seed* (re-exec once with ``PYTHONHASHSEED=0``).  ``bytes``
    hashing is salted per interpreter and the program keeps dicts keyed by
    ``bytes``: under zipf a hot key that collides costs every call.  One
    run in four of ``store_zipf_rd95`` was 10 % slower than its twins for no
    other reason.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable] + sys.argv)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="about 1/50 of the work (self-tests only)")
    parser.add_argument("--record", metavar="FILE",
                        help="also write the full record (digests, exact "
                             "counters) as JSON, for `perfbench run`")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("perfbench: no program to measure (src/repro is missing)",
              file=sys.stderr)
        return 2
    if argv is None:
        _pin()
    # The driver sets no PYTHONPATH; shard hosts inherit sys.path.
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import engine

    if args.workload not in engine.SPECS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(engine.SPECS)}")
    # A hard timeout upstream arrives as SIGTERM: unwind through the
    # finally blocks so shard hosts and the durable temp dir are reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workdir = os.path.join(ROOT, "perfbench", ".work", f"run-{os.getpid()}")
    record = engine.run_workload(args.workload, args.seed, args.seconds,
                                 bool(args.trace), workdir, quick=args.quick)
    if args.record:
        with open(args.record, "w") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
    try:
        os.rmdir(os.path.dirname(workdir))  # unless `perfbench run` uses it
    except OSError:
        pass
    print(f"perfbench: {args.workload}: host speed "
          f"{record['host_speed']:.3f} of the reference, "
          f"{record['raw_wall_ops_per_s']:.0f} ops/s on the host's own clock",
          file=sys.stderr)
    if not record["correct"]:
        print(f"perfbench: {args.workload}: {record['failed']} of "
              f"{record['attempted']} operations disagree with the reference "
              "model, or tracing changed the program's outputs",
              file=sys.stderr)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
