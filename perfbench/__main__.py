"""``python -m perfbench run|compare`` — the benchmark's command line.

``run`` executes every workload in its own interpreter (``run.py``, the
same entry point ``BENCHMARK.json`` names): ``--repeat`` untraced runs for
the end-to-end metrics, then one traced run for the per-layer metrics.  It
prints every metric by name with its unit, checks the runs against each
other, and writes one BENCH file.  ``compare`` is in ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")
WORK = os.path.join(ROOT, "perfbench", ".work")
DEFAULT_OUT = os.path.join(ROOT, "perfbench", "results", "BENCH_local.json")
#: The contract gives a run 180 s; the orchestrator enforces it.
RUN_TIMEOUT_S = 180


def _run_once(workload: str, seed: int, seconds: float, trace: int,
              quick: bool) -> dict:
    """One workload run in a fresh interpreter, under a hard timeout."""
    os.makedirs(WORK, exist_ok=True)
    record_path = os.path.join(WORK, f"record-{os.getpid()}.json")
    command = [sys.executable, RUN_PY, "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--record", record_path]
    if quick:
        command.append("--quick")
    # Its own process group, so a timeout also reaches the shard hosts.
    process = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                               start_new_session=True)
    try:
        process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGTERM)
        try:
            process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(process.pid, signal.SIGKILL)
            process.wait()
        raise SystemExit(f"perfbench: {workload} (trace={trace}) exceeded "
                         f"{RUN_TIMEOUT_S} s and was killed")
    try:
        with open(record_path) as handle:
            record = json.load(handle)
        os.remove(record_path)
    except FileNotFoundError:
        raise SystemExit(f"perfbench: {workload} (trace={trace}) exited "
                         f"{process.returncode} without a record")
    return record


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True,
            check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _host_fingerprint() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {"platform": platform.platform(),
            "python": platform.python_version(),
            "cpu": cpu, "machine": platform.machine()}


def run(args) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    names = [w["name"] for w in contract["workloads"]]
    chosen = args.workload or names
    for name in chosen:
        if name not in names:
            raise SystemExit(f"unknown workload {name!r}; choose from "
                             f"{', '.join(names)}")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.quick else float(contract["run_seconds"])
    bench = {
        "issue": 12,
        "git_sha": _git("rev-parse", "HEAD"),
        # Uncommitted changes: the tree measured is not exactly that sha.
        "git_dirty": _git("status", "--porcelain") not in ("", "unknown"),
        "host": _host_fingerprint(),
        "nproc": os.cpu_count(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "seed": args.seed,
        "seconds": seconds,
        "repeat": args.repeat,
        "quick": args.quick,
        "workloads": {},
    }
    problems = []
    for name in chosen:
        untraced = [_run_once(name, args.seed, seconds, 0, args.quick)
                    for _ in range(args.repeat)]
        traced = _run_once(name, args.seed, seconds, 1, args.quick)
        first = untraced[0]
        for record in untraced + [traced]:
            if not record["correct"]:
                problems.append(
                    f"{name}: {record['failed']} of {record['attempted']} "
                    f"ops failed (trace={record['trace']})")
            for field in ("input_sha256", "responses_sha256"):
                if record[field] != first[field]:
                    problems.append(f"{name}: {field} differs between runs "
                                    "of the same seed")
            # The simulated clock and the exact counters repeat bit for
            # bit, run to run and traced to untraced.
            if record["exact"] != first["exact"]:
                problems.append(f"{name}: simulated clock or exact counters "
                                "differ between runs of the same seed")
        end_to_end = {}
        for metric in contract["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in untraced]
            end_to_end[metric["name"]] = {
                "unit": metric["unit"], "values": values,
                "median": statistics.median(values)}
        bench["workloads"][name] = {
            "input_sha256": first["input_sha256"],
            "responses_sha256": first["responses_sha256"],
            "attempted": first["attempted"],
            "failed": max(r["failed"] for r in untraced + [traced]),
            "failed_ops_share": max(r["failed_ops_share"]
                                    for r in untraced + [traced]),
            "timed_ops": [r["timed_ops"] for r in untraced],
            "end_to_end": end_to_end,
            "exact": first["exact"],
            "per_layer": traced["metrics"],
            "trace_targets_missing": traced["trace_targets_missing"],
        }
        print(f"== {name}  (seed {args.seed}, {seconds:g} s, "
              f"{args.repeat} untraced run(s) + 1 traced)")
        for key, row in end_to_end.items():
            print(f"  {key:42s} {row['median']:16.4f} {row['unit']}")
        print(f"  {'failed_ops_share':42s} "
              f"{bench['workloads'][name]['failed_ops_share']:16.4f} ratio")
        for key, row in traced["metrics"].items():
            print(f"  {key:42s} {row['value']:16.4f} {row['unit']}")
        for target in traced["trace_targets_missing"]:
            print(f"  warning: trace target {target} no longer resolves")
        sys.stdout.flush()
    try:
        os.rmdir(WORK)
    except OSError:
        pass
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(bench, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {os.path.relpath(args.out)}")
    for problem in problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perfbench",
                                     description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run_parser = commands.add_parser("run", help="run the workloads and "
                                                 "write a BENCH file")
    run_parser.add_argument("--workload", action="append",
                            help="run only this workload (repeatable)")
    run_parser.add_argument("--seed", type=int, default=12)
    run_parser.add_argument("--seconds", type=float, default=None,
                            help="timed seconds per run (default: "
                                 "BENCHMARK.json's run_seconds)")
    run_parser.add_argument("--repeat", type=int, default=3,
                            help="untraced runs per workload (default 3)")
    run_parser.add_argument("--quick", action="store_true",
                            help="about 1/50 of the work, for the self-tests")
    run_parser.add_argument("--out", default=DEFAULT_OUT)
    compare_parser = commands.add_parser(
        "compare", help="judge BENCH file B against BENCH file A")
    compare_parser.add_argument("a")
    compare_parser.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args)
    from perfbench import compare

    return compare.main(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
