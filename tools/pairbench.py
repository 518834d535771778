#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs and the pair-rule verdict.

    python3 tools/pairbench.py A_DIR B_DIR --workload W --seed S --pairs N
        [--metric NAME]

A_DIR is a checkout of the parent commit, B_DIR of the change.  Each pair
runs ``python3 perfbench/run.py --workload W --seed S --seconds 16 --trace
0`` once in each checkout — the benchmark's own code in each, this tool
only invokes it — alternating which side goes first, so a host that slows
down mid-session taxes both sides alike.

For every end-to-end metric of ``A_DIR/BENCHMARK.json`` it prints each
side's median and quartiles and the pairs the change won; for the metric a
gain is claimed on (``--metric``: one of those names, ``wall_ops_per_s`` by
default, in the direction of its ``better`` field) it prints the verdict of
the rule that claim must meet (``perfbench/README.md``): at least ten pairs
were run, the change wins at least nine tenths of them, ties counting for
neither side, *and* the medians differ by more than the distance between
the parent's own quartiles.
Exit status: 0 gain shown, 1 not shown (or too few pairs to tell), 2 a run
failed (or, as for any usage error, ``--metric`` named no such metric).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

DEFAULT_METRIC = "wall_ops_per_s"
WIN_SHARE = 0.9
MIN_PAIRS = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3), inclusive method; a single run is its own spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def pairs_won(a: Sequence[float], b: Sequence[float],
              better: str) -> Tuple[int, int, int]:
    """(pairs B won, pairs A won, ties) for pairwise runs ``a[i]``/``b[i]``."""
    if len(a) != len(b):
        raise ValueError("unpaired runs")
    sign = 1 if better == "higher" else -1
    b_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    a_wins = sum(1 for x, y in zip(a, b) if sign * (y - x) < 0)
    return b_wins, a_wins, len(a) - b_wins - a_wins


def verdict(a: Sequence[float], b: Sequence[float], better: str) -> dict:
    """The pair rule on one metric; ``gain`` needs ten pairs and both tests."""
    a_q1, a_median, a_q3 = quartiles(a)
    b_q1, b_median, b_q3 = quartiles(b)
    b_wins, a_wins, ties = pairs_won(a, b, better)
    sign = 1 if better == "higher" else -1
    gap = sign * (b_median - a_median)
    spread = a_q3 - a_q1
    too_few = len(a) < MIN_PAIRS
    enough_pairs = b_wins >= WIN_SHARE * len(a)
    return {
        "a": (a_q1, a_median, a_q3), "b": (b_q1, b_median, b_q3),
        "b_wins": b_wins, "a_wins": a_wins, "ties": ties, "pairs": len(a),
        "ratio": b_median / a_median if a_median else float("nan"),
        "gap": gap, "parent_spread": spread,
        "too_few": too_few,
        "enough_pairs": enough_pairs, "clears_spread": gap > spread,
        "gain": not too_few and enough_pairs and gap > spread,
    }


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``; its result line."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: perfbench/run.py exited {done.returncode}")
    return json.loads(lines[-1])


def _cell(q: Tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]"


def report(metric_specs: List[dict], a_runs: List[dict], b_runs: List[dict],
           claimed: str = DEFAULT_METRIC) -> Tuple[str, bool]:
    """The table and whether ``claimed`` shows a gain by the pair rule."""
    rows = [f"{'metric':<18} {'A median [q1-q3]':>36} "
            f"{'B median [q1-q3]':>36}   B/A  B won"]
    gain = False
    for spec in metric_specs:
        name = spec["name"]
        a = [run["metrics"][name]["value"] for run in a_runs]
        b = [run["metrics"][name]["value"] for run in b_runs]
        v = verdict(a, b, spec["better"])
        rows.append(f"{name:<18} {_cell(v['a']):>36} {_cell(v['b']):>36} "
                    f"{v['ratio']:>5.3f}  {v['b_wins']}/{v['pairs']}"
                    + (f" ({v['ties']} tied)" if v["ties"] else ""))
        if name == claimed:
            gain = v["gain"]
            word = ("GAIN" if gain else
                    f"too few pairs (needs >= {MIN_PAIRS})" if v["too_few"]
                    else "no gain shown")
            rows.append(
                f"  -> {name}: {word}: "
                f"B won {v['b_wins']}/{v['pairs']} "
                f"(needs >= {WIN_SHARE:.0%}), median gap {v['gap']:.4g} vs "
                f"parent quartile spread {v['parent_spread']:.4g}")
    failed = [sum(run["failed"] for run in runs) for runs in (a_runs, b_runs)]
    rows.append(f"failed ops: A {failed[0]}, B {failed[1]}")
    return "\n".join(rows), gain and failed[1] <= failed[0]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a_dir", type=Path, help="parent checkout")
    parser.add_argument("b_dir", type=Path, help="change checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16)
    parser.add_argument("--metric", default=DEFAULT_METRIC,
                        help="end-to-end metric the gain is claimed on")
    args = parser.parse_args(argv)

    contract = json.loads((args.a_dir / "BENCHMARK.json").read_text())
    specs = contract["end_to_end"]
    names = [spec["name"] for spec in specs]
    if args.metric not in names:
        parser.error(f"--metric {args.metric!r} is not an end-to-end metric "
                     f"of BENCHMARK.json ({', '.join(names)})")
    runs: Dict[str, List[dict]] = {"A": [], "B": []}
    sides = {"A": args.a_dir, "B": args.b_dir}
    for pair in range(args.pairs):
        for side in ("AB" if pair % 2 == 0 else "BA"):
            try:
                result = run_once(sides[side], args.workload, args.seed,
                                  args.seconds)
            except RuntimeError as exc:
                print(exc, file=sys.stderr)
                return 2
            runs[side].append(result)
            value = result["metrics"][args.metric]["value"]
            print(f"pair {pair + 1:>2} {side}: {args.metric} {value:.5g}",
                  flush=True)
    print(f"\n{args.workload}  seed {args.seed}  {args.pairs} pairs  "
          f"{args.seconds:g} s  A={args.a_dir}  B={args.b_dir}")
    table, gain = report(specs, runs["A"], runs["B"], args.metric)
    print(table)
    return 0 if gain else 1


if __name__ == "__main__":
    sys.exit(main())
