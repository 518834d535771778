"""``python -m perfbench compare A.json B.json``: is B worse than A?

One row per workload x end-to-end metric: both medians, the ratio B/A, the
bound ``BENCHMARK.json`` fixes, and a verdict:

* ``regressed`` — B's median is worse than A's by more than the bound;
* ``unresolved`` — the runs of either side spread (inter-quartile range
  over median) wider than the bound and the two sides' runs overlap, so
  "no change" cannot be told from "changed";
* ``ok`` — otherwise.

When A and B were made from the same seed and sizes, the simulated clock,
the exact counters and the digests must be *equal*; any drift, one cycle
included, is ``regressed`` — a change that means to move them says so and
re-baselines.  A combined score is never printed: every row stands alone.
"""

from __future__ import annotations

import json
import os
import statistics
from typing import List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: End-to-end metrics that are counts of the simulated clock.
EXACT_END_TO_END = ("sim_cycles_per_op", "sim_ops_per_s")
IDENTITY_FIELDS = ("input_sha256", "responses_sha256", "failed")


def load_contract(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> dict:
    with open(path) as handle:
        return json.load(handle)


def _spread(values: List[float]) -> float:
    """Inter-quartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def _worse(a: float, b: float, better: str) -> float:
    """How much worse b is than a, as a share of a (negative = better)."""
    change = (b - a) / abs(a) if a else 0.0
    return change if better == "lower" else -change


def judge(a_values, b_values, better: str, bound: float) -> str:
    worse_by = _worse(statistics.median(a_values),
                      statistics.median(b_values), better)
    wide = max(_spread(a_values), _spread(b_values)) > bound
    overlap = (min(b_values) <= max(a_values)
               and min(a_values) <= max(b_values))
    if wide and overlap:
        return "unresolved"
    return "regressed" if worse_by > bound else "ok"


def compare(a: dict, b: dict, contract: dict, top_movers: int = 5):
    """Returns ``(lines, regressed)`` for two loaded BENCH files."""
    lines = []
    regressed = 0
    same_inputs = all(a.get(k) == b.get(k) for k in ("seed", "quick"))
    lines.append(f"A: {a.get('git_sha', '?')[:12]}  "
                 f"B: {b.get('git_sha', '?')[:12]}  "
                 f"seed {a.get('seed')} / {b.get('seed')}  "
                 f"runs {a.get('repeat')} / {b.get('repeat')}")
    if not same_inputs:
        lines.append("seeds differ: simulated metrics are held to their "
                     "bounds, not to equality")
    header = (f"{'workload':20s} {'metric':18s} {'A median':>14s} "
              f"{'B median':>14s} {'B/A':>7s} {'bound':>6s}  verdict")
    lines += ["", header, "-" * len(header)]
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in contract["end_to_end"]:
            key = metric["name"]
            va = wa["end_to_end"][key]["values"]
            vb = wb["end_to_end"][key]["values"]
            ma, mb = statistics.median(va), statistics.median(vb)
            if key in EXACT_END_TO_END and same_inputs:
                bound = "exact"
                verdict = "ok" if set(va) == set(vb) else "regressed"
            else:
                bound = f"{metric['bound']:.0%}"
                verdict = judge(va, vb, metric["better"], metric["bound"])
            regressed += verdict == "regressed"
            ratio = mb / ma if ma else float("nan")
            lines.append(f"{name:20s} {key:18s} {ma:14.4f} {mb:14.4f} "
                         f"{ratio:7.3f} {bound:>6s}  {verdict}")
        if same_inputs:
            drift = [f for f in IDENTITY_FIELDS if wa.get(f) != wb.get(f)]
            drift += [m for m in wa["exact"]
                      if wa["exact"][m] != wb["exact"].get(m)]
            verdict = "regressed" if drift else "ok"
            regressed += bool(drift)
            lines.append(f"{name:20s} {'digests+counters':18s} "
                         f"{'':14s} {'':14s} {'':7s} {'exact':>6s}  "
                         f"{verdict}{' ' + ', '.join(drift) if drift else ''}")

    lines += ["", "largest self-time movers (traced pass, us per op; "
                  "diagnostic, no verdict)"]
    for workload in contract["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        la = a["workloads"][name]["per_layer"]
        lb = b["workloads"][name]["per_layer"]
        moves = []
        for key in la:
            if key.endswith(".self_us_per_op") and key in lb:
                va, vb = la[key]["value"], lb[key]["value"]
                moves.append((abs(vb - va), key[:-len(".self_us_per_op")],
                              va, vb))
        moves.sort(reverse=True)
        lines.append(f"  {name}")
        for _, layer, va, vb in moves[:top_movers]:
            ratio = f"{vb / va:.3f}x" if va else "new"
            lines.append(f"    {layer:22s} {va:10.3f} -> {vb:10.3f}  "
                         f"({vb - va:+.3f}, {ratio} of A)")
    return lines, regressed


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    lines, regressed = compare(a, b, load_contract())
    print("\n".join(lines))
    print(f"\n{regressed} regressed")
    return 1 if regressed else 0
