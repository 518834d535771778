"""The pair rule's arithmetic (``tools/pairbench.py``) on canned numbers.

The tool itself only shells out to ``perfbench/run.py`` in two checkouts;
what must not drift is the verdict: nine tenths of *all* pairs, ties for
neither side, and a median gap wider than the parent's own quartiles.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "pairbench", Path(__file__).resolve().parents[1] / "tools/pairbench.py")
pairbench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(pairbench)


def test_quartiles_are_inclusive():
    assert pairbench.quartiles([1, 2, 3, 4, 5]) == (2, 3, 4)
    assert pairbench.quartiles([10.0, 20.0]) == (12.5, 15.0, 17.5)
    assert pairbench.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_pairs_are_positional_and_ties_count_for_neither():
    a = [10, 10, 10, 10]
    b = [11, 9, 10, 12]
    assert pairbench.pairs_won(a, b, "higher") == (2, 1, 1)
    assert pairbench.pairs_won(a, b, "lower") == (1, 2, 1)
    with pytest.raises(ValueError):
        pairbench.pairs_won([1], [1, 2], "higher")


def test_a_clear_gain():
    a = [100, 101, 99, 102, 98, 100, 101, 99, 100, 100]
    b = [x * 1.15 for x in a]
    v = pairbench.verdict(a, b, "higher")
    assert (v["b_wins"], v["a_wins"], v["ties"]) == (10, 0, 0)
    assert v["ratio"] == pytest.approx(1.15)
    assert v["gap"] == pytest.approx(15.0) and v["parent_spread"] == 1.5
    assert v["gain"]


def test_nine_of_ten_is_enough_and_eight_is_not():
    a = [100.0] * 10
    nine = [110.0] * 9 + [90.0]
    assert pairbench.verdict(a, nine, "higher")["gain"]
    eight = [110.0] * 8 + [90.0, 90.0]
    v = pairbench.verdict(a, eight, "higher")
    assert not v["enough_pairs"] and v["clears_spread"] and not v["gain"]


def test_fewer_than_ten_pairs_never_show_a_gain():
    # One pair has no spread and 1/1 >= 0.9; nine clean wins are still nine.
    for n in (1, 5, 9):
        v = pairbench.verdict([100.0] * n, [120.0] * n, "higher")
        assert v["b_wins"] == n and v["enough_pairs"] and v["clears_spread"]
        assert v["too_few"] and not v["gain"]
    assert pairbench.verdict([100.0] * 10, [120.0] * 10, "higher")["gain"]


def test_a_tie_is_not_a_win():
    a = [100.0] * 10
    b = [110.0] * 8 + [100.0, 100.0]         # 8 wins, 2 ties: 8/10 of all
    v = pairbench.verdict(a, b, "higher")
    assert (v["b_wins"], v["ties"]) == (8, 2) and not v["gain"]


def test_winning_every_pair_inside_the_parent_spread_is_not_a_gain():
    a = [90, 95, 100, 105, 110, 90, 95, 100, 105, 110]
    b = [x + 1 for x in a]
    v = pairbench.verdict(a, b, "higher")
    assert v["b_wins"] == 10 and v["gap"] == 1 and v["parent_spread"] == 10
    assert v["enough_pairs"] and not v["clears_spread"] and not v["gain"]


def test_lower_is_better_metrics_flip_the_sign():
    a = [40.0, 41.0, 39.0, 40.0, 40.5, 39.5, 40.0, 41.0, 39.0, 40.0]
    b = [x - 5 for x in a]
    v = pairbench.verdict(a, b, "lower")
    assert v["b_wins"] == 10 and v["gap"] == 5 and v["gain"]
    assert not pairbench.verdict(a, b, "higher")["gain"]
    # A regression never reads as a gain, however consistent.
    assert not pairbench.verdict(b, a, "lower")["gain"]


def test_the_report_names_the_claimed_metric_and_counts_failures():
    specs = [{"name": "wall_ops_per_s", "better": "higher"},
             {"name": "cpu_us_per_op", "better": "lower"}]

    def run(wall, cpu, failed=0):
        return {"failed": failed,
                "metrics": {"wall_ops_per_s": {"value": wall},
                            "cpu_us_per_op": {"value": cpu}}}

    a_runs = [run(100.0 + i % 3, 40.0) for i in range(10)]
    b_runs = [run(120.0 + i % 3, 35.0) for i in range(10)]
    table, gain = pairbench.report(specs, a_runs, b_runs)
    assert gain and "-> wall_ops_per_s: GAIN" in table
    assert "-> cpu_us_per_op" not in table
    assert "B won 10/10" in table and "failed ops: A 0, B 0" in table
    # Too few pairs: the table still prints, the verdict says why not.
    table, gain = pairbench.report(specs, a_runs[:4], b_runs[:4])
    assert not gain and "too few pairs (needs >= 10)" in table
    # More failed operations than the parent: the gain does not count.
    b_runs[3] = run(121.0, 35.0, failed=2)
    _, gain = pairbench.report(specs, a_runs, b_runs)
    assert not gain


def test_the_claimed_metric_can_be_lower_is_better():
    specs = [{"name": "wall_ops_per_s", "better": "higher"},
             {"name": "cpu_us_per_op", "better": "lower"}]

    def run(wall, cpu):
        return {"failed": 0,
                "metrics": {"wall_ops_per_s": {"value": wall},
                            "cpu_us_per_op": {"value": cpu}}}

    a_runs = [run(100.0, 40.0 + i % 3 * 0.1) for i in range(10)]
    faster = [run(100.0, 38.0 + i % 3 * 0.1) for i in range(10)]
    table, gain = pairbench.report(specs, a_runs, faster, "cpu_us_per_op")
    assert gain and "-> cpu_us_per_op: GAIN" in table
    assert "-> wall_ops_per_s" not in table
    # More CPU per op is a regression on this metric, however consistent.
    slower = [run(100.0, 42.0 + i % 3 * 0.1) for i in range(10)]
    table, gain = pairbench.report(specs, a_runs, slower, "cpu_us_per_op")
    assert not gain and "-> cpu_us_per_op: no gain shown" in table
    assert "B won 0/10" in table


def _checkouts(tmp_path):
    contract = {"end_to_end": [{"name": "wall_ops_per_s", "better": "higher"},
                               {"name": "cpu_us_per_op", "better": "lower"}]}
    for side in ("a", "b"):
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(contract))
    return [str(tmp_path / "a"), str(tmp_path / "b"), "--workload", "w",
            "--seed", "5", "--pairs", "10", "--seconds", "1"]


def test_main_claims_the_named_metric_in_its_direction(tmp_path, monkeypatch,
                                                       capsys):
    def run_once(checkout, workload, seed, seconds):
        cpu = 40.0 if checkout.name == "a" else 38.0
        return {"failed": 0,
                "metrics": {"wall_ops_per_s": {"value": 100.0},
                            "cpu_us_per_op": {"value": cpu}}}

    monkeypatch.setattr(pairbench, "run_once", run_once)
    argv = _checkouts(tmp_path)
    assert pairbench.main(argv + ["--metric", "cpu_us_per_op"]) == 0
    out = capsys.readouterr().out
    assert "pair  1 A: cpu_us_per_op 40" in out
    assert "-> cpu_us_per_op: GAIN" in out
    # The default still claims wall_ops_per_s, tied here: no gain.
    assert pairbench.main(argv) == 1
    assert "-> wall_ops_per_s: no gain shown" in capsys.readouterr().out


def test_main_refuses_a_metric_the_contract_does_not_name(tmp_path,
                                                          monkeypatch):
    def run_once(*args):
        raise AssertionError("nothing runs before the flag is checked")

    monkeypatch.setattr(pairbench, "run_once", run_once)
    with pytest.raises(SystemExit) as refused:
        pairbench.main(_checkouts(tmp_path) + ["--metric", "client.call_p99_us"])
    assert refused.value.code == 2
