import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

from perfbench import compare, tracing
from perfbench.inputs import Model, OpStream, make_value

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN_PY = os.path.join(ROOT, "perfbench", "run.py")


@pytest.fixture(scope="module")
def contract():
    return compare.load_contract()


@pytest.fixture(scope="module")
def quick_bench(tmp_path_factory):
    """All five workloads, two untraced runs + one traced each, --quick."""
    out = tmp_path_factory.mktemp("bench") / "BENCH_quick.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench", "run", "--quick", "--repeat", "2",
         "--seed", "5", "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout + done.stderr
    with open(out) as handle:
        return json.load(handle), elapsed, done.stdout


def test_quick_mode_is_quick(quick_bench):
    _, elapsed, _ = quick_bench
    assert elapsed < 60, f"--quick took {elapsed:.0f} s"


def test_metric_names_equal_the_contract(quick_bench, contract):
    bench, _, printed = quick_bench
    assert sorted(bench["workloads"]) == sorted(
        w["name"] for w in contract["workloads"])
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    for name, row in bench["workloads"].items():
        assert {k: v["unit"] for k, v in row["end_to_end"].items()} \
            == end_to_end, name
        assert {k: v["unit"] for k, v in row["per_layer"].items()} \
            == per_layer, name
        assert row["trace_targets_missing"] == [], name
    for metric in list(end_to_end) + list(per_layer):
        assert f"  {metric} " in printed  # every metric printed by name


def test_repeats_are_bit_equal_and_correct(quick_bench):
    bench, _, _ = quick_bench
    for name, row in bench["workloads"].items():
        assert row["failed"] == 0 and row["failed_ops_share"] == 0.0, name
        for metric in ("sim_cycles_per_op", "sim_ops_per_s"):
            values = row["end_to_end"][metric]["values"]
            assert len(values) == 2 and values[0] == values[1], (name, metric)
            assert row["exact"][metric]["value"] == values[0]
        assert len(row["input_sha256"]) == len(row["responses_sha256"]) == 64


def test_layer_self_times_fit_inside_the_calls(quick_bench):
    bench, _, _ = quick_bench
    for name, row in bench["workloads"].items():
        layers = row["per_layer"]
        # call time - sum of layer self time, per op: never negative.
        assert layers["trace.unattributed_us_per_op"]["value"] >= 0.0, name
        assert layers["trace.overhead_ratio"]["value"] > 0.5, name
        assert layers["trace.span_overhead_ns"]["value"] > 0.0, name
        busiest = max(v["value"] for k, v in layers.items()
                      if k.endswith(".self_us_per_op"))
        assert busiest > 0.0, name


def test_each_workload_reaches_the_layers_it_is_for(quick_bench):
    layers = {name: row["per_layer"]
              for name, row in quick_bench[0]["workloads"].items()}

    def calls(workload, layer):
        return layers[workload][f"{layer}.calls_per_op"]["value"]

    for store in ("store_zipf_rd95", "store_uniform_wr50"):
        assert calls(store, "core.store") == 1.0
        for absent in ("cluster.coordinator", "cluster.netserver",
                       "cluster.remote", "persist", "server.server"):
            assert calls(store, absent) == 0.0, (store, absent)
    assert calls("door_inline_rd95", "cluster.netserver") > 0
    assert calls("door_inline_rd95", "cluster.remote") == 0
    assert calls("hop_socket_wr50", "cluster.remote") > 0
    assert calls("hop_socket_wr50", "cluster.netserver") == 0
    assert calls("hop_socket_wr50", "core.store") == 0  # lives in the hosts
    assert layers["hop_socket_wr50"][
        "cluster.remote.host_cpu_us_per_op"]["value"] > 0
    assert calls("durable_r2_wr100", "persist") > 0
    assert calls("durable_r2_wr100", "cluster.replication") > 0
    durable = layers["durable_r2_wr100"]
    assert durable["persist.dur_bytes_per_user_byte"]["value"] > 1.0
    assert durable["persist.recover_s"]["value"] > 0.0


def _driver_run(*extra, cwd=ROOT, run_py=RUN_PY):
    return subprocess.run(
        [sys.executable, run_py, "--workload", "door_inline_rd95",
         "--seed", "3", "--seconds", "1", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_driver_contract_line(contract, trace, section):
    done = _driver_run("--trace", trace, "--quick")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in contract[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    if section == "end_to_end":
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_the_benchmark_refuses(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = _driver_run("--trace", "0", cwd=tmp_path,
                       run_py=str(tmp_path / "perfbench" / "run.py"))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_compare_passes_a_over_a_and_flags_what_it_must(quick_bench,
                                                        contract):
    bench, _, _ = quick_bench
    lines, regressed = compare.compare(bench, bench, contract)
    assert regressed == 0
    assert not any(line.endswith("regressed") for line in lines)

    # A slowdown past the metric's bound, on runs that agree with each
    # other (two --quick runs need not).
    bound = next(m["bound"] for m in contract["end_to_end"]
                 if m["name"] == "wall_ops_per_s")
    steady = copy.deepcopy(bench)
    row = steady["workloads"]["store_zipf_rd95"]["end_to_end"]
    row["wall_ops_per_s"]["values"] = [30_000.0, 30_100.0]
    slow = copy.deepcopy(steady)
    row = slow["workloads"]["store_zipf_rd95"]["end_to_end"]
    row["wall_ops_per_s"]["values"] = [
        v * (1 - bound - 0.05) for v in row["wall_ops_per_s"]["values"]]
    assert compare.compare(steady, steady, contract)[1] == 0
    lines, regressed = compare.compare(steady, slow, contract)
    assert regressed == 1
    flagged = [line for line in lines if line.endswith("regressed")]
    assert len(flagged) == 1 and "store_zipf_rd95" in flagged[0] \
        and "wall_ops_per_s" in flagged[0]

    drift = copy.deepcopy(bench)
    row = drift["workloads"]["hop_socket_wr50"]
    ops = sum(bench["workloads"]["hop_socket_wr50"]["timed_ops"])
    cycles = row["end_to_end"]["sim_cycles_per_op"]
    cycles["values"] = [v + 1.0 / ops for v in cycles["values"]]
    row["exact"]["sim_cycles_per_op"]["value"] += 1.0 / ops
    lines, regressed = compare.compare(bench, drift, contract)
    assert regressed == 2  # the end-to-end row and the exact-counter row
    assert all("hop_socket_wr50" in line for line in lines
               if "regressed" in line)


def test_compare_reports_wide_spreads_as_unresolved():
    assert compare.judge([100, 101, 99], [100, 102, 98], "higher", 0.1) == "ok"
    assert compare.judge([100, 101, 99], [80, 81, 79], "higher", 0.1) \
        == "regressed"
    assert compare.judge([100, 140, 70], [95, 130, 60], "higher", 0.1) \
        == "unresolved"
    # Wide, but every run of B is worse than every run of A: resolved.
    assert compare.judge([100, 140, 90], [50, 70, 45], "higher", 0.1) \
        == "regressed"
    assert compare.judge([10, 10.2], [12, 12.1], "lower", 0.1) == "regressed"


def test_inputs_depend_only_on_the_seed():
    first = OpStream(1000, "zipf", 0.5, seed=7).take(5000)
    again = OpStream(1000, "zipf", 0.5, seed=7).take(5000)
    other = OpStream(1000, "zipf", 0.5, seed=8).take(5000)
    assert first == again and first != other
    ids, puts = first
    assert max(ids) < 1000 and 0.4 < sum(puts) / len(puts) < 0.6
    # Contiguous-rank zipf: key 0 is the hottest, the head dominates.
    assert ids.count(0) > ids.count(1) > ids.count(50)
    assert sum(1 for i in ids if i < 100) > len(ids) // 2
    uniform, _ = OpStream(1000, "uniform", 0.0, seed=7).take(5000)
    assert sum(1 for i in uniform if i < 100) < len(uniform) // 5


def test_values_are_versioned():
    model = Model(4, 32)
    assert len(model.values[3]) == 32
    assert make_value(3, 1, 32) != make_value(3, 2, 32) != model.values[3]
    with pytest.raises(ValueError):
        Model(4, 20)


def test_tracer_restores_every_callable():
    from repro.cluster import netserver
    from repro.core.store import AriaStore
    from repro.persist import durability
    from repro.server import protocol
    import socket

    originals = (AriaStore.get, protocol.encode_batch,
                 durability.encode_batch, netserver.ClusterClient.send_frame)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        assert AriaStore.get is not originals[0]
        # A function imported by name elsewhere is patched there too.
        assert durability.encode_batch is protocol.encode_batch \
            is not originals[1]
        assert "recv" in vars(socket.socket)
    finally:
        tracer.uninstall()
    assert (AriaStore.get, protocol.encode_batch, durability.encode_batch,
            netserver.ClusterClient.send_frame) == originals
    assert "recv" not in vars(socket.socket)


def test_host_speed_is_a_share_of_the_reference():
    from perfbench import hostspeed

    reference = hostspeed.Probe(hostspeed.REFERENCE_S, hostspeed.REFERENCE_S)
    slow = hostspeed.Probe(2 * hostspeed.REFERENCE_S,
                           4 * hostspeed.REFERENCE_S)
    assert hostspeed.speed(reference, reference) == (1.0, 1.0)
    assert hostspeed.speed(slow) == (0.5, 0.25)
    taken = hostspeed.probe()
    assert 0 < taken.cpu_s and 0 < taken.wall_s < 1.0
