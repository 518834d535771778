"""Unit tests for the bench harness itself: sizing, scaling, reporting."""

import pytest

from repro.bench.harness import (
    PAPER_EPC_BYTES,
    RunResult,
    aria_buckets,
    aria_cache_budget,
    auto_pin_levels,
    build_aria,
    build_shieldstore,
    load_and_run,
    run_operations,
    scaled_keys,
    scaled_platform,
)
from repro.bench.report import ExperimentResult, format_ops
from repro.merkle.layout import MerkleLayout
from repro.sgx.costs import SgxPlatform
from repro.workloads.ycsb import Operation, YcsbWorkload


class TestScaling:
    def test_platform_scales_epc_only(self):
        platform = scaled_platform(512)
        assert platform.epc_bytes == PAPER_EPC_BYTES // 512
        assert platform.cpu_hz == scaled_platform(1).cpu_hz

    def test_keys_scale_with_floor(self):
        assert scaled_keys(512) == 10_000_000 // 512
        assert scaled_keys(10**9) == 64  # floor

    def test_scale_preserves_working_set_ratio(self):
        for scale in (64, 512, 4096):
            keys = scaled_keys(scale)
            epc = scaled_platform(scale).epc_bytes
            ratio = keys * 16 / epc  # keyspace bytes per EPC byte
            baseline = scaled_keys(1) * 16 / PAPER_EPC_BYTES
            assert ratio == pytest.approx(baseline, rel=0.05)


class TestSizing:
    def test_cache_budget_positive_at_paper_point(self):
        platform = scaled_platform(512)
        budget = aria_cache_budget(platform, n_keys=scaled_keys(512))
        assert 0 < budget < platform.epc_bytes

    def test_cache_budget_shrinks_with_keys(self):
        platform = scaled_platform(512)
        small = aria_cache_budget(platform, n_keys=10_000)
        large = aria_cache_budget(platform, n_keys=60_000)
        assert large < small

    def test_cache_budget_never_negative(self):
        platform = SgxPlatform(epc_bytes=8192)
        assert aria_cache_budget(platform, n_keys=1_000_000) == 0

    def test_bucket_cap_engages_for_huge_keyspaces(self):
        platform = scaled_platform(2048)
        assert aria_buckets(1_000_000, platform) == platform.epc_bytes // 8
        assert aria_buckets(100, platform) == 50

    def test_auto_pin_levels_bounds(self):
        layout = MerkleLayout(n_counters=20_000, arity=8)
        pin = auto_pin_levels(layout, scaled_platform(512).epc_bytes)
        assert 1 <= pin <= layout.n_levels
        # A tiny EPC pins only the single-node top level.
        assert auto_pin_levels(layout, 256) == 1

    @pytest.mark.parametrize("index", ["hash", "btree", "bplustree"])
    def test_every_index_loads_the_full_keyspace(self, index):
        # The B+-tree seals a separator per leaf besides its records: a
        # counter pool sized for records alone runs dry mid-load and the
        # expansion area it then asks for does not fit the EPC.
        n_keys = scaled_keys(4096)
        store = build_aria(n_keys=n_keys, platform=scaled_platform(4096),
                           index=index)
        workload = YcsbWorkload(n_keys=n_keys, read_ratio=1.0, seed=3)
        store.load(workload.load_items())
        assert len(list(store.index.keys())) == n_keys

    def test_counter_count_is_unchanged_for_hash_and_btree(self):
        # Record-only indexes keep the historical int(n * 1.05) + 8.
        for index in ("hash", "btree"):
            store = build_aria(n_keys=2441, platform=scaled_platform(4096),
                               index=index)
            assert store.config.initial_counters == 2571

    def test_shieldstore_roots_keep_64_of_91_proportion(self):
        platform = scaled_platform(512)
        store = build_shieldstore(n_keys=1000, platform=platform)
        roots = store.epc_report()["shieldstore_roots"]
        assert roots / platform.epc_bytes == pytest.approx(64 / 91, rel=0.02)


class TestRunResults:
    def test_throughput_and_cycles_per_op(self):
        store = build_aria(n_keys=2000, platform=scaled_platform(2048))
        workload = YcsbWorkload(n_keys=2000, read_ratio=1.0, seed=1)
        run = load_and_run(store, workload, 500, scheme="aria",
                           warmup_ops=100)
        assert run.ops == 500
        assert run.cycles_per_op > 0
        assert run.throughput == pytest.approx(
            store.enclave.platform.cpu_hz / run.cycles_per_op, rel=1e-6
        )

    def test_latency_collection(self):
        store = build_aria(n_keys=2000, platform=scaled_platform(2048))
        workload = YcsbWorkload(n_keys=2000, read_ratio=0.95, seed=2)
        store.load(workload.load_items())
        run = run_operations(store, workload.operations(300),
                             collect_latencies=True)
        assert len(run.latencies) == 300
        assert run.percentile(0) <= run.percentile(50) <= run.percentile(99)
        assert sum(run.latencies) == pytest.approx(run.cycles)

    def test_percentile_requires_collection(self):
        run = RunResult(scheme="x", ops=1, cycles=1.0, throughput=1.0)
        with pytest.raises(ValueError):
            run.percentile(50)

    def test_unknown_get_keys_are_tolerated(self):
        # run_operations must not die on a get for an absent key.
        store = build_aria(n_keys=100, platform=scaled_platform(4096))
        run = run_operations(store, [Operation("get", b"missing")])
        assert run.ops == 1


class TestReport:
    def make_result(self):
        result = ExperimentResult(
            exp_id="Fig X", title="demo",
            columns=["scheme", "throughput ops/s"],
        )
        result.add_row(scheme="a", **{"throughput ops/s": 1_500_000.0})
        result.add_row(scheme="b", **{"throughput ops/s": 900.0})
        return result

    def test_format_ops(self):
        assert format_ops(1_500_000) == "1.50M"
        assert format_ops(25_000) == "25k"
        assert format_ops(900) == "900"

    def test_render_contains_rows_and_title(self):
        text = self.make_result().render()
        assert "Fig X" in text
        assert "1.50M" in text
        assert "900" in text

    def test_where_and_throughput(self):
        result = self.make_result()
        assert result.throughput(scheme="a") == 1_500_000.0
        assert len(result.where(scheme="b")) == 1
        with pytest.raises(KeyError):
            result.throughput(scheme="zzz")

    def test_notes_rendered(self):
        result = self.make_result()
        result.note("hello note")
        assert "note: hello note" in result.render()
