"""Enclave facade and EPC budget tests."""

import pytest

from repro.errors import CapacityError, IntegrityError
from repro.sgx.costs import CostModel, SgxPlatform
from repro.sgx.enclave import Enclave
from repro.sgx.epc import EpcBudget
from repro.sgx.meter import CycleMeter, MeterPause


def small_enclave(**kwargs):
    return Enclave(SgxPlatform(epc_bytes=1 << 20), **kwargs)


class TestEpcBudget:
    def test_reserve_and_release(self):
        budget = EpcBudget(capacity=1000)
        budget.reserve("cache", 600)
        budget.reserve("bitmap", 300)
        assert budget.used == 900
        assert budget.free == 100
        budget.release("cache", 200)
        assert budget.used == 700

    def test_over_capacity_raises(self):
        budget = EpcBudget(capacity=100)
        with pytest.raises(CapacityError):
            budget.reserve("cache", 101)

    def test_release_more_than_held_raises(self):
        budget = EpcBudget(capacity=100)
        budget.reserve("cache", 10)
        with pytest.raises(ValueError):
            budget.release("cache", 20)

    def test_usage_report_names_consumers(self):
        budget = EpcBudget(capacity=1000)
        budget.reserve("secure_cache", 500)
        budget.reserve("bitmap", 100)
        assert budget.usage_report() == {"bitmap": 100, "secure_cache": 500}


class TestEnclave:
    def test_edge_calls_charge_published_costs(self):
        enc = small_enclave()
        enc.ecall()
        enc.ocall()
        assert enc.meter.events["ecall"] == 1
        assert enc.meter.events["ocall"] == 1
        assert enc.meter.cycles == enc.costs.ecall + enc.costs.ocall

    def test_untrusted_read_write_roundtrip_and_charges(self):
        enc = small_enclave()
        addr = enc.untrusted.alloc(64)
        enc.write_untrusted(addr, b"payload")
        assert enc.read_untrusted(addr, 7) == b"payload"
        assert enc.meter.events["untrusted_access"] == 2
        assert enc.meter.cycles == pytest.approx(2 * enc.costs.untrusted_access)

    def test_mac_verify_and_require(self):
        enc = small_enclave()
        tag = enc.mac(b"message")
        assert enc.mac_verify(b"message", tag)
        enc.require_mac(b"message", tag, "record")  # no raise
        with pytest.raises(IntegrityError, match="record"):
            enc.require_mac(b"messagX", tag, "record")

    def test_encrypt_decrypt_roundtrip_charges_enc_bytes(self):
        enc = small_enclave()
        counter = (9).to_bytes(16, "little")
        ciphertext = enc.encrypt(counter, b"secret value")
        assert ciphertext != b"secret value"
        assert enc.decrypt(counter, ciphertext) == b"secret value"
        assert enc.meter.events["enc_bytes"] == 24

    def test_paged_heap_reserves_epc(self):
        enc = Enclave(SgxPlatform(epc_bytes=10 * 4096), paged_heap_pages=10)
        assert enc.epc.free == 0
        assert enc.paged_heap is not None

    def test_throughput_conversion(self):
        enc = small_enclave()
        before = enc.meter.snapshot()
        enc.meter.charge(4.2e9)  # one second worth of cycles
        assert enc.throughput(1000, before) == pytest.approx(1000.0)

    def test_hash_key_deterministic(self):
        enc = small_enclave()
        assert enc.hash_key(b"alpha") == enc.hash_key(b"alpha")
        assert enc.hash_key(b"alpha") != enc.hash_key(b"beta")

    def test_real_backend_selectable(self):
        enc = small_enclave(crypto_backend="real")
        counter = (1).to_bytes(16, "little")
        assert enc.decrypt(counter, enc.encrypt(counter, b"x" * 20)) == b"x" * 20


class TestMeter:
    def test_snapshot_delta(self):
        meter = CycleMeter()
        meter.charge_event("ecall", 100.0)
        before = meter.snapshot()
        meter.charge_event("ecall", 50.0)
        delta = before.delta(meter.snapshot())
        assert delta.cycles == 50.0
        assert delta.events["ecall"] == 1

    def test_pause_suspends_charging(self):
        meter = CycleMeter()
        with MeterPause(meter):
            meter.charge_event("ocall", 1000.0)
        assert meter.cycles == 0.0
        assert meter.events["ocall"] == 0
        meter.charge(10.0)
        assert meter.cycles == 10.0

    def test_pause_nests(self):
        meter = CycleMeter()
        with MeterPause(meter):
            with MeterPause(meter):
                meter.charge(5.0)
            meter.charge(5.0)
        assert meter.cycles == 0.0


class TestCostModel:
    def test_access_cost_scales_beyond_cacheline(self):
        costs = CostModel()
        assert costs.access_cost(8, in_epc=False) == costs.untrusted_access
        assert costs.access_cost(64, in_epc=False) == costs.untrusted_access
        assert costs.access_cost(128, in_epc=False) > costs.untrusted_access

    def test_epc_access_costs_more_than_untrusted(self):
        costs = CostModel()
        assert costs.access_cost(64, in_epc=True) > costs.access_cost(64, in_epc=False)

    def test_scaled_override(self):
        costs = CostModel().scaled(ocall=0.0)
        assert costs.ocall == 0.0
        assert costs.ecall == CostModel().ecall

    def test_platform_scaled(self):
        platform = SgxPlatform(epc_bytes=1024)
        assert platform.scaled(0.5).epc_bytes == 512
        assert platform.scaled(0.5).cpu_hz == platform.cpu_hz


# -- one formula, two spellings ------------------------------------------------
#
# ``CostModel.access_cost/mac_cost/enc_cost`` + ``CycleMeter.charge_event`` are
# the public definition of a charge; ``Enclave``'s primitives spell the same
# arithmetic inline so that one simulated primitive is one Python call.  Under a
# cost model where nothing is a power of two, "the same" means the same float.

NON_DYADIC = CostModel().scaled(
    untrusted_access=101.3, epc_access=203.7, mem_per_byte=0.37,
    mac_base=811.1, mac_per_byte=4.1, enc_base=503.3, enc_per_byte=2.7,
    hash_compute=31.3, compare_per_byte=0.23, ecall=10_007.9, ocall=9_991.3,
)
SIZES = [0, 1, 63, 64, 65, 4096]
COUNTER = (5).to_bytes(16, "little")


def _primitives(enc, size, addr):
    """name -> (call, expected cycles, expected event deltas)."""
    costs = enc.costs
    data = bytes(size)
    untrusted = costs.access_cost(size, in_epc=False)
    in_epc = costs.access_cost(size, in_epc=True)
    return {
        "read_untrusted": (lambda: enc.read_untrusted(addr, size),
                           untrusted, {"untrusted_access": 1}),
        "write_untrusted": (lambda: enc.write_untrusted(addr, data),
                            untrusted, {"untrusted_access": 1}),
        "epc_touch": (lambda: enc.epc_touch(size), in_epc, {"epc_access": 1}),
        "epc_copy_in": (lambda: enc.epc_copy_in(size), [untrusted, in_epc],
                        {"untrusted_access": 1, "epc_access": 1}),
        "mac": (lambda: enc.mac(data), costs.mac_cost(size),
                {"mac_bytes": size, "mac_ops": 1}),
        "mac_verify": (lambda: enc.mac_verify(data, bytes(16)),
                       costs.mac_cost(size), {"mac_bytes": size, "mac_ops": 1}),
        "encrypt": (lambda: enc.encrypt(COUNTER, data), costs.enc_cost(size),
                    {"enc_bytes": size}),
        "decrypt": (lambda: enc.decrypt(COUNTER, data), costs.enc_cost(size),
                    {"enc_bytes": size}),
        "hash_key": (lambda: enc.hash_key(data), costs.hash_compute, {}),
        "compare": (lambda: enc.compare(data, b"ab"),
                    costs.compare_per_byte * max(size, 2), {}),
        "ecall": (enc.ecall, costs.ecall, {"ecall": 1}),
        "ocall": (enc.ocall, costs.ocall, {"ocall": 1}),
        "work": (lambda: enc.work(7.7), 7.7, {}),
    }


PRIMITIVES = sorted(_primitives(small_enclave(), 1, 0))


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", PRIMITIVES)
class TestPrimitiveCharges:
    def _fixture(self, name, size):
        enc = Enclave(SgxPlatform(epc_bytes=1 << 20, costs=NON_DYADIC))
        addr = enc.untrusted.alloc(max(size, 1))
        # Start from a non-trivial total so a mis-associated sum would show.
        enc.meter.cycles = 12_345.678_9
        call, cost, events = _primitives(enc, size, addr)[name]
        return enc, call, cost, events

    def test_charge_equals_the_cost_model_exactly(self, name, size):
        enc, call, cost, events = self._fixture(name, size)
        expected = enc.meter.cycles
        for part in cost if isinstance(cost, list) else [cost]:
            expected += part          # one addition per charge, in order
        call()
        assert enc.meter.cycles == expected
        assert dict(enc.meter.events) == events
        assert list(enc.meter.events) == list(events)   # insertion order too

    def test_paused_meter_moves_neither_cycles_nor_events(self, name, size):
        enc, call, _, _ = self._fixture(name, size)
        before = enc.meter.cycles
        with MeterPause(enc.meter):
            call()
        assert enc.meter.cycles == before
        assert not enc.meter.events
