"""The multi-tenant front door against a running cluster, on every backend.

``test_tenant_partition.py`` proves the primitives below the cluster
(prefix algebra, cache partition bookkeeping, one partitioned store);
this module proves the *wired* behaviour on the inline, process, and
socket shard backends: tenant-authenticated handshakes as the only way
to state a principal, per-tenant admission with tenant-correct
``retry_after`` hints, the whale-and-minnows fairness gauntlet (the T1
acceptance bar), and the two identity checks — armed-but-idle tenancy is
bit-identical to an unarmed cluster, and simulated cycles are
bit-identical across backends.  Everything is deterministic: buckets run
on an injected clock and workloads come from seeded RNGs.
"""

import json
import random
import socket

import pytest

from repro.cluster import (
    ClusterClient,
    ClusterConfig,
    TenancyConfig,
    TenantConfig,
    serve,
)
from repro.cluster.framing import read_frame, write_frame
from repro.cluster.tenancy import tenant_prefix
from repro.errors import HandshakeError
from repro.server import protocol
from repro.server.protocol import STATUS_NOT_FOUND, STATUS_OK, STATUS_OVERLOADED

pytestmark = pytest.mark.tenant


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def roster(whale_rate=None, whale_burst=None, require_auth=False):
    return TenancyConfig(
        tenants=(
            TenantConfig("whale", rate=whale_rate, burst=whale_burst,
                         cache_quota=0.2),
            TenantConfig("minnow", cache_quota=0.3),
        ),
        require_auth=require_auth,
    )


def base_config(tenancy, **overrides):
    fields = dict(n_shards=2, n_keys=256, scale=2048, batch_window=8,
                  tenancy=tenancy)
    fields.update(overrides)
    return ClusterConfig(**fields)


# -- tenant-authenticated handshakes over the wire --------------------------------


class TestTenantHandshake:
    @pytest.fixture()
    def tenant_server(self, cluster_backend):
        server = serve(base_config(roster()))
        yield server
        server.close()

    def test_authenticated_session_and_namespace_isolation(
            self, tenant_server):
        host, port = tenant_server.server.address
        with ClusterClient.connect(host, port, tenant="whale") as whale:
            assert whale.session_info()["tenant"] == "whale"
            assert whale.put(b"shared-name", b"whale-value").status == \
                STATUS_OK
        with ClusterClient.connect(host, port, tenant="minnow") as minnow:
            # The same user-visible key, invisible across the fence.
            assert minnow.get(b"shared-name").status == STATUS_NOT_FOUND
            assert minnow.put(b"shared-name", b"minnow-value").status == \
                STATUS_OK
        with ClusterClient.connect(host, port, tenant="whale") as whale:
            assert whale.get(b"shared-name").value == b"whale-value"

    def test_bad_credential_is_refused(self, tenant_server):
        host, port = tenant_server.server.address
        with pytest.raises(HandshakeError):
            ClusterClient.connect(host, port, tenant="whale",
                                  credential=b"\x00" * 16)

    def test_unknown_tenant_is_refused(self, tenant_server):
        host, port = tenant_server.server.address
        with pytest.raises(HandshakeError):
            ClusterClient.connect(host, port, tenant="stranger")

    def test_anonymous_secure_session_still_served(self, tenant_server):
        # require_auth is off: arming tenancy is not a flag day.
        host, port = tenant_server.server.address
        with ClusterClient.connect(host, port) as client:
            assert client.session_info()["tenant"] is None
            assert client.put(b"anon", b"ok").status == STATUS_OK
            assert client.get(b"anon").value == b"ok"

    def test_require_auth_rejects_anonymous_sessions(self, cluster_backend):
        server = serve(base_config(roster(require_auth=True)))
        try:
            host, port = server.server.address
            with pytest.raises(HandshakeError):
                ClusterClient.connect(host, port)
            with ClusterClient.connect(host, port, tenant="minnow") as c:
                assert c.put(b"k", b"v").status == STATUS_OK
        finally:
            server.close()

    def test_forged_claim_on_anonymous_session_is_rejected(
            self, tenant_server):
        host, port = tenant_server.server.address
        self.seed_whale(host, port)
        with ClusterClient.connect(host, port) as client:
            # No frame can name a principal: what used to be a tenant
            # envelope is an over-cap batch count, refused whole.
            client.send_frame(old_tenant_envelope(
                "whale", [protocol.put(b"k", b"forged")]))
            assert protocol.is_batch_rejection(
                protocol.decode_batch_responses(client.recv_frame()))
            # The refusal is per-frame: the session keeps serving,
            # anonymously.
            assert client.get(b"k").status == STATUS_NOT_FOUND
            assert client.session_info()["tenant"] is None
        with ClusterClient.connect(host, port, tenant="whale") as whale:
            assert whale.get(b"k").value == b"whale-data"

    def test_cross_tenant_claim_on_authenticated_session_is_rejected(
            self, tenant_server):
        host, port = tenant_server.server.address
        self.seed_whale(host, port)
        with ClusterClient.connect(host, port, tenant="minnow") as minnow:
            sealed = minnow._session.seal(old_tenant_envelope(
                "whale", [protocol.put(b"k", b"forged")]))
            write_frame(minnow._sock, sealed)
            assert protocol.is_batch_rejection(
                protocol.decode_batch_responses(minnow.recv_frame()))
            # Still the minnow, on the same session.
            assert minnow.get(b"k").status == STATUS_NOT_FOUND
            assert minnow.session_info()["tenant"] == "minnow"
        with ClusterClient.connect(host, port, tenant="whale") as whale:
            assert whale.get(b"k").value == b"whale-data"

    @staticmethod
    def seed_whale(host, port):
        with ClusterClient.connect(host, port, tenant="whale") as whale:
            assert whale.put(b"k", b"whale-data").status == STATUS_OK


def old_tenant_envelope(tenant_id, requests):
    """The deleted in-payload claim: ``F6 FF | t_len | tenant_id | batch``."""
    raw = tenant_id.encode()
    return b"\xf6\xff" + bytes([len(raw)]) + raw \
        + protocol.encode_batch(requests)


# -- a principal is only what a handshake authenticated ---------------------------


class TestNoPrincipalWithoutAHandshake:
    """Three ways a frame could once act as a tenant it never proved to
    be; each probe was answered ``OK b"whale-data"`` before it was closed."""

    @staticmethod
    def serving(require_auth):
        server = serve(base_config(roster(require_auth=require_auth)))
        try:
            host, port = server.server.address
            with ClusterClient.connect(host, port, tenant="whale") as whale:
                assert whale.put(b"secret", b"whale-data").status == \
                    STATUS_OK
            yield server, host, port
        finally:
            server.close()

    @pytest.fixture()
    def door(self, cluster_backend):
        yield from self.serving(require_auth=False)

    @pytest.fixture()
    def strict_door(self, cluster_backend):
        yield from self.serving(require_auth=True)

    def test_a_plaintext_client_cannot_name_a_tenant(self, strict_door):
        server, host, port = strict_door
        # The bytes a plaintext client used to send buy nothing.
        with socket.create_connection((host, port), timeout=5.0) as sock:
            write_frame(sock, old_tenant_envelope(
                "whale", [protocol.get(b"secret")]))
            assert read_frame(sock) == protocol.BATCH_REJECTION
            assert sock.recv(1) == b""  # not a session frame: hung up
        assert server.server.wire_stats()["plaintext_rejections"] == 1

    def test_an_anonymous_key_cannot_spell_a_tenant_prefix(self, door):
        server, host, port = door
        coordinator = server.server.coordinator
        crafted = tenant_prefix("whale") + b"secret"
        routed = coordinator.ops_routed, [
            shard.ops_routed for shard in coordinator.shard_list()]
        with ClusterClient.connect(host, port) as anon:
            responses = anon.request_batch([
                protocol.get(crafted), protocol.put(crafted, b"forged"),
                protocol.delete(crafted), protocol.put(b"mine", b"ok"),
                # Looks like a prefix, names nobody on the roster.
                protocol.put(tenant_prefix("stranger") + b"x", b"ok"),
            ])
        assert [r.status for r in responses] == \
            [STATUS_OVERLOADED] * 3 + [STATUS_OK] * 2
        for shed in responses[:3]:
            assert protocol.retry_after_hint(shed) == 0.0
            assert protocol.overload_reason(shed) == \
                b"tenant namespace, no principal"
        # Typed, counted, never routed to a shard.
        assert coordinator.tenancy.stats()["unknown_shed"] == 3
        assert coordinator.ops_routed == routed[0] + 5
        assert sum(s.ops_routed for s in coordinator.shard_list()) == \
            sum(routed[1]) + 2
        with ClusterClient.connect(host, port, tenant="whale") as whale:
            assert whale.get(b"secret").value == b"whale-data"


# -- per-tenant admission at the coordinator --------------------------------------


class TestTenantAdmission:
    def build(self, clock, whale_rate=10.0, whale_burst=2.0,
              minnow_rate=1000.0, minnow_burst=2.0):
        tenancy = TenancyConfig(tenants=(
            TenantConfig("whale", rate=whale_rate, burst=whale_burst),
            TenantConfig("minnow", rate=minnow_rate, burst=minnow_burst),
        ))
        return base_config(tenancy).build(clock=clock)

    def test_sheds_carry_the_tenants_own_refill_time(self, cluster_backend):
        clock = FakeClock()
        coord = self.build(clock)
        try:
            batch = [protocol.put(b"key-%d" % i, b"v") for i in range(5)]
            whale = coord.execute(batch, tenant="whale")
            minnow = coord.execute(batch, tenant="minnow")
            for responses, rate in ((whale, 10.0), (minnow, 1000.0)):
                assert [r.status for r in responses] == \
                    [STATUS_OK] * 2 + [STATUS_OVERLOADED] * 3
                for shed in responses[2:]:
                    # The hint prices *this tenant's* bucket deficit —
                    # never a global gate's countdown (rounded up to ms).
                    assert protocol.retry_after_hint(shed) == \
                        pytest.approx(1.0 / rate, abs=1e-3)
            assert b"tenant rate limit: whale" in \
                protocol.overload_reason(whale[2])
            stats = coord.tenancy.stats()
            assert stats["admitted"] == {"whale": 2, "minnow": 2}
            assert stats["shed"] == {"whale": 3, "minnow": 3}
            # One-and-a-half refill intervals later the whale has earned
            # exactly one slot (1.5 tokens: one acquire, then shed again).
            clock.advance(0.15)
            [ok, shed] = coord.execute(batch[:2], tenant="whale")
            assert ok.status == STATUS_OK
            assert shed.status == STATUS_OVERLOADED
        finally:
            coord.close()

    def test_unknown_tenant_is_shed_not_served(self, cluster_backend):
        coord = self.build(FakeClock())
        try:
            [r] = coord.execute([protocol.put(b"k", b"v")],
                                tenant="stranger")
            assert r.status == STATUS_OVERLOADED
            assert protocol.overload_reason(r) == b"unknown tenant"
            assert coord.tenancy.stats()["unknown_shed"] == 1
        finally:
            coord.close()

    def test_anonymous_traffic_bypasses_tenant_buckets(self, cluster_backend):
        coord = self.build(FakeClock(), whale_rate=1.0, whale_burst=1.0)
        try:
            batch = [protocol.put(b"key-%d" % i, b"v") for i in range(16)]
            assert all(r.status == STATUS_OK
                       for r in coord.execute(batch))
        finally:
            coord.close()


# -- the whale-and-minnows gauntlet (T1 acceptance bar) ---------------------------


class TestWhaleMinnowGauntlet:
    ROUNDS = 4
    MINNOW_OPS = 3  # put + get + one extra get per round

    def minnow_round(self, client, round_no, acked):
        key = b"minnow-%02d" % round_no
        value = b"m-%02d" % round_no
        statuses = []
        put = client.put(key, value)
        statuses.append(put.status)
        if put.status == STATUS_OK:
            acked[key] = value
        get = client.get(key)
        statuses.append(get.status)
        reread = client.get(b"minnow-00")
        statuses.append(reread.status)
        return sum(1 for s in statuses if s == STATUS_OK)

    def run_minnow_phase(self, host, port, with_whale):
        acked = {}
        ok = 0
        with ClusterClient.connect(host, port, tenant="minnow") as minnow:
            whale = None
            try:
                if with_whale:
                    whale = ClusterClient.connect(host, port, tenant="whale")
                whale_responses = []
                for round_no in range(self.ROUNDS):
                    if whale is not None:
                        whale_responses.extend(whale.request_batch(
                            [protocol.put(b"w-%02d-%d" % (round_no, i),
                                          b"W" * 32)
                             for i in range(8)]))
                    ok += self.minnow_round(minnow, round_no, acked)
            finally:
                if whale is not None:
                    whale.close()
        return ok, acked, whale_responses if with_whale else []

    def test_minnow_goodput_holds_under_whale_flood(self, cluster_backend):
        clock = FakeClock()
        server = serve(base_config(roster(whale_rate=50.0, whale_burst=5.0)),
                       clock=clock)
        try:
            host, port = server.server.address
            solo_ok, solo_acked, _ = self.run_minnow_phase(
                host, port, with_whale=False)
            stormy_ok, acked, whale_responses = self.run_minnow_phase(
                host, port, with_whale=True)

            # The acceptance bar: minnow goodput >= 0.8 of solo.
            assert solo_ok == self.ROUNDS * self.MINNOW_OPS
            assert stormy_ok >= 0.8 * solo_ok

            # The whale was shed — typed, with its own bucket's refill
            # time as the hint (the clock never advances, so every shed
            # prices the same one-token deficit).
            sheds = [r for r in whale_responses
                     if r.status == STATUS_OVERLOADED]
            assert len(sheds) == len(whale_responses) - 5  # burst admits 5
            for shed in sheds:
                assert protocol.retry_after_hint(shed) == \
                    pytest.approx(1.0 / 50.0, abs=1e-3)
                assert b"tenant rate limit: whale" in \
                    protocol.overload_reason(shed)

            # Zero acked-write loss: every OK-acked minnow put reads back.
            with ClusterClient.connect(host, port, tenant="minnow") as m:
                for key, value in sorted(acked.items()):
                    assert m.get(key).value == value

            # The shed ledger charges the offender, visible on OP_HEALTH.
            with ClusterClient.connect(host, port, tenant="minnow") as m:
                [health] = m.request_batch([protocol.health()])
            tenancy = json.loads(health.value)["tenancy"]
            assert tenancy["shed"]["whale"] == len(sheds)
            assert tenancy["shed"]["minnow"] == 0
            assert tenancy["admitted"]["minnow"] > 0
        finally:
            server.close()


# -- the two identity checks ------------------------------------------------------


def scripted_workload(coord, seed=1234):
    """A deterministic tenant-labelled workload; returns (outputs, cycles)."""
    rng = random.Random(seed)
    outputs = []
    for _ in range(4):
        for tenant in ("whale", "minnow"):
            batch = []
            for _ in range(12):
                key = b"key-%04d" % rng.randrange(64)
                if rng.random() < 0.5:
                    batch.append(protocol.put(
                        key, b"v-%d" % rng.randrange(1000)))
                else:
                    batch.append(protocol.get(key))
            outputs.extend(coord.execute(batch, tenant=tenant))
    cycles = sum(s.meter.cycles for s in coord.shard_list())
    return [(r.status, bytes(r.value)) for r in outputs], cycles


class TestTenancyIdentity:
    def test_cycles_bit_identical_to_an_inline_twin(self, cluster_backend):
        """The backend never leaks into the simulation: the same tenant
        workload on this backend and on an explicit inline build lands on
        identical responses and identical simulated cycles — bucket sheds
        included, because both clusters run the same frozen clock."""
        def drive(backend):
            config = base_config(roster(whale_rate=50.0, whale_burst=20.0),
                                 backend=backend)
            coord = config.build(clock=FakeClock())
            try:
                return scripted_workload(coord)
            finally:
                coord.close()

        this_out, this_cycles = drive(None)  # the parametrized default
        inline_out, inline_cycles = drive("inline")
        assert this_out == inline_out
        assert this_cycles == inline_cycles

    def test_armed_idle_tenancy_is_bit_identical_to_unarmed(
            self, cluster_backend):
        """Tenancy armed (roster, buckets, cache quotas) + purely
        anonymous traffic == the pre-tenancy cluster, bit for bit."""
        def drive(tenancy):
            coord = base_config(tenancy).build(clock=FakeClock())
            try:
                rng = random.Random(77)
                outputs = []
                for _ in range(6):
                    batch = []
                    for _ in range(16):
                        key = b"key-%04d" % rng.randrange(64)
                        if rng.random() < 0.5:
                            batch.append(protocol.put(
                                key, b"v-%d" % rng.randrange(1000)))
                        else:
                            batch.append(protocol.get(key))
                    outputs.extend(coord.execute(batch))
                cycles = sum(s.meter.cycles for s in coord.shard_list())
                return ([(r.status, bytes(r.value)) for r in outputs],
                        cycles)
            finally:
                coord.close()

        plain_out, plain_cycles = drive(None)
        armed_out, armed_cycles = drive(roster(whale_rate=50.0,
                                               whale_burst=5.0))
        assert armed_out == plain_out
        assert armed_cycles == plain_cycles  # bit-identical, not "close"
