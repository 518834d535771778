"""The typed construction surface: ClusterConfig precedence, validation,
the one enclave recipe, and the serve() lifecycle.

The contract under test (ARCHITECTURE §16): one config object is the only
way to describe a cluster and one :class:`EnclaveSpec` the only way to
describe an enclave; precedence is explicit argument > config >
environment, with the environment resolved *once* by ``from_env``; the
keyword factories are gone, and what the typed door builds is pinned bit
for bit (``tests/test_cluster_build_golden.py``).
"""

import hashlib
import pickle
import random
from dataclasses import replace

import pytest

from repro.cluster import (
    BACKEND_NAMES,
    ClusterClient,
    ClusterConfig,
    DurabilityConfig,
    EnclaveSpec,
    TenancyConfig,
    TenantConfig,
    build_replicated_cluster,
    resolve_backend,
    serve,
)
from repro.cluster.backend import BACKEND_ENV_VAR
from repro.cluster.shard import WORKERS_ENV_VAR
from repro.core.tenant import tenant_token
from repro.errors import ConfigurationError, InvalidWorkersError
from repro.server import protocol
from repro.server.protocol import STATUS_OK, Status

pytestmark = pytest.mark.tenant


def small(**overrides):
    fields = dict(n_shards=2, n_keys=128, scale=2048, batch_window=8)
    fields.update(overrides)
    return ClusterConfig(**fields)


# -- validation -------------------------------------------------------------------


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("n_shards", 0), ("n_keys", 0), ("scale", 0),
        ("batch_window", 0), ("replication", 0), ("workers", 0),
    ])
    def test_rejects_out_of_range_fields(self, field, value):
        with pytest.raises(ConfigurationError):
            ClusterConfig(**{field: value})

    def test_durability_config_validates(self):
        with pytest.raises(ConfigurationError):
            DurabilityConfig(data_dir="")
        with pytest.raises(ConfigurationError):
            DurabilityConfig(data_dir="/tmp/x", epoch_every=0)

    def test_tenant_config_validates(self):
        with pytest.raises(ConfigurationError):
            TenantConfig("acme", rate=10.0)  # rate without burst
        with pytest.raises(ConfigurationError):
            TenantConfig("acme", cache_quota=1.5)
        with pytest.raises(ConfigurationError):
            TenantConfig("")
        with pytest.raises(ConfigurationError):
            TenancyConfig(tenants=())
        with pytest.raises(ConfigurationError):
            TenancyConfig(tenants=(TenantConfig("a"), TenantConfig("a")))
        with pytest.raises(ConfigurationError):
            TenancyConfig(tenants=(TenantConfig("a", cache_quota=0.6),
                                   TenantConfig("b", cache_quota=0.6)))

    def test_with_overrides_returns_a_validated_copy(self):
        config = small()
        copy = config.with_overrides(n_shards=4)
        assert copy.n_shards == 4
        assert config.n_shards == 2  # frozen original untouched
        with pytest.raises(ConfigurationError):
            config.with_overrides(n_shards=0)


# -- precedence: explicit > config > environment ----------------------------------


class TestPrecedence:
    def test_from_env_pins_the_environment_now(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        config = ClusterConfig.from_env(n_shards=2, n_keys=128)
        assert config.backend == "process"
        assert config.workers == 3
        # Later environment churn cannot change what this config builds.
        monkeypatch.setenv(BACKEND_ENV_VAR, "socket")
        monkeypatch.setenv(WORKERS_ENV_VAR, "7")
        assert config.backend == "process"
        assert config.workers == 3

    def test_explicit_argument_beats_the_environment(self, monkeypatch):
        monkeypatch.setenv(BACKEND_ENV_VAR, "process")
        monkeypatch.setenv(WORKERS_ENV_VAR, "3")
        config = ClusterConfig.from_env(backend="inline", workers=1)
        assert config.backend == "inline"
        assert config.workers == 1

    def test_absent_environment_defers_to_field_defaults(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV_VAR, raising=False)
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        config = ClusterConfig.from_env()
        assert config.backend is None
        assert config.workers is None

    def test_malformed_workers_env_is_ignored(self, monkeypatch):
        """Not ignored any more: refused, typed, where the env is read —
        it used to surface as a bare ``int()`` failure inside ``build()``."""
        for raw in ("lots", "0", "-2", "1.5"):
            monkeypatch.setenv(WORKERS_ENV_VAR, raw)
            with pytest.raises(InvalidWorkersError,
                               match=WORKERS_ENV_VAR) as info:
                ClusterConfig.from_env()
            assert isinstance(info.value, ConfigurationError)
            assert isinstance(info.value, ValueError)
        # An explicit worker count never consults the variable...
        assert ClusterConfig.from_env(workers=2).workers == 2
        # ...and a config built without from_env refuses at build time.
        with pytest.raises(InvalidWorkersError):
            small().build()

    def test_explicit_tenant_quotas_override_beats_tenancy(self):
        tenancy = TenancyConfig(tenants=(
            TenantConfig("acme", cache_quota=0.4),))
        config = small(tenancy=tenancy)
        assert config.resolved_shard_overrides() == {
            "tenant_quotas": {tenant_token("acme"): 0.4}}
        pinned = small(tenancy=tenancy,
                       shard_overrides={"tenant_quotas": None})
        assert pinned.resolved_shard_overrides() == {"tenant_quotas": None}


# -- the keyword factories are gone ------------------------------------------------


#: sha256 of the responses and the summed enclave cycles ``drive`` produces
#: on ``small()``, captured from the keyword factory build_cluster with two
#: shards, n_keys=128, scale=2048 and batch_window=8, at the last
#: commit that still had one (PR 14's parent).
_LEGACY_DRIVE = (
    "6121d21d2c4a2b0802648e4044d1855c70483f3a7c40e3254a5ba8e2a3b84a81",
    244682.5,
)


def drive(coord):
    rng = random.Random(42)
    digest = hashlib.sha256()
    for _ in range(4):
        batch = []
        for _ in range(16):
            key = b"key-%04d" % rng.randrange(64)
            if rng.random() < 0.5:
                batch.append(protocol.put(
                    key, b"v-%d" % rng.randrange(100)))
            else:
                batch.append(protocol.get(key))
        for r in coord.execute(batch):
            digest.update(bytes([int(r.status)]) + bytes(r.value) + b"\0")
    cycles = sum(s.meter.cycles for s in coord.shard_list())
    coord.close()
    return digest.hexdigest(), cycles


class TestDeprecatedFactories:
    """Nothing is deprecated any more: only the typed door builds."""

    def test_typed_door_is_silent_and_equivalent(self, recwarn):
        """``config.build()`` builds the cluster the keyword factory used
        to — same responses, same cycles — and warns about nothing."""
        assert drive(small(backend="inline", workers=1).build()) \
            == _LEGACY_DRIVE
        assert not recwarn.list

    def test_typed_door_rejects_mixed_keywords(self):
        with pytest.raises(TypeError):
            build_replicated_cluster(3)
        with pytest.raises(TypeError):
            build_replicated_cluster(2, replication=2, n_keys=64)

    def test_fault_plan_rides_the_backend(self):
        from repro.cluster import FaultPlan, FaultyBackend
        plan = FaultPlan().kill("shard-0/r0", at=10_000)
        config = small(backend=FaultyBackend(plan=plan))
        for coord, handle in (
                (config.build(), lambda c: c.shards["shard-0"]),
                (build_replicated_cluster(config),
                 lambda c: c.shards["shard-0"].replicas[0].shard)):
            try:  # plain shards and replica groups alike
                assert handle(coord).plan is plan
            finally:
                coord.close()
        # No longer a store override: the store refuses the keyword.
        with pytest.raises(TypeError, match="fault_plan"):
            small(shard_overrides={"fault_plan": plan}).build()

    @pytest.mark.parametrize("field", ["durability", "max_shards"])
    def test_bare_group_builder_refuses_what_it_would_drop(self, field,
                                                           tmp_path):
        """``build_replicated_cluster`` wires nothing around the groups: a
        config asking for a sub-system it would silently leave out is
        refused by field name, and the same config builds through
        ``build()``."""
        value = {
            "durability": DurabilityConfig(data_dir=str(tmp_path)),
            "max_shards": 3,
        }[field]
        config = small(backend="inline", **{field: value})
        with pytest.raises(ConfigurationError,
                           match=rf"config\.{field}; use config\.build\(\)"):
            build_replicated_cluster(config)
        coord = config.build()
        try:
            assert all((g.durability is not None) == (field == "durability")
                       for g in coord.shard_list())
        finally:
            coord.close()

    @pytest.mark.parametrize("field", ["overload", "tenancy"])
    def test_group_builder_arms_layers_on_the_injected_clock(self, field):
        """``build_replicated_cluster`` arms overload and tenancy from the
        config, on the clock it is handed: a clock that jumps an hour per
        read makes every flush a slow sample (the breaker trips) and
        refills every bucket between requests (nothing is rate-shed)."""
        from repro.cluster import OverloadConfig

        now = [0.0]

        def clock():
            now[0] += 3600.0
            return now[0]

        layer = {
            "overload": OverloadConfig(breaker_failures=1,
                                       breaker_latency=1.0,
                                       breaker_recovery=1e9),
            "tenancy": TenancyConfig(tenants=(
                TenantConfig("t", rate=1.0, burst=1.0),)),
        }[field]
        coord = build_replicated_cluster(
            small(backend="inline", n_shards=1, **{field: layer}),
            clock=clock)
        tenant = "t" if field == "tenancy" else None
        try:
            assert (coord.overload is not None) == (field == "overload")
            assert (coord.tenancy is not None) == (field == "tenancy")
            statuses = [
                coord.execute([protocol.put(b"k", b"v")],
                              tenant=tenant)[0].status
                for _ in range(3)]
        finally:
            coord.close()
        if field == "overload":
            assert statuses == [Status.OK, Status.OVERLOADED,
                                Status.OVERLOADED]
            assert coord.overload.stats()["breaker_trips"] == 1
        else:
            assert statuses == [Status.OK] * 3
            assert coord.tenancy.stats()["shed"] == {"t": 0}


# -- one recipe per enclave ---------------------------------------------------------


class TestEnclaveSpec:
    def test_config_spells_the_recipe_once(self):
        config = small(n_shards=4, replication=2, workers=3, index="btree",
                       shard_overrides={"value_hint": 64})
        spec = config.enclave_spec("shard-1", 7)
        assert spec == EnclaveSpec(
            "shard-1", epc_bytes=config.per_enclave_epc_bytes(),
            capacity_keys=config.n_keys, index="btree", seed=7, workers=3,
            config_overrides={"value_hint": 64})
        assert config.elastic_spec().enclave == replace(
            spec, shard_id="", seed=config.seed)
        with pytest.raises(AttributeError):  # frozen
            spec.seed = 8

    def test_per_enclave_epc_is_the_build_path_formula(self):
        for fields in (dict(n_shards=3), dict(n_shards=2, replication=2),
                       dict(n_shards=12), dict(n_shards=6, replication=2)):
            config = small(backend="inline", **fields)
            coord = config.build()
            try:
                carves = set()
                for shard in coord.shard_list():
                    replicas = getattr(shard, "replicas", None)
                    members = [r.shard for r in replicas] if replicas \
                        else [shard]
                    carves.update(m.epc_bytes for m in members)
                assert carves == {config.per_enclave_epc_bytes()}, fields
            finally:
                coord.close()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_round_trips_through_every_backend(self, name):
        """The same spec object — through ``create``, the pipe, the
        attested hop — yields the same enclave as building it here."""
        spec = EnclaveSpec("rt-0", epc_bytes=64 * 1024, capacity_keys=96,
                           seed=11, workers=2,
                           config_overrides={"value_hint": 32})
        assert pickle.loads(pickle.dumps(spec)) == spec
        local = spec.build()
        backend = resolve_backend(name)
        try:
            handle = backend.create(spec)
            assert handle.shard_id == local.shard_id
            assert handle.epc_bytes == local.epc_bytes
            assert handle.store.config == local.store.config
            handle.store.put(b"k", b"v")
            local.store.put(b"k", b"v")
            assert handle.meter.cycles == local.meter.cycles
            handle.close()
        finally:
            backend.close()


# -- build() arms the nested sub-systems ------------------------------------------


class TestBuild:
    def test_build_arms_tenancy_and_overload(self):
        from repro.cluster import OverloadConfig
        config = small(
            overload=OverloadConfig(),
            tenancy=TenancyConfig(tenants=(
                TenantConfig("acme", rate=100.0, burst=10.0,
                             cache_quota=0.4),)),
        )
        coord = config.build()
        try:
            assert coord.overload is not None
            assert coord.tenancy is not None
            assert "acme" in coord.tenancy.registry
            # The cache quotas reached the shard stores (keyed by token).
            token = tenant_token("acme")
            for shard in coord.shard_list():
                quotas = getattr(shard, "store", None)
                if quotas is not None:  # inline shards expose the store
                    assert shard.store.config.tenant_quotas == {token: 0.4}
        finally:
            coord.close()

    def test_durability_requires_nothing_extra_and_restores(self, tmp_path):
        config = small(durability=DurabilityConfig(data_dir=str(tmp_path)))
        coord = config.build()
        try:
            [r] = coord.execute([protocol.put(b"durable", b"v")])
            assert r.status == STATUS_OK
            assert coord.durability_restored == {}
        finally:
            coord.close()
        revived = config.build()
        try:
            assert revived.durability_restored  # recovery replayed something
            [r] = revived.execute([protocol.get(b"durable")])
            assert r.value == b"v"
        finally:
            revived.close()


# -- serve(): the whole front door from one config --------------------------------


class TestServe:
    def test_serve_lifecycle_and_tenant_door(self):
        tenancy = TenancyConfig(tenants=(TenantConfig("acme"),))
        server = serve(small(tenancy=tenancy))
        try:
            host, port = server.server.address
            with ClusterClient.connect(host, port, tenant="acme") as client:
                assert client.session_info()["tenant"] == "acme"
                assert client.put(b"k", b"v").status == STATUS_OK
                assert client.get(b"k").value == b"v"
        finally:
            server.close()
