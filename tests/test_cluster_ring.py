"""Property tests for the consistent-hash ring (hypothesis).

The cluster's correctness rests on three ring properties: deterministic
placement (every front door routes alike), bounded imbalance with enough
virtual nodes, and minimal remap on membership change.  Plus the balancer's
primitive: moving vnodes only ever moves keys into the destination shard.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ring as ring_module
from repro.cluster.ring import DEFAULT_VNODES, HashRing, ring_hash

settings.register_profile("ring", deadline=None, max_examples=25)
settings.load_profile("ring")


def sample_keys(n: int) -> list:
    # A deterministic keyset in the workload's own format.
    return [b"u%015d" % i for i in range(n)]


def load_counts(ring: HashRing, keys: list) -> dict:
    counts = {shard: 0 for shard in ring.shards()}
    for key in keys:
        counts[ring.route(key)] += 1
    return counts


shard_ids = st.integers(min_value=2, max_value=5).map(
    lambda n: [f"shard-{i}" for i in range(n)]
)


class TestDeterminism:
    @given(shard_ids, st.integers(min_value=1, max_value=64))
    def test_identical_construction_routes_identically(self, ids, vnodes):
        a = HashRing(ids, vnodes=vnodes)
        b = HashRing(list(ids), vnodes=vnodes)
        for key in sample_keys(200):
            assert a.route(key) == b.route(key)

    @given(shard_ids)
    def test_construction_order_is_irrelevant(self, ids):
        forward = HashRing(ids, vnodes=32)
        backward = HashRing(list(reversed(ids)), vnodes=32)
        for key in sample_keys(200):
            assert forward.route(key) == backward.route(key)

    def test_hash_is_stable_across_processes(self):
        # Guards against anyone "simplifying" to Python's salted hash().
        assert ring_hash(b"shard-0#0") == 0x3A138B1616E0D2C1


class TestBalance:
    @given(shard_ids, st.integers(min_value=128, max_value=256))
    def test_load_ratio_bounded_with_enough_vnodes(self, ids, vnodes):
        ring = HashRing(ids, vnodes=vnodes)
        counts = load_counts(ring, sample_keys(4000))
        assert min(counts.values()) > 0
        assert max(counts.values()) / min(counts.values()) < 3.0

    def test_few_vnodes_is_visibly_worse_than_many(self):
        keys = sample_keys(4000)

        def spread(vnodes):
            counts = load_counts(HashRing(["a", "b", "c", "d"],
                                          vnodes=vnodes), keys)
            return max(counts.values()) / max(1, min(counts.values()))

        # Not asserting an exact ordering (hash luck exists) — just that
        # the 128-vnode ring meets the bound a 1-vnode ring wildly misses.
        assert spread(DEFAULT_VNODES) < 3.0

    def test_skewed_vnode_spec_skews_ownership(self):
        ring = HashRing(["hot", "a", "b", "c"],
                        vnodes={"hot": 128, "a": 4, "b": 4, "c": 4})
        counts = load_counts(ring, sample_keys(4000))
        assert counts["hot"] > 0.6 * 4000


class TestMinimalRemap:
    @given(shard_ids, st.integers(min_value=128, max_value=192))
    def test_adding_a_shard_moves_few_keys_and_only_to_it(self, ids, vnodes):
        keys = sample_keys(3000)
        ring = HashRing(ids, vnodes=vnodes)
        before = {key: ring.route(key) for key in keys}
        new_shard = "shard-new"
        ring.add_shard(new_shard, vnodes=vnodes)
        moved = 0
        for key in keys:
            after = ring.route(key)
            if after != before[key]:
                moved += 1
                # Consistent hashing's defining property: a key never moves
                # between two surviving shards.
                assert after == new_shard
        expected_share = len(keys) / (len(ids) + 1)
        assert moved <= 2.5 * expected_share

    @given(shard_ids)
    def test_removing_a_shard_strands_no_keys(self, ids):
        keys = sample_keys(1000)
        ring = HashRing(ids, vnodes=64)
        victim = ids[0]
        before = {key: ring.route(key) for key in keys}
        ring.remove_shard(victim)
        for key in keys:
            after = ring.route(key)
            assert after != victim
            if before[key] != victim:
                assert after == before[key]  # survivors keep their keys


class TestRouteMemo:
    """``route`` remembers each key's shard until the ring next changes."""

    @pytest.mark.parametrize("change", [
        lambda ring: ring.add_shard("d", vnodes=64),
        lambda ring: ring.remove_shard("a"),
        lambda ring: ring.move_vnodes("a", "b", 48),
    ], ids=["add", "remove", "move"])
    def test_a_change_of_ownership_forgets_every_route(self, change):
        ring = HashRing(["a", "b", "c"], vnodes=64)
        keys = sample_keys(2000)
        before = [ring.route(key) for key in keys]
        change(ring)
        after = [ring.route(key) for key in keys]
        assert after == [ring.copy().route(key) for key in keys]
        assert after != before

    def test_the_memo_is_bounded(self, monkeypatch):
        monkeypatch.setattr(ring_module, "ROUTE_MEMO_KEYS", 100)
        ring = HashRing(["a", "b"], vnodes=16)
        fresh = HashRing(["a", "b"], vnodes=16)
        keys = sample_keys(1000)
        assert [ring.route(key) for key in keys * 2] \
            == [fresh.route(key) for key in keys * 2]
        assert len(ring._routes) <= 100


class TestVnodeMoves:
    def test_moved_arcs_route_to_destination_only(self):
        ring = HashRing(["a", "b", "c"], vnodes=128)
        keys = sample_keys(3000)
        before = {key: ring.route(key) for key in keys}
        moved_vnodes = ring.move_vnodes("a", "b", 64)
        assert moved_vnodes == 64
        for key in keys:
            after = ring.route(key)
            if after != before[key]:
                assert before[key] == "a" and after == "b"

    def test_never_strips_a_shard_bare(self):
        ring = HashRing(["a", "b"], vnodes=8)
        assert ring.move_vnodes("a", "b", 999) == 7
        assert ring.vnode_counts()["a"] == 1
        assert "a" in ring.shards()

    def test_move_to_unknown_shard_rejected(self):
        ring = HashRing(["a", "b"], vnodes=8)
        with pytest.raises(KeyError):
            ring.move_vnodes("a", "ghost", 1)

    def test_self_move_is_a_noop(self):
        ring = HashRing(["a", "b"], vnodes=8)
        assert ring.move_vnodes("a", "a", 4) == 0


class TestMembershipValidation:
    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            HashRing(["a", "a"])

    def test_double_add_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.add_shard("a")

    def test_cannot_remove_last_shard(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError):
            ring.remove_shard("a")
