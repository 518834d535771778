"""Merkle layout geometry tests (pure arithmetic, no enclave)."""

import dataclasses
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.merkle.layout import COUNTER_SIZE, MAC_SIZE, MerkleLayout


class TestBasics:
    def test_node_size_is_arity_times_16(self):
        assert MerkleLayout(n_counters=100, arity=8).node_size == 128
        assert MerkleLayout(n_counters=100, arity=2).node_size == 32

    def test_level_counts_small_tree(self):
        layout = MerkleLayout(n_counters=64, arity=4)
        # 64 counters -> 16 leaf nodes -> 4 -> 1
        assert layout.nodes_at_level(0) == 16
        assert layout.nodes_at_level(1) == 4
        assert layout.nodes_at_level(2) == 1
        assert layout.n_levels == 3
        assert layout.top_level == 2

    def test_non_power_of_arity_rounds_up(self):
        layout = MerkleLayout(n_counters=65, arity=4)
        assert layout.nodes_at_level(0) == 17
        assert layout.nodes_at_level(1) == 5
        assert layout.nodes_at_level(2) == 2
        assert layout.nodes_at_level(3) == 1
        assert layout.n_levels == 4

    def test_single_counter_tree(self):
        layout = MerkleLayout(n_counters=1, arity=8)
        assert layout.n_levels == 1
        assert layout.nodes_at_level(0) == 1

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            MerkleLayout(n_counters=10, arity=1)
        with pytest.raises(ConfigurationError):
            MerkleLayout(n_counters=0, arity=4)


class TestAddressing:
    def test_counter_slot(self):
        layout = MerkleLayout(n_counters=100, arity=4)
        assert layout.counter_slot(0) == (0, 0)
        assert layout.counter_slot(3) == (0, 3 * COUNTER_SIZE)
        assert layout.counter_slot(4) == (1, 0)
        with pytest.raises(IndexError):
            layout.counter_slot(100)

    def test_parent_of(self):
        layout = MerkleLayout(n_counters=64, arity=4)
        assert layout.parent_of(0, 0) == (1, 0, 0)
        assert layout.parent_of(0, 5) == (1, 1, MAC_SIZE)
        with pytest.raises(IndexError):
            layout.parent_of(layout.top_level, 0)

    def test_children_of_clips_at_level_boundary(self):
        layout = MerkleLayout(n_counters=65, arity=4)
        # Level 1 node 4 covers only leaf node 16 (17 leaf nodes total).
        assert list(layout.children_of(1, 4)) == [16]
        with pytest.raises(IndexError):
            layout.children_of(0, 0)


class TestLevelRange:
    """A level outside ``[0, n_levels)`` is an address-arithmetic slip and
    must raise, never resolve to a plausible node (256 counters, arity 8:
    levels 0, 1, 2)."""

    layout = MerkleLayout(n_counters=256, arity=8)

    @pytest.mark.parametrize("level", [-1, -3, 3, 7, 99])
    def test_nodes_at_level(self, level):
        with pytest.raises(IndexError):
            self.layout.nodes_at_level(level)

    @pytest.mark.parametrize("level", [-1, -3, 3, 7, 99])
    def test_level_bytes(self, level):
        with pytest.raises(IndexError):
            self.layout.level_bytes(level)

    @pytest.mark.parametrize("level", [-1, -3, 2, 3, 99])
    def test_parent_of(self, level):
        # Level 2 is in range but is the top: nothing above it either.
        with pytest.raises(IndexError):
            self.layout.parent_of(level, 0)

    @pytest.mark.parametrize("level", [-1, -3, 0, 3, 5])
    def test_children_of(self, level):
        with pytest.raises(IndexError):
            self.layout.children_of(level, 0)

    def test_negative_level_does_not_wrap_to_the_top(self):
        assert self.layout.level_counts[-1] == 1    # what a bare index gives
        with pytest.raises(IndexError):
            self.layout.nodes_at_level(-1)

    def test_in_range_levels_still_answer(self):
        assert [self.layout.nodes_at_level(i) for i in range(3)] == [32, 4, 1]
        assert self.layout.level_bytes(0) == 32 * 128
        assert self.layout.parent_of(1, 3) == (2, 0, 3 * MAC_SIZE)
        assert self.layout.children_of(2, 0) == range(0, 4)


class TestIdentity:
    """Identity is ``(n_counters, arity)``; the derived geometry rides along
    without joining eq/hash/repr, and is rebuilt by every construction path."""

    def test_eq_hash_repr_ignore_derived_fields(self):
        a, b = MerkleLayout(1000, 8), MerkleLayout(n_counters=1000, arity=8)
        assert a == b and hash(a) == hash(b)
        assert a != MerkleLayout(1000, 4) and a != MerkleLayout(1001, 8)
        assert repr(a) == "MerkleLayout(n_counters=1000, arity=8)"
        assert dataclasses.astuple(a)[:2] == (1000, 8)
        assert {a: 1}[b] == 1

    def test_frozen(self):
        layout = MerkleLayout(1000, 8)
        for name in ("n_counters", "arity", "n_levels", "node_size"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layout, name, 3)

    def test_derived_fields_are_not_constructor_arguments(self):
        with pytest.raises(TypeError):
            MerkleLayout(1000, 8, 128)
        with pytest.raises(TypeError):
            MerkleLayout(1000, 8, n_levels=2)

    def test_replace_recomputes_geometry(self):
        wide = MerkleLayout(1000, 8)
        narrow = dataclasses.replace(wide, arity=2)
        assert narrow == MerkleLayout(1000, 2)
        assert narrow.node_size == 32
        assert narrow.n_levels == MerkleLayout(1000, 2).n_levels > wide.n_levels
        assert narrow.level_counts == MerkleLayout(1000, 2).level_counts

    def test_pickle_round_trip(self):
        layout = MerkleLayout(12_345, 6)
        clone = pickle.loads(pickle.dumps(layout))
        assert clone == layout and hash(clone) == hash(layout)
        assert repr(clone) == repr(layout)
        assert (clone.node_size, clone.n_levels, clone.top_level,
                clone.level_counts) == (layout.node_size, layout.n_levels,
                                        layout.top_level, layout.level_counts)


class TestSizing:
    def test_level_sizes_sum_to_total(self):
        layout = MerkleLayout(n_counters=10_000, arity=8)
        assert sum(layout.level_sizes()) == layout.total_bytes()

    def test_pinned_bytes_monotone(self):
        layout = MerkleLayout(n_counters=10_000, arity=8)
        sizes = [layout.pinned_bytes(k) for k in range(layout.n_levels + 1)]
        assert sizes[0] == 0
        assert sizes == sorted(sizes)
        assert sizes[-1] == layout.total_bytes()

    def test_pinning_top_levels_is_cheap(self):
        # Section IV-E: pinning everything except level 0 costs a small fraction
        # of the tree (1/arity of the counters, geometrically decreasing).
        layout = MerkleLayout(n_counters=1_000_000, arity=8)
        all_but_leaves = layout.pinned_bytes(layout.n_levels - 1)
        assert all_but_leaves < layout.level_bytes(0) / 4

    def test_pinned_level_set(self):
        layout = MerkleLayout(n_counters=64, arity=4)  # levels 0,1,2
        assert layout.pinned_level_set(0) == frozenset()
        assert layout.pinned_level_set(2) == frozenset({2, 1})

    def test_pinned_bytes_rejects_out_of_range(self):
        layout = MerkleLayout(n_counters=64, arity=4)
        with pytest.raises(ConfigurationError):
            layout.pinned_bytes(99)


@given(n=st.integers(1, 100_000), arity=st.integers(2, 16))
def test_parent_child_arithmetic_consistent(n, arity):
    """Property: every node is covered by exactly its computed parent slot."""
    layout = MerkleLayout(n_counters=n, arity=arity)
    for level in range(layout.n_levels - 1):
        count = layout.nodes_at_level(level)
        for index in (0, count // 2, count - 1):
            parent_level, parent_index, offset = layout.parent_of(level, index)
            assert parent_level == level + 1
            assert index in layout.children_of(parent_level, parent_index)
            assert offset == (index % arity) * MAC_SIZE


@given(n=st.integers(2, 100_000), arity=st.integers(2, 16))
def test_levels_shrink_geometrically(n, arity):
    layout = MerkleLayout(n_counters=n, arity=arity)
    for level in range(1, layout.n_levels):
        assert layout.nodes_at_level(level) <= layout.nodes_at_level(level - 1)
    assert layout.nodes_at_level(layout.top_level) == 1
    if layout.n_levels > 1:
        assert layout.nodes_at_level(layout.top_level - 1) > 1


def _loop_nodes_at_level(n_counters, arity, level):
    """The definition the precomputed table replaced: ceil-divide per level."""
    count = n_counters
    for _ in range(level + 1):
        count = -(-count // arity)
    return count


def _loop_n_levels(n_counters, arity):
    levels = 0
    count = n_counters
    while True:
        count = -(-count // arity)
        levels += 1
        if count == 1:
            return levels


@given(n=st.integers(1, 10_000_000), arity=st.integers(2, 64))
def test_precomputed_geometry_equals_loop_definitions(n, arity):
    layout = MerkleLayout(n_counters=n, arity=arity)
    n_levels = _loop_n_levels(n, arity)
    assert layout.n_levels == n_levels
    assert layout.top_level == n_levels - 1
    assert layout.node_size == arity * COUNTER_SIZE
    counts = [_loop_nodes_at_level(n, arity, level) for level in range(n_levels)]
    assert layout.level_counts == tuple(counts)
    assert [layout.nodes_at_level(level) for level in range(n_levels)] == counts
    sizes = [count * arity * COUNTER_SIZE for count in counts]
    assert layout.level_sizes() == sizes
    assert [layout.level_bytes(level) for level in range(n_levels)] == sizes
    assert layout.total_bytes() == sum(sizes)
    for pin in range(n_levels + 1):
        assert layout.pinned_bytes(pin) == sum(sizes[n_levels - pin:])
