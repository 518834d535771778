"""AriaConfig validation and defaults."""

import pytest

from repro.core.config import AriaConfig
from repro.errors import ConfigurationError


class TestValidation:
    def test_defaults_are_valid(self):
        config = AriaConfig()
        assert config.index == "hash"
        assert config.eviction_policy == "fifo"

    @pytest.mark.parametrize(
        "field,value",
        [
            ("index", "skiplist"),
            ("allocator", "mmap"),
            ("n_buckets", 0),
            ("btree_order", 2),
            ("merkle_arity", 1),
            ("initial_counters", 0),
            ("stop_swap_threshold", 1.5),
            ("stop_swap_threshold", -0.1),
            ("stop_swap_window", 0),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            AriaConfig(**{field: value})

    def test_all_indexes_accepted(self):
        for index in ("hash", "btree", "bplustree"):
            assert AriaConfig(index=index).index == index

    def test_ablation_flags_default_off(self):
        config = AriaConfig()
        assert not config.swap_encrypt
        assert not config.writeback_clean
