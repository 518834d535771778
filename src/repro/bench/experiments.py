"""One experiment per table/figure of the paper's evaluation (Section VI).

Every function builds the schemes at a stated scale (DESIGN.md Section 4.6),
replays the paper's workload grid, and returns an
:class:`~repro.bench.report.ExperimentResult` whose rows mirror the figure's
series.  Shape expectations (who wins, by what factor, where crossovers sit)
are asserted by the corresponding module under ``benchmarks/``; measured-vs-
paper numbers are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.bench.harness import (
    DEFAULT_SCALE,
    PAPER_EPC_BYTES,
    PAPER_KEYSPACE,
    build_aria,
    build_aria_nocache,
    build_baseline,
    build_plain,
    build_shieldstore,
    load_and_run,
    scaled_keys,
    warm_store,
    scaled_platform,
)
from repro.bench.report import ExperimentResult
from repro.sgx.costs import SgxPlatform
from repro.workloads.etc import EtcWorkload
from repro.workloads.ycsb import YcsbWorkload

MB = 1024 * 1024


# ---------------------------------------------------------------------------
# Table I - qualitative + measured comparison of the design schemes
# ---------------------------------------------------------------------------

def table1_comparison(scale: int = DEFAULT_SCALE) -> ExperimentResult:
    """Table I: protection granularity, hotness-awareness, index support,
    and *measured* EPC occupation (scaled back to paper units)."""
    result = ExperimentResult(
        exp_id="Table I",
        title="Comparison between different designs",
        columns=["scheme", "granularity", "hotness", "indexes",
                 "epc_occupation", "epc_bytes_paper_equiv_MB"],
    )
    n_keys = scaled_keys(scale)
    platform = scaled_platform(scale)

    shield = build_shieldstore(n_keys=n_keys, platform=platform)
    shield_epc = sum(shield.epc_report().values())
    result.add_row(
        scheme="ShieldStore", granularity="hash bucket", hotness="unaware",
        indexes="hash", epc_occupation="low",
        epc_bytes_paper_equiv_MB=round(shield_epc * scale / MB, 1),
    )

    nocache = build_aria_nocache(n_keys=n_keys, platform=platform)
    nocache_epc = sum(nocache.epc_report().values())
    result.add_row(
        scheme="Aria w/o Cache", granularity="page (4 KB)", hotness="aware",
        indexes="hash/tree", epc_occupation="medium",
        epc_bytes_paper_equiv_MB=round(nocache_epc * scale / MB, 1),
    )

    aria = build_aria(n_keys=n_keys, platform=platform)
    aria_epc = sum(aria.epc_report().values())
    result.add_row(
        scheme="Aria", granularity="KV pair", hotness="aware",
        indexes="hash/tree", epc_occupation="low",
        epc_bytes_paper_equiv_MB=round(aria_epc * scale / MB, 1),
    )
    result.note(f"scale 1/{scale}: {n_keys} keys, "
                f"{platform.epc_bytes // 1024} KB EPC")
    return result


# ---------------------------------------------------------------------------
# Fig 2 - motivation: the three design schemes across keyspace sizes
# ---------------------------------------------------------------------------

def fig2_motivation(scale: int = 256, n_ops: int = 4000,
                    keyspace_mb: Optional[Iterable[int]] = None,
                    ) -> ExperimentResult:
    """Fig 2: ShieldStore vs Aria-w/o-Cache vs Baseline, skew, RD50, 16 B/16 B.

    Keyspace size = total key bytes (16 B keys); the paper sweeps 4-128 MB
    against a 91 MB EPC.  Page-swap counts accompany the paging schemes.
    """
    result = ExperimentResult(
        exp_id="Fig 2",
        title="Performance of different design schemes (skew, RD50, 16B/16B)",
        columns=["keyspace_mb", "scheme", "throughput ops/s", "page_swaps"],
    )
    sizes = list(keyspace_mb) if keyspace_mb is not None \
        else [4, 8, 16, 24, 32, 64, 119, 128]
    builders = {
        "shieldstore": build_shieldstore,
        "aria_nocache": build_aria_nocache,
        "baseline": build_baseline,
    }
    for size_mb in sizes:
        n_keys = max(64, size_mb * MB // scale // 16)
        for scheme, builder in builders.items():
            platform = scaled_platform(scale)
            store = builder(n_keys=n_keys, platform=platform)
            workload = YcsbWorkload(
                n_keys=n_keys, read_ratio=0.50, value_size=16,
                distribution="zipfian", seed=size_mb,
            )
            run = load_and_run(store, workload, n_ops, scheme=scheme)
            result.add_row(
                keyspace_mb=size_mb, scheme=scheme,
                **{"throughput ops/s": run.throughput},
                page_swaps=run.events.get("page_swap", 0),
            )
    result.note(f"scale 1/{scale}, {n_ops} ops per point")
    return result


# ---------------------------------------------------------------------------
# Fig 9 / Fig 10 - YCSB grid with hash and tree indexes
# ---------------------------------------------------------------------------

def _ycsb_grid(index: str, schemes: dict, scale: int, n_ops: int,
               exp_id: str, title: str) -> ExperimentResult:
    result = ExperimentResult(
        exp_id=exp_id, title=title,
        columns=["distribution", "read_ratio", "value_size", "scheme",
                 "throughput ops/s", "hit_ratio"],
    )
    n_keys = scaled_keys(scale)
    for value_size in (16, 128, 512):
        for scheme, builder in schemes.items():
            platform = scaled_platform(scale)
            store = builder(n_keys=n_keys, platform=platform)
            loader = YcsbWorkload(n_keys=n_keys, value_size=value_size)
            store.load(loader.load_items())
            warm_store(store, loader)
            for distribution in ("zipfian", "uniform"):
                for read_ratio in (0.50, 0.95, 1.00):
                    workload = YcsbWorkload(
                        n_keys=n_keys, read_ratio=read_ratio,
                        value_size=value_size, distribution=distribution,
                        seed=int(read_ratio * 100),
                    )
                    if hasattr(store, "counters") and \
                            hasattr(store.counters, "reset_stats"):
                        store.counters.reset_stats()
                    run_result = _run(store, workload, n_ops, scheme)
                    result.add_row(
                        distribution=distribution,
                        read_ratio=f"RD{int(read_ratio * 100)}",
                        value_size=value_size,
                        scheme=scheme,
                        **{"throughput ops/s": run_result.throughput},
                        hit_ratio=(round(run_result.hit_ratio, 3)
                                   if run_result.hit_ratio is not None else ""),
                    )
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_ops} ops per cell")
    return result


def _run(store, workload, n_ops, scheme):
    from repro.bench.harness import run_operations

    return run_operations(store, workload.operations(n_ops), scheme=scheme)


def fig9_ycsb_hash(scale: int = DEFAULT_SCALE,
                   n_ops: int = 5000) -> ExperimentResult:
    """Fig 9: hash-table index grid (Aria-H vs the other schemes)."""
    schemes = {
        "aria": build_aria,
        "shieldstore": build_shieldstore,
        "aria_nocache": build_aria_nocache,
        "baseline": build_baseline,
    }
    return _ycsb_grid("hash", schemes, scale, n_ops, "Fig 9",
                      "YCSB with hash table-based index")


def fig10_ycsb_tree(scale: int = 2 * DEFAULT_SCALE,
                    n_ops: int = 2000) -> ExperimentResult:
    """Fig 10: B-tree index grid (Aria-T vs tree baselines).

    The in-enclave Baseline is approximated by the paged in-enclave store
    (hash-chained); DESIGN.md records the substitution.
    """
    schemes = {
        "aria": lambda **kw: build_aria(index="btree", **kw),
        "aria_nocache": lambda **kw: build_aria_nocache(index="btree", **kw),
        "baseline": build_baseline,
    }
    return _ycsb_grid("btree", schemes, scale, n_ops, "Fig 10",
                      "YCSB with B-tree-based index")


# ---------------------------------------------------------------------------
# Fig 11 - Facebook ETC workload
# ---------------------------------------------------------------------------

def fig11_etc(scale: int = DEFAULT_SCALE, n_ops: int = 5000,
              tree_scale: Optional[int] = None) -> ExperimentResult:
    """Fig 11: ETC pool, hash and tree panels, RD 0/50/95/100."""
    result = ExperimentResult(
        exp_id="Fig 11", title="Throughput with Facebook ETC",
        columns=["panel", "read_ratio", "scheme", "throughput ops/s"],
    )
    tree_scale = tree_scale or 2 * scale
    panels = {
        "hashtable": (scale, {
            "aria": lambda **kw: build_aria(value_hint=192, **kw),
            "shieldstore": build_shieldstore,
            "aria_nocache": build_aria_nocache,
        }),
        "tree": (tree_scale, {
            "aria": lambda **kw: build_aria(index="btree", value_hint=192,
                                            **kw),
            "aria_nocache": lambda **kw: build_aria_nocache(index="btree",
                                                            **kw),
            "baseline": build_baseline,
        }),
    }
    for panel, (panel_scale, schemes) in panels.items():
        n_keys = scaled_keys(panel_scale)
        for scheme, builder in schemes.items():
            store = builder(n_keys=n_keys,
                            platform=scaled_platform(panel_scale))
            store.load(EtcWorkload(n_keys=n_keys).load_items())
            warm_store(store, EtcWorkload(n_keys=n_keys))
            for read_ratio in (0.0, 0.50, 0.95, 1.00):
                workload = EtcWorkload(n_keys=n_keys, read_ratio=read_ratio,
                                       seed=int(read_ratio * 100))
                if hasattr(store, "counters") and \
                        hasattr(store.counters, "reset_stats"):
                    store.counters.reset_stats()
                ops = n_ops if panel == "hashtable" else max(500, n_ops // 2)
                run_result = _run(store, workload, ops, scheme)
                result.add_row(
                    panel=panel, read_ratio=f"RD{int(read_ratio * 100)}",
                    scheme=scheme,
                    **{"throughput ops/s": run_result.throughput},
                )
    result.note(f"hash scale 1/{scale}, tree scale 1/{tree_scale}")
    return result


# ---------------------------------------------------------------------------
# Fig 12 - optimization ablation + the overhead of SGX
# ---------------------------------------------------------------------------

def fig12_ablation(scale: int = DEFAULT_SCALE,
                   n_ops: int = 4000) -> ExperimentResult:
    """Fig 12: AriaBase -> +HeapAlloc -> +PIN -> +FIFO -> Aria, vs
    ShieldStore, Aria w/o Cache, and Aria w/o SGX (ETC workload)."""
    result = ExperimentResult(
        exp_id="Fig 12",
        title="Effects of optimizations and the overhead of SGX (ETC)",
        columns=["read_ratio", "scheme", "throughput ops/s"],
    )
    n_keys = scaled_keys(scale)
    variants = {
        "shieldstore": lambda platform: build_shieldstore(
            n_keys=n_keys, platform=platform),
        "aria_base": lambda platform: build_aria(
            n_keys=n_keys, platform=platform, allocator="ocall",
            policy="lru", pin_levels=0, stop_swap_enabled=False,
            value_hint=192),
        "+heapalloc": lambda platform: build_aria(
            n_keys=n_keys, platform=platform, allocator="heap",
            policy="lru", pin_levels=0, stop_swap_enabled=False,
            value_hint=192),
        "+pin": lambda platform: build_aria(
            n_keys=n_keys, platform=platform, allocator="heap",
            policy="lru", pin_levels=3, stop_swap_enabled=False,
            value_hint=192),
        "+fifo": lambda platform: build_aria(
            n_keys=n_keys, platform=platform, allocator="heap",
            policy="fifo", pin_levels=0, stop_swap_enabled=False,
            value_hint=192),
        "aria": lambda platform: build_aria(n_keys=n_keys, platform=platform,
                                            value_hint=192),
        "aria_nocache": lambda platform: build_aria_nocache(
            n_keys=n_keys, platform=platform),
        # "Aria w/o SGX" keeps all of Aria's own protection work (crypto,
        # MT, Secure Cache logic) but removes the *hardware* overheads: the
        # MEE latency premium on EPC accesses and the enclave boundary
        # costs.  The residual gap to full Aria is the paper's ~25.7 %
        # "protection overhead of SGX" (Section VI-C).
        "aria_wo_sgx": lambda platform: build_aria(
            n_keys=n_keys, value_hint=192,
            platform=SgxPlatform(
                epc_bytes=platform.epc_bytes,
                costs=platform.costs.scaled(
                    epc_access=platform.costs.untrusted_access,
                    ecall=0.0, ocall=0.0,
                ),
            ),
        ),
        # The fully unprotected store, for context (not a paper series).
        "plain_kv": lambda platform: build_plain(
            n_keys=n_keys, platform=platform),
    }
    for scheme, factory in variants.items():
        store = factory(scaled_platform(scale))
        store.load(EtcWorkload(n_keys=n_keys).load_items())
        warm_store(store, EtcWorkload(n_keys=n_keys))
        for read_ratio in (0.0, 0.50, 0.95, 1.00):
            workload = EtcWorkload(n_keys=n_keys, read_ratio=read_ratio,
                                   seed=int(read_ratio * 100))
            if hasattr(store, "counters") and \
                    hasattr(store.counters, "reset_stats"):
                store.counters.reset_stats()
            run_result = _run(store, workload, n_ops, scheme)
            result.add_row(
                read_ratio=f"RD{int(read_ratio * 100)}", scheme=scheme,
                **{"throughput ops/s": run_result.throughput},
            )
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_ops} ops per cell")
    return result


# ---------------------------------------------------------------------------
# Fig 13 - keyspace sweep 119 MB .. 2 GB
# ---------------------------------------------------------------------------

def fig13_keyspace(scale: int = 2048, n_ops: int = 3000,
                   keyspace_mb: Optional[Iterable[int]] = None,
                   ) -> ExperimentResult:
    """Fig 13: throughput as the keyspace grows past the EPC by 22x.

    Panels: (a) hashtable uniform, (b) hashtable skew, (c) hashtable ETC —
    all at RD95 with 16-byte values/keys.
    """
    result = ExperimentResult(
        exp_id="Fig 13", title="Performance on various keyspace size (RD95)",
        columns=["panel", "keyspace_mb", "scheme", "throughput ops/s"],
    )
    sizes = list(keyspace_mb) if keyspace_mb is not None \
        else [119, 256, 512, 1024, 2048]
    builders = {
        "aria": build_aria,
        "shieldstore": build_shieldstore,
        "aria_nocache": build_aria_nocache,
    }
    for size_mb in sizes:
        n_keys = max(64, size_mb * MB // scale // 16)
        for panel in ("uniform", "skew", "etc"):
            for scheme, builder in builders.items():
                kwargs = {}
                if scheme == "aria":
                    # ETC records are far bigger than 16 B: size the
                    # allocator-bitmap estimate accordingly so the cache
                    # budget leaves room.
                    kwargs["value_hint"] = 192 if panel == "etc" else 16
                store = builder(n_keys=n_keys, platform=scaled_platform(scale),
                                **kwargs)
                if panel == "etc":
                    workload = EtcWorkload(n_keys=n_keys, read_ratio=0.95,
                                           seed=size_mb)
                else:
                    workload = YcsbWorkload(
                        n_keys=n_keys, read_ratio=0.95, value_size=16,
                        distribution="zipfian" if panel == "skew" else "uniform",
                        seed=size_mb,
                    )
                run = load_and_run(store, workload, n_ops, scheme=scheme)
                result.add_row(panel=panel, keyspace_mb=size_mb,
                               scheme=scheme,
                               **{"throughput ops/s": run.throughput})
    result.note(f"scale 1/{scale}, {n_ops} ops per point")
    return result


# ---------------------------------------------------------------------------
# Fig 14 - Secure Cache size sensitivity
# ---------------------------------------------------------------------------

def fig14_cache_size(scale: int = DEFAULT_SCALE,
                     n_ops: int = 4000) -> ExperimentResult:
    """Fig 14: Aria-H throughput as the Secure Cache shrinks 100 % -> 16 %,
    at 10 M- and 30 M-key (scaled) keyspaces, vs fixed ShieldStore lines."""
    result = ExperimentResult(
        exp_id="Fig 14",
        title="Performance on different size of Secure Cache (skew RD95)",
        columns=["keyspace", "cache_fraction", "scheme", "throughput ops/s",
                 "hit_ratio"],
    )
    fractions = (1.00, 0.50, 0.33, 0.25, 0.20, 0.16)
    for keyspace_label, keyspace in (("10M", PAPER_KEYSPACE),
                                     ("30M", 3 * PAPER_KEYSPACE)):
        n_keys = scaled_keys(scale, keyspace)
        for fraction in fractions:
            store = build_aria(n_keys=n_keys, platform=scaled_platform(scale),
                               cache_fraction=fraction)
            workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95,
                                    value_size=16, distribution="zipfian")
            run = load_and_run(store, workload, n_ops, scheme="aria")
            result.add_row(
                keyspace=keyspace_label, cache_fraction=fraction,
                scheme="aria", **{"throughput ops/s": run.throughput},
                hit_ratio=(round(run.hit_ratio, 3)
                           if run.hit_ratio is not None else ""),
            )
        shield = build_shieldstore(n_keys=n_keys,
                                   platform=scaled_platform(scale))
        workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95,
                                value_size=16, distribution="zipfian")
        run = load_and_run(shield, workload, n_ops, scheme="shieldstore")
        result.add_row(keyspace=keyspace_label, cache_fraction="n/a",
                       scheme="shieldstore",
                       **{"throughput ops/s": run.throughput}, hit_ratio="")
    result.note(f"scale 1/{scale}, {n_ops} ops per point")
    return result


# ---------------------------------------------------------------------------
# Fig 15 - N-ary Merkle tree branch factor
# ---------------------------------------------------------------------------

def fig15_arity(scale: int = DEFAULT_SCALE, n_ops: int = 4000,
                arities: Iterable[int] = (2, 4, 8, 10, 12, 14, 16),
                ) -> ExperimentResult:
    """Fig 15: throughput vs Merkle arity, uniform and skewed (RD95, 16 B)."""
    result = ExperimentResult(
        exp_id="Fig 15",
        title="Performance on different branch number of the MT (RD95, 16B)",
        columns=["distribution", "arity", "throughput ops/s", "hit_ratio"],
    )
    n_keys = scaled_keys(scale)
    for distribution in ("zipfian", "uniform"):
        for arity in arities:
            # At this figure's operating point the paper's own 70 %
            # stop-swap threshold separates the two series cleanly (zipf
            # hit ratios sit above it at every arity, uniform below), so we
            # use it as-is rather than the scale-adjusted harness default.
            store = build_aria(n_keys=n_keys, platform=scaled_platform(scale),
                               arity=arity, stop_swap_threshold=0.70,
                               stop_swap_patience=2)
            workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95,
                                    value_size=16, distribution=distribution)
            # A warmup covering two full stop-swap windows (patience 2) lets
            # the uniform series settle into its steady (pinning-only)
            # regime before measurement starts.
            run = load_and_run(store, workload, n_ops, scheme="aria",
                               warmup_ops=10_000)
            result.add_row(
                distribution=distribution, arity=arity,
                **{"throughput ops/s": run.throughput},
                hit_ratio=(round(run.hit_ratio, 3)
                           if run.hit_ratio is not None else ""),
            )
    result.note(f"scale 1/{scale}: {n_keys} keys, one Merkle tree")
    return result


# ---------------------------------------------------------------------------
# Fig 16a - multi-tenant / Fig 16b - skewness sweep
# ---------------------------------------------------------------------------

def fig16a_multitenant(scale: int = 1024, n_ops: int = 3000,
                       ) -> ExperimentResult:
    """Fig 16(a): per-tenant throughput when the EPC is split 2 / 4 ways.

    Tenants run in separate enclaves (the paper's multi-process design), so
    one tenant's store with EPC/k models each of k identical tenants; the
    reported figure is the average per-tenant throughput.
    """
    result = ExperimentResult(
        exp_id="Fig 16a",
        title="Multi-tenant throughput (RD95, 16B, skew 0.99)",
        columns=["tenants", "keyspace", "scheme", "throughput ops/s"],
    )
    for tenants in (2, 4):
        for keyspace_millions in (10, 30, 50):
            n_keys = scaled_keys(scale, keyspace_millions * 1_000_000)
            platform = scaled_platform(scale,
                                       epc_bytes=PAPER_EPC_BYTES // tenants)
            for scheme, builder in (("aria", build_aria),
                                    ("shieldstore", build_shieldstore)):
                store = builder(n_keys=n_keys, platform=platform)
                workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95,
                                        value_size=16,
                                        distribution="zipfian")
                run = load_and_run(store, workload, n_ops, scheme=scheme)
                result.add_row(tenants=tenants,
                               keyspace=f"{keyspace_millions}M",
                               scheme=scheme,
                               **{"throughput ops/s": run.throughput})
    result.note(f"scale 1/{scale}; EPC split per tenant")
    return result


def fig16b_skewness(scale: int = DEFAULT_SCALE, n_ops: int = 4000,
                    skews: Iterable[float] = (0.8, 0.9, 0.95, 0.99, 1.0001,
                                              1.2)) -> ExperimentResult:
    """Fig 16(b): Aria's advantage vs ShieldStore as the skew rises."""
    result = ExperimentResult(
        exp_id="Fig 16b",
        title="Performance on different skewness (RD95, 16B, 10M keyspace)",
        columns=["skewness", "scheme", "throughput ops/s", "hit_ratio"],
    )
    n_keys = scaled_keys(scale)
    for scheme, builder in (("aria", build_aria),
                            ("shieldstore", build_shieldstore)):
        for skew in skews:
            # Fresh store per point: stop-swap decisions at one skew must
            # not leak into another.
            store = builder(n_keys=n_keys, platform=scaled_platform(scale))
            workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95,
                                    value_size=16, distribution="zipfian",
                                    skew=skew, seed=int(skew * 100))
            run = load_and_run(store, workload, n_ops, scheme=scheme)
            result.add_row(
                skewness=round(skew, 4), scheme=scheme,
                **{"throughput ops/s": run.throughput},
                hit_ratio=(round(run.hit_ratio, 3)
                           if run.hit_ratio is not None else ""),
            )
    result.note(f"scale 1/{scale}: {n_keys} keys")
    return result


# ---------------------------------------------------------------------------
# Extension: scrambled-vs-contiguous zipf ablation (address-based MT locality)
# ---------------------------------------------------------------------------

def ablation_zipf_locality(scale: int = DEFAULT_SCALE,
                           n_ops: int = 4000) -> ExperimentResult:
    """Extra ablation: contiguous vs FNV-scattered hot keys.

    Section IV claims the address-ordered MT layout benefits locality; scattering
    hot keys (YCSB's scrambled zipfian) degrades both the Secure Cache's
    node-level coverage and hardware paging's page-level coverage — much
    more so for the 4 KB pages of Aria w/o Cache.
    """
    result = ExperimentResult(
        exp_id="Ablation A1",
        title="Hot-key locality: contiguous vs scrambled zipfian (RD95, 16B)",
        columns=["distribution", "scheme", "throughput ops/s", "hit_ratio"],
    )
    n_keys = scaled_keys(scale)
    for distribution in ("zipfian", "scrambled"):
        for scheme, builder in (("aria", build_aria),
                                ("aria_nocache", build_aria_nocache)):
            store = builder(n_keys=n_keys, platform=scaled_platform(scale))
            workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95,
                                    value_size=16, distribution=distribution)
            run = load_and_run(store, workload, n_ops, scheme=scheme)
            result.add_row(
                distribution=distribution, scheme=scheme,
                **{"throughput ops/s": run.throughput},
                hit_ratio=(round(run.hit_ratio, 3)
                           if run.hit_ratio is not None else ""),
            )
    return result


# ---------------------------------------------------------------------------
# Extension: the semantic-aware swap optimizations of Section IV-C
# ---------------------------------------------------------------------------

def ablation_swap_semantics(scale: int = DEFAULT_SCALE,
                            n_ops: int = 4000) -> ExperimentResult:
    """Extra ablation: re-adding the costs SGX paging forces (Section IV-C).

    ``+encrypt``: swap-out pays encryption; ``+writeback``: clean victims
    are written back anyway (EWB semantics).  A small cache under skew makes
    eviction traffic visible.
    """
    result = ExperimentResult(
        exp_id="Ablation A2",
        title="Semantic-aware swap optimizations (skew RD50, small cache)",
        columns=["variant", "throughput ops/s", "writebacks",
                 "clean_discards"],
    )
    n_keys = scaled_keys(scale)
    variants = {
        "aria": {},
        "+encrypt_on_swap": {"swap_encrypt": True},
        "+writeback_clean": {"writeback_clean": True},
        "+both (EWB-like)": {"swap_encrypt": True, "writeback_clean": True},
    }
    for name, overrides in variants.items():
        store = build_aria(n_keys=n_keys, platform=scaled_platform(scale),
                           cache_fraction=0.2, stop_swap_enabled=False,
                           **overrides)
        workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.50,
                                value_size=16, distribution="zipfian")
        run = load_and_run(store, workload, n_ops, scheme=name)
        stats = store.cache_stats()
        result.add_row(variant=name,
                       **{"throughput ops/s": run.throughput},
                       writebacks=stats["writebacks"],
                       clean_discards=stats["clean_discards"])
    return result




# ---------------------------------------------------------------------------
# Extension: hotset drift (the workload-spike pattern of Bodik et al.)
# ---------------------------------------------------------------------------

def ablation_hotset_drift(scale: int = DEFAULT_SCALE,
                          n_ops: int = 8000) -> ExperimentResult:
    """Extra ablation: the hot set moves (the paper evaluates stationary
    distributions only).  After each drift the Secure Cache holds
    yesterday's celebrities and must re-converge; ShieldStore is
    drift-blind."""
    from repro.workloads.trace import DriftingWorkload

    result = ExperimentResult(
        exp_id="Ablation A6",
        title="Hotset drift: throughput vs drift period (skew RD95, 16B)",
        columns=["drift_period", "scheme", "throughput ops/s", "hit_ratio"],
    )
    n_keys = scaled_keys(scale)
    for period in (None, 8000, 2000, 500):
        label = "stationary" if period is None else str(period)
        for scheme, builder in (("aria", build_aria),
                                ("shieldstore", build_shieldstore)):
            store = builder(n_keys=n_keys, platform=scaled_platform(scale))
            workload = DriftingWorkload(n_keys=n_keys, read_ratio=0.95,
                                        value_size=16, drift_period=period,
                                        seed=7)
            run = load_and_run(store, workload, n_ops, scheme=scheme)
            result.add_row(
                drift_period=label, scheme=scheme,
                **{"throughput ops/s": run.throughput},
                hit_ratio=(round(run.hit_ratio, 3)
                           if run.hit_ratio is not None else ""),
            )
    return result


# ---------------------------------------------------------------------------
# Extension: frequency obfuscation (Section VII leakage mitigation sketch)
# ---------------------------------------------------------------------------

def ablation_obfuscation(scale: int = DEFAULT_SCALE,
                         n_ops: int = 3000) -> ExperimentResult:
    """Extra ablation: the price of blurring key-access frequencies with
    dummy bucket walks (Section VII defers mitigation to future work)."""
    result = ExperimentResult(
        exp_id="Ablation A7",
        title="Frequency obfuscation: dummy bucket walks per Get "
              "(skew RD95, 16B)",
        columns=["dummy_reads", "scheme", "throughput ops/s"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95, value_size=16,
                            distribution="zipfian")
    for dummies in (0, 1, 2, 4, 8):
        store = build_aria(n_keys=n_keys, platform=scaled_platform(scale),
                           dummy_bucket_reads=dummies)
        run = load_and_run(store, workload, n_ops, scheme="aria")
        result.add_row(dummy_reads=dummies, scheme="aria",
                       **{"throughput ops/s": run.throughput})
    shield = build_shieldstore(n_keys=n_keys, platform=scaled_platform(scale))
    run = load_and_run(shield, workload, n_ops, scheme="shieldstore")
    result.add_row(dummy_reads="n/a", scheme="shieldstore",
                   **{"throughput ops/s": run.throughput})
    return result


# ---------------------------------------------------------------------------
# Extension: ECALL amortization via request batching (Section II-A)
# ---------------------------------------------------------------------------

def ablation_server_batching(scale: int = DEFAULT_SCALE,
                             n_requests: int = 4096) -> ExperimentResult:
    """Extra ablation: the client-server ECALL tax and how batching
    amortizes it (the HotCalls-style mitigation)."""
    from repro.server import protocol
    from repro.server.server import AriaClient, AriaServer

    result = ExperimentResult(
        exp_id="Ablation A3",
        title="ECALL amortization via request batching (zipf RD95, 16B)",
        columns=["batch_size", "throughput ops/s", "ecalls"],
    )
    n_keys = 4096
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95, value_size=16,
                            distribution="zipfian")
    for batch_size in (1, 2, 4, 8, 16, 32, 64):
        store = build_aria(n_keys=n_keys, platform=scaled_platform(scale))
        store.load(workload.load_items())
        server = AriaServer(store)
        requests = [
            protocol.get(op.key) if op.kind == "get"
            else protocol.put(op.key, op.value)
            for op in workload.operations(n_requests)
        ]
        store.enclave.meter.reset()
        if batch_size == 1:
            for request in requests:
                server.handle(request.encode())
        else:
            AriaClient(server, batch_size=batch_size).pipeline(requests)
        cycles = store.enclave.meter.cycles
        result.add_row(
            batch_size=batch_size,
            **{"throughput ops/s":
               store.enclave.platform.cpu_hz * n_requests / cycles},
            ecalls=store.enclave.meter.events["ecall"],
        )
    return result


# ---------------------------------------------------------------------------
# Extension: per-op latency percentiles
# ---------------------------------------------------------------------------

def ablation_latency(scale: int = DEFAULT_SCALE,
                     n_ops: int = 4000) -> ExperimentResult:
    """Extra ablation: Secure Cache trades the mean for the tail — a view
    the paper's throughput-only figures omit."""
    from repro.bench.harness import run_operations, warm_store as _warm

    result = ExperimentResult(
        exp_id="Ablation A5",
        title="Per-op simulated-cycle latency percentiles (skew RD95, 16B)",
        columns=["scheme", "p50", "p90", "p99", "p99.9"],
    )
    runs = {}
    n_keys = scaled_keys(scale)
    for scheme, builder in (("aria", build_aria),
                            ("shieldstore", build_shieldstore)):
        store = builder(n_keys=n_keys, platform=scaled_platform(scale))
        workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95,
                                value_size=16, distribution="zipfian")
        store.load(workload.load_items())
        _warm(store, workload)
        run = run_operations(store, workload.operations(n_ops),
                             scheme=scheme, collect_latencies=True)
        runs[scheme] = run
        summary = run.latency_summary()
        result.add_row(scheme=scheme, p50=summary[50], p90=summary[90],
                       p99=summary[99], **{"p99.9": summary[99.9]})
    result.runs = runs
    return result


# ---------------------------------------------------------------------------
# Extension: cluster serving layer (repro.cluster) — Fig 16a generalized
# ---------------------------------------------------------------------------

def _as_requests(operations):
    """Convert a workload op stream into wire-protocol requests."""
    from repro.server import protocol

    return [
        protocol.get(op.key) if op.kind == "get"
        else protocol.put(op.key, op.value)
        for op in operations
    ]


def _drive_cluster(coordinator, requests, frame_ops: int = 256) -> None:
    """Feed requests through the coordinator in frame-sized deliveries.

    Mirrors how the netserver delivers traffic (one ``execute`` per wire
    frame), which also gives an attached balancer its periodic look.
    """
    for start in range(0, len(requests), frame_ops):
        coordinator.execute(requests[start:start + frame_ops])


def cluster_scaling(scale: int = 2048, n_ops: int = 3000,
                    shard_counts: Iterable[int] = (1, 2, 4),
                    batch_window: int = 32,
                    warm_ops: int = 1500) -> ExperimentResult:
    """Cluster throughput vs shard count, against N independent stores.

    Extends Fig 16a: instead of measuring isolated per-tenant stores, the
    ``cluster`` rows route one uniform RD95 stream through the consistent-
    hash front door with per-shard batch accumulation; the ``independent``
    rows drive the *same* shards, with the same key partition, directly
    through ``flush_batch`` with perfectly full batches — the no-serving-
    layer ideal.  The gap between the two is the routing overhead
    (partial batches at flush boundaries; the ring itself is untrusted
    front-end work and costs no enclave cycles).  Aggregate throughput is
    ``total_ops / max(per-shard cycles)``: shards are parallel enclaves,
    the straggler sets wall-clock.
    """
    from repro.cluster import ClusterConfig, ClusterStats

    result = ExperimentResult(
        exp_id="Cluster 1",
        title="Cluster scaling: shared-EPC shards vs independent stores "
              "(uniform RD95, 16B)",
        columns=["shards", "mode", "throughput ops/s", "ecalls",
                 "parallel_efficiency"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95, value_size=16,
                            distribution="uniform")
    warm = YcsbWorkload(n_keys=n_keys, read_ratio=0.95, value_size=16,
                        distribution="uniform", seed=workload.seed + 7919)
    for n_shards in shard_counts:
        for mode in ("cluster", "independent"):
            coordinator = ClusterConfig(
                n_shards=n_shards, n_keys=n_keys, scale=scale,
                batch_window=batch_window).build()
            coordinator.load(workload.load_items())
            requests = _as_requests(workload.operations(n_ops))
            warm_requests = _as_requests(warm.operations(warm_ops))
            if mode == "cluster":
                _drive_cluster(coordinator, warm_requests)
                stats = coordinator.stats()
                _drive_cluster(coordinator, requests)
            else:
                # The same shards and the same ring partition, but each
                # shard served directly by its own clients with full
                # batches: N independent stores, no front door.
                def drive_direct(reqs):
                    per_shard = {sid: [] for sid in coordinator.shards}
                    for request in reqs:
                        per_shard[coordinator.ring.route(request.key)] \
                            .append(request)
                    for shard_id, shard_requests in per_shard.items():
                        shard = coordinator.shards[shard_id]
                        for start in range(0, len(shard_requests),
                                           batch_window):
                            shard.server.flush_batch(
                                shard_requests[start:start + batch_window]
                            )

                drive_direct(warm_requests)
                stats = ClusterStats(coordinator.shard_list())
                drive_direct(requests)
            report = stats.report()
            result.add_row(
                shards=n_shards, mode=mode,
                **{"throughput ops/s": report["cluster"]
                   ["aggregate_throughput"]},
                ecalls=report["cluster"]["ecalls"],
                parallel_efficiency=round(
                    report["cluster"]["parallel_efficiency"], 3),
            )
    result.note(f"scale 1/{scale}: {n_keys} keys, EPC split per shard, "
                f"batch window {batch_window}")
    return result


def cluster_rebalance(scale: int = 2048, n_ops: int = 3000,
                      warm_ops: int = 4000,
                      batch_window: int = 32) -> ExperimentResult:
    """Hot-shard rebalancing under zipf 0.99 with a deliberately skewed ring.

    Three configurations of a 4-shard cluster:

    * ``balanced``          — even vnode spread (the healthy reference);
    * ``skewed``            — one shard owns ~90 % of the ring, so the
                              zipfian head lands on it and it straggles;
    * ``skewed+balancer``   — same sick ring, but the
                              :class:`~repro.cluster.balancer
                              .HotShardBalancer` watches per-shard cycle
                              windows and migrates key ranges (vnode moves
                              + re-Put through the trusted path, cycles
                              charged) during the warm phase.

    Throughput is measured *after* warm/convergence on a fresh meter
    window, so the balancer rows show steady-state payback, not the
    migration bill (which is itself reported in the keys_moved column).
    """
    from repro.cluster import ClusterConfig, HotShardBalancer

    result = ExperimentResult(
        exp_id="Cluster 2",
        title="Hot-shard rebalancing (zipf 0.99 RD95, 4 shards, skewed "
              "ring)",
        columns=["config", "throughput ops/s", "hot_share", "keys_moved",
                 "rounds"],
    )
    n_keys = scaled_keys(scale)
    n_shards = 4
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95, value_size=16,
                            distribution="zipfian", skew=0.99)
    warm = YcsbWorkload(n_keys=n_keys, read_ratio=0.95, value_size=16,
                        distribution="zipfian", skew=0.99,
                        seed=workload.seed + 7919)
    skewed_vnodes = {"shard-0": 116, "shard-1": 4, "shard-2": 4,
                     "shard-3": 4}
    for config, with_balancer in (
        ("balanced", False),
        ("skewed", False),
        ("skewed+balancer", True),
    ):
        coordinator = ClusterConfig(
            n_shards=n_shards, n_keys=n_keys, scale=scale,
            vnodes=128 if config == "balanced" else skewed_vnodes,
            batch_window=batch_window).build()
        balancer = None
        if with_balancer:
            balancer = HotShardBalancer(coordinator, check_every=512,
                                        imbalance_threshold=1.3,
                                        min_window_ops=256)
            coordinator.balancer = balancer
        coordinator.load(workload.load_items())
        _drive_cluster(coordinator, _as_requests(warm.operations(warm_ops)))
        stats = coordinator.stats()
        _drive_cluster(coordinator, _as_requests(workload.operations(n_ops)))
        report = stats.report()
        result.add_row(
            config=config,
            **{"throughput ops/s": report["cluster"]
               ["aggregate_throughput"]},
            hot_share=round(max(stats.ops_share().values()), 3),
            keys_moved=(balancer.total_keys_moved() if balancer else 0),
            rounds=(len(balancer.history) if balancer else 0),
        )
    result.note(f"scale 1/{scale}: {n_keys} keys; skewed ring gives "
                "shard-0 ~91% of vnodes; measurement window starts after "
                "warm/convergence")
    return result


def cluster_replication(scale: int = 2048, n_ops: int = 2000,
                        batch_window: int = 32) -> ExperimentResult:
    """Replication overhead: what R=2 actually costs, in cycles.

    Replica enclaves share no key material, so every replicated write is
    re-encrypted and re-MACed on each replica — write amplification is
    real work, not a pointer copy, and this experiment prices it:

    * ``write_cycles`` / ``read_cycles`` — total enclave cycles per op
      (summed across *all* replicas) for a pure-put and a pure-get phase.
      Writes should roughly double from R=1 to R=2; reads should not —
      they only ever touch the primary.
    * ``clean_read_cycles`` vs ``failover_read_cycles`` — a single Get
      before and after the primary's copy of that record is corrupted in
      untrusted memory: the failover read pays for the alarmed attempt
      (MAC verify that fails) plus the peer's re-execution.
    * ``throughput ops/s`` — aggregate throughput over a mixed RD50
      stream; replicas of a group run in parallel, so the group's
      wall-clock contribution is its slowest member.

    Both configurations split the *same* EPC envelope across all
    ``n_shards * R`` enclaves: replication's memory bill is paid inside
    the budget, not waved away.
    """
    from repro.attacks.scenarios import corrupt_record_in_place
    from repro.cluster import ClusterConfig, build_replicated_cluster

    result = ExperimentResult(
        exp_id="Cluster 3",
        title="Per-shard replication: write amplification and failover "
              "cost (uniform, 16B, 2 groups)",
        columns=["replication", "write_cycles", "read_cycles",
                 "clean_read_cycles", "failover_read_cycles",
                 "throughput ops/s"],
    )
    n_keys = scaled_keys(scale)

    def total_cycles(coordinator) -> float:
        return sum(replica.shard.meter.cycles
                   for group in coordinator.shard_list()
                   for replica in group.replicas)

    for replication in (1, 2):
        coordinator = build_replicated_cluster(ClusterConfig(
            n_shards=2, replication=replication, n_keys=n_keys, scale=scale,
            batch_window=batch_window))
        writes = YcsbWorkload(n_keys=n_keys, read_ratio=0.0, value_size=16,
                              distribution="uniform")
        reads = YcsbWorkload(n_keys=n_keys, read_ratio=1.0, value_size=16,
                             distribution="uniform", seed=writes.seed + 1)
        mixed = YcsbWorkload(n_keys=n_keys, read_ratio=0.5, value_size=16,
                             distribution="uniform", seed=writes.seed + 2)
        coordinator.load(writes.load_items())
        _drive_cluster(coordinator,
                       _as_requests(mixed.operations(n_ops // 2)))  # warm

        before = total_cycles(coordinator)
        _drive_cluster(coordinator, _as_requests(writes.operations(n_ops)))
        write_cycles = (total_cycles(coordinator) - before) / n_ops

        before = total_cycles(coordinator)
        _drive_cluster(coordinator, _as_requests(reads.operations(n_ops)))
        read_cycles = (total_cycles(coordinator) - before) / n_ops

        stats = coordinator.stats()
        _drive_cluster(coordinator, _as_requests(mixed.operations(n_ops)))
        throughput = stats.report()["cluster"]["aggregate_throughput"]

        # Single-get failover probe: pick a key owned by shard-0, price a
        # clean read, rot the primary's copy, price the read that fails
        # over to the intact replica (R=1 has nowhere to go: 0 by
        # definition, the alarm surfaces to the client instead).
        group = coordinator.shards["shard-0"]
        victim = next(k for k, _ in writes.load_items()
                      if coordinator.ring.route(k) == "shard-0")
        before = total_cycles(coordinator)
        coordinator.get(victim)
        clean_read = total_cycles(coordinator) - before
        failover_read = 0.0
        if replication >= 2:
            corrupt_record_in_place(group.replicas[0].shard.store, victim)
            before = total_cycles(coordinator)
            coordinator.get(victim)
            failover_read = total_cycles(coordinator) - before

        result.add_row(
            replication=replication,
            write_cycles=round(write_cycles, 1),
            read_cycles=round(read_cycles, 1),
            clean_read_cycles=round(clean_read, 1),
            failover_read_cycles=round(failover_read, 1),
            **{"throughput ops/s": throughput},
        )
    result.note(f"scale 1/{scale}: {n_keys} keys, 2 groups x R replicas "
                "splitting one EPC envelope; cycles are summed across "
                "replicas (total work, so fan-out shows as amplification)")
    return result


def cluster_process_backend(scale: int = 2048, n_ops: int = 2000,
                            n_shards: int = 2,
                            batch_window: int = 32) -> ExperimentResult:
    """Backend equivalence: inline vs real-OS-process shard workers.

    Runs the *same* seeded RD90 stream through ``ClusterConfig.build``
    twice — once with every shard enclave inline in this process, once
    with each one in its own OS worker behind a message pipe — and
    records, per backend: simulated throughput, total enclave cycles,
    and a digest of every wire response.  The simulated columns must be
    *identical* (the pipe carries absolute meter snapshots, so there is no
    float drift); only ``wall_s`` — real host seconds, reported but never
    asserted against the simulation — may differ, and the ratio shows
    what the IPC round-trips cost the host.
    """
    import hashlib
    import time

    from repro.cluster import ClusterConfig
    from repro.server.protocol import encode_batch_responses

    result = ExperimentResult(
        exp_id="Cluster 4",
        title="Shard backend equivalence: inline vs OS-process workers "
              "(uniform RD90, 16B)",
        columns=["backend", "throughput ops/s", "cycles_sum",
                 "responses_sha256", "wall_s"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.9, value_size=16,
                            distribution="uniform")
    # One materialized stream for both backends: ``operations()`` advances
    # the workload RNG, and equivalence demands the *same* requests.
    requests = _as_requests(workload.operations(n_ops))
    for backend in ("inline", "process"):
        coordinator = ClusterConfig(
            n_shards=n_shards, n_keys=n_keys, scale=scale,
            batch_window=batch_window, backend=backend).build()
        try:
            coordinator.load(workload.load_items())
            stats = coordinator.stats()
            digest = hashlib.sha256()
            started = time.perf_counter()
            for start in range(0, len(requests), 256):
                responses = coordinator.execute(requests[start:start + 256])
                digest.update(encode_batch_responses(responses))
            wall = time.perf_counter() - started
            report = stats.report()["cluster"]
            result.add_row(
                backend=backend,
                **{"throughput ops/s": report["aggregate_throughput"]},
                cycles_sum=round(report["cycles_sum"], 1),
                responses_sha256=digest.hexdigest()[:16],
                wall_s=round(wall, 3),
            )
        finally:
            coordinator.close()
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_shards} shards, "
                f"batch window {batch_window}; simulated columns must "
                "match exactly across backends, wall_s is host time")
    return result


def cluster_shard_workers(scale: int = 2048, n_ops: int = 4000,
                          n_shards: int = 2,
                          batch_window: int = 256,
                          frame_ops: int = 512) -> ExperimentResult:
    """Intra-shard batch parallelism: simulated scaling, unchanged answers.

    Runs one seeded 95%-read uniform stream through ``ClusterConfig.build`` at
    several shard worker counts (and, at 4 workers, under the
    OS-process backend too).  Two claims, one table:

    * **Determinism** — ``cycles_sum`` and the response digest are
      bit-identical in every row: the reserve → execute → commit engine
      (:mod:`repro.server.batchexec`) never lets N leak into answers or
      canonical charges.
    * **Scaling** — ``speedup`` is the engine's honest simulated figure,
      ``serial_cycles / critical_cycles``, with reservation-table traffic
      and phase barriers priced into the critical path.  A 95%-read mix
      rarely conflicts, so 4 workers should clear 3x; the conflict columns
      of :func:`ClusterStats.report` show where the residue goes.

    ``wall_s`` is real host time, reported but never asserted: real
    threads cannot speed up a pure-Python simulation (the GIL), but the
    process backend's prefetch thread overlaps pipe reads with execution,
    which is the only wall-clock effect worth recording.
    """
    import hashlib
    import time

    from repro.cluster import ClusterConfig
    from repro.server.protocol import encode_batch_responses

    result = ExperimentResult(
        exp_id="Parallel 1",
        title="Intra-shard batch parallelism: worker scaling "
              "(uniform RD95, 16B)",
        columns=["backend", "workers", "throughput ops/s", "cycles_sum",
                 "responses_sha256", "speedup", "wall_s"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.95, value_size=16,
                            distribution="uniform")
    requests = _as_requests(workload.operations(n_ops))
    for backend, workers in (("inline", 1), ("inline", 2), ("inline", 4),
                             ("process", 1), ("process", 4)):
        coordinator = ClusterConfig(
            n_shards=n_shards, n_keys=n_keys, scale=scale,
            batch_window=batch_window, backend=backend,
            workers=workers).build()
        try:
            coordinator.load(workload.load_items())
            stats = coordinator.stats()
            digest = hashlib.sha256()
            started = time.perf_counter()
            for start in range(0, len(requests), frame_ops):
                responses = coordinator.execute(
                    requests[start:start + frame_ops])
                digest.update(encode_batch_responses(responses))
            wall = time.perf_counter() - started
            report = stats.report()["cluster"]
            batchexec = report.get("batchexec")
            result.add_row(
                backend=backend,
                workers=workers,
                **{"throughput ops/s": report["aggregate_throughput"]},
                cycles_sum=round(report["cycles_sum"], 1),
                responses_sha256=digest.hexdigest()[:16],
                speedup=round(batchexec["speedup"], 2) if batchexec
                else 1.0,
                wall_s=round(wall, 3),
            )
        finally:
            coordinator.close()
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_shards} shards, "
                f"batch window {batch_window}; cycles_sum and the digest "
                "must be identical in every row — only speedup (simulated "
                "critical path) and wall_s (host time) may move")
    return result


def cluster_wire_overhead(scale: int = 2048, n_ops: int = 2000,
                          n_shards: int = 2,
                          batch_window: int = 32,
                          frame_ops: int = 256) -> ExperimentResult:
    """Price of the attested front door.

    Drives the same seeded RD90 stream through a real TCP
    :class:`~repro.cluster.netserver.BackgroundServer` per backend and
    replication R ∈ (1, 2), and accounts three simulated prices
    separately:

    * ``handshake_cycles`` — the client's one-time attested session setup
      (two 2048-bit exponentiations + quote verification);
    * ``wire_cycles_per_op`` — the gateway enclave's steady-state AEAD work
      (seal + open per frame, measured after the handshake, amortized over
      ``frame_ops``-request frames);
    * ``shard_cycles_per_op`` — the enclaves' own work, which encryption on
      the wire must not change (the benchmark suite compares it with the
      same frames run without a door).

    The wire columns are pure byte-length functions of the stream, and the
    gateway meter lives in the front-door process under both shard
    backends, so every simulated column must be identical between
    ``inline`` and ``process`` rows — the benchmark suite asserts it.
    """
    from repro.cluster import ClusterConfig, build_replicated_cluster
    from repro.cluster.netserver import BackgroundServer, ClusterClient

    result = ExperimentResult(
        exp_id="Cluster 5",
        title="Wire security overhead: attested v2 sessions "
              "(uniform RD90, 16B)",
        columns=["backend", "R", "shard_cycles_per_op",
                 "wire_cycles_per_op", "handshake_cycles",
                 "overhead_pct"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.9, value_size=16,
                            distribution="uniform")
    # One materialized stream for every cell: cross-backend equivalence
    # demands the same requests everywhere.
    requests = _as_requests(workload.operations(n_ops))

    def shard_cycles(coordinator) -> float:
        return sum(replica.shard.meter.cycles
                   for group in coordinator.shard_list()
                   for replica in group.replicas)

    for backend in ("inline", "process"):
        for replication in (1, 2):
            coordinator = build_replicated_cluster(ClusterConfig(
                n_shards=n_shards, replication=replication, n_keys=n_keys,
                scale=scale, batch_window=batch_window, backend=backend))
            background = BackgroundServer(coordinator)
            try:
                coordinator.load(workload.load_items())
                host, port = background.start()
                with ClusterClient.connect(host, port) as client:
                    info = client.session_info()
                    gateway = background.server.sessions.meter
                    wire_before = gateway.cycles
                    shards_before = shard_cycles(coordinator)
                    for start in range(0, len(requests), frame_ops):
                        client.request_batch(
                            requests[start:start + frame_ops])
                    shard_cpo = (shard_cycles(coordinator)
                                 - shards_before) / n_ops
                    wire_cpo = (gateway.cycles - wire_before) / n_ops
            finally:
                background.close()
            result.add_row(
                backend=backend, R=replication,
                shard_cycles_per_op=round(shard_cpo, 1),
                wire_cycles_per_op=round(wire_cpo, 1),
                handshake_cycles=round(info["handshake_cycles"], 1),
                overhead_pct=round(100.0 * wire_cpo / (shard_cpo or 1.0), 2),
            )
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_shards} groups x R "
                f"replicas, {frame_ops}-request frames; gateway AEAD is "
                "charged in the front-door process, so simulated columns "
                "are backend-invariant")
    return result


def cluster_socket_backend(scale: int = 2048, n_ops: int = 2000,
                           n_shards: int = 2, n_hosts: int = 2,
                           batch_window: int = 32) -> ExperimentResult:
    """Row S1: what the multi-host shard hop costs — and what it doesn't.

    Runs the *same* seeded RD90 stream through ``ClusterConfig.build`` three
    ways — shards inline, shards in OS worker processes behind pipes,
    and shards in shard-host processes reachable only over attested
    AES-CTR+CMAC TCP sessions (the ``socket`` backend) — and prices the
    hop separately from the enclaves:

    * ``hop_handshake_cycles`` — the coordinator's one-time session setup
      per shard link (attested handshake + the sealed spawn RPC), summed
      over links;
    * ``hop_cycles_per_op`` — the handle-side steady-state AEAD work
      (seal request + open reply per RPC), measured over the serving
      phase only and charged to the per-link ``wire_meter``, never the
      shard meter;
    * ``cycles_sum`` / ``throughput ops/s`` / ``responses_sha256`` — the
      enclaves' own simulated work and outputs, which the transport must
      not change: these columns are asserted identical across all three
      backends (absolute meter snapshots cross the wire, so no drift);
    * ``wall_s`` — real host seconds for the serving phase, reported but
      never asserted, showing what TCP round-trips plus AEAD cost the
      host relative to pipes.
    """
    import hashlib
    import time

    from repro.cluster import ClusterConfig, SocketBackend
    from repro.cluster.sockbackend import SocketShard
    from repro.server.protocol import encode_batch_responses

    result = ExperimentResult(
        exp_id="Cluster S1",
        title="Socket backend overhead: attested multi-host shard hop "
              "vs inline and OS-process workers (uniform RD90, 16B)",
        columns=["backend", "throughput ops/s", "cycles_sum",
                 "hop_handshake_cycles", "hop_cycles_per_op",
                 "responses_sha256", "wall_s"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.9, value_size=16,
                            distribution="uniform")
    # One materialized stream for every backend: equivalence demands the
    # same requests everywhere.
    requests = _as_requests(workload.operations(n_ops))

    def hop_cycles(coordinator) -> float:
        return sum(shard.wire_meter.cycles
                   for shard in coordinator.shard_list()
                   if isinstance(shard, SocketShard))

    for backend in ("inline", "process", "socket"):
        backend_arg = (SocketBackend(n_hosts=n_hosts, seed=1)
                       if backend == "socket" else backend)
        coordinator = ClusterConfig(
            n_shards=n_shards, n_keys=n_keys, scale=scale,
            batch_window=batch_window, backend=backend_arg).build()
        try:
            # Everything the hop spent so far is session setup: the
            # attested handshake plus the sealed spawn RPC, per link.
            handshake = hop_cycles(coordinator)
            coordinator.load(workload.load_items())
            stats = coordinator.stats()
            hop_before = hop_cycles(coordinator)
            digest = hashlib.sha256()
            started = time.perf_counter()
            for start in range(0, len(requests), 256):
                responses = coordinator.execute(requests[start:start + 256])
                digest.update(encode_batch_responses(responses))
            wall = time.perf_counter() - started
            hop_cpo = (hop_cycles(coordinator) - hop_before) / n_ops
            report = stats.report()["cluster"]
            result.add_row(
                backend=backend,
                **{"throughput ops/s": report["aggregate_throughput"]},
                cycles_sum=round(report["cycles_sum"], 1),
                hop_handshake_cycles=round(handshake, 1),
                hop_cycles_per_op=round(hop_cpo, 1),
                responses_sha256=digest.hexdigest()[:16],
                wall_s=round(wall, 3),
            )
        finally:
            coordinator.close()
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_shards} shards over "
                f"{n_hosts} shard hosts, batch window {batch_window}; "
                "enclave columns must match exactly across backends, hop "
                "crypto is charged per link off the shard meters, wall_s "
                "is host time")
    return result


def cluster_durability(scale: int = 2048, n_ops: int = 2000,
                       n_shards: int = 2,
                       batch_window: int = 32) -> ExperimentResult:
    """Row D1: what sealed, rollback-protected durability costs — and what
    a whole-partition recovery costs after it pays off.

    Drives the same seeded write-heavy stream (uniform WR50, 16B values)
    through R=2 clusters in three modes — in-memory, durable with a tight
    epoch binding (``epoch_every=8``), durable with the default binding
    (``epoch_every=32``) — then, in the durable modes, kills *every*
    replica of every partition and prices the full verified recovery:

    * ``shard_cycles_per_op`` — the enclaves' own serving work, which the
      sidecar must not change (it commits parent-side, off the enclave
      meters);
    * ``dur_cycles_per_op`` — the group-commit bill per routed op: seal +
      MAC chain + OCALL per batch, plus the amortized multi-million-cycle
      monotonic-counter increments (this is the column ``epoch_every``
      moves);
    * ``log_bytes_per_op`` — bytes appended to the untrusted log per op;
    * ``recovery_cycles`` — counter read + snapshot unseal + chained log
      replay + re-sealed puts to rebuild one replica per partition, summed
      across partitions;
    * ``recovered_keys`` — proof the rebuild was total, not token.

    The sidecar and its meter live in the coordinator process for both
    shard backends, so every simulated column must be identical between
    ``inline`` and ``process`` rows — the benchmark suite asserts it.
    """
    from repro.cluster import (
        ClusterConfig,
        HealthMonitor,
        build_replicated_cluster,
    )
    from repro.persist import MemoryDisk, attach_cluster_durability
    from repro.sgx.monotonic import MonotonicCounterService

    result = ExperimentResult(
        exp_id="Cluster D1",
        title="Sealed durability: group-commit overhead and "
              "whole-partition recovery (uniform WR50, 16B)",
        columns=["backend", "mode", "shard_cycles_per_op",
                 "dur_cycles_per_op", "log_bytes_per_op",
                 "recovery_cycles", "recovered_keys"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.5, value_size=16,
                            distribution="uniform")
    requests = _as_requests(workload.operations(n_ops))

    def shard_cycles(coordinator) -> float:
        return sum(replica.shard.meter.cycles
                   for group in coordinator.shard_list()
                   for replica in group.replicas)

    modes = (("in-memory", None), ("durable e=8", 8), ("durable e=32", 32))
    for backend in ("inline", "process"):
        for mode, epoch_every in modes:
            coordinator = build_replicated_cluster(ClusterConfig(
                n_shards=n_shards, replication=2, n_keys=n_keys, scale=scale,
                batch_window=batch_window, backend=backend))
            try:
                sidecars = {}
                if epoch_every is not None:
                    sidecars = attach_cluster_durability(
                        coordinator, MemoryDisk(),
                        MonotonicCounterService(),
                        epoch_every=epoch_every)
                coordinator.load(workload.load_items())
                dur_before = sum(d.meter.cycles for d in sidecars.values())
                log_before = sum(d.bytes_appended for d in sidecars.values())
                shards_before = shard_cycles(coordinator)
                _drive_cluster(coordinator, requests)
                shard_cpo = (shard_cycles(coordinator)
                             - shards_before) / n_ops
                dur_cpo = (sum(d.meter.cycles for d in sidecars.values())
                           - dur_before) / n_ops
                log_bpo = (sum(d.bytes_appended for d in sidecars.values())
                           - log_before) / n_ops

                recovery_cycles = 0.0
                recovered = 0
                if epoch_every is not None:
                    for group in coordinator.shard_list():
                        for replica in group.replicas:
                            replica.shard.kill()
                            group.mark_down(replica, "crash")
                    monitor = HealthMonitor(coordinator, check_every=1)
                    monitor.check()
                    assert not monitor.recovery_failures, \
                        monitor.recovery_failures
                    for report in monitor.recoveries:
                        recovery_cycles += report.dur_cycles \
                            + report.dst_cycles
                        recovered += report.keys_restored
                result.add_row(
                    backend=backend, mode=mode,
                    shard_cycles_per_op=round(shard_cpo, 1),
                    dur_cycles_per_op=round(dur_cpo, 1),
                    log_bytes_per_op=round(log_bpo, 1),
                    recovery_cycles=round(recovery_cycles, 1),
                    recovered_keys=recovered,
                )
            finally:
                for group in coordinator.shard_list():
                    group.close()
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_shards} groups x R=2; "
                "the durability sidecar (and its counter bill) is charged "
                "parent-side, so simulated columns are backend-invariant; "
                "recovery rebuilds one replica per partition from the "
                "sealed snapshot + chained log, peers re-sync from it")
    return result


def cluster_overload(scale: int = 2048, n_ops: int = 2000,
                     n_shards: int = 3,
                     batch_window: int = 8) -> ExperimentResult:
    """Row O1: graceful degradation under an adversarial hot-shard storm.

    Drives one seeded zipf(0.99) WR50 stream through an R=2 replicated
    cluster with the overload layer armed, on every shard backend.  The
    first half of the stream is the calm baseline; at halftime the hot
    partition's primary turns SLOW (alive, correct, just stalled — the
    failure crash detectors cannot see) while the skewed workload keeps
    hammering it.  Per backend and phase:

    * ``goodput`` — served-OK fraction of offered requests.  Calm is
      1.0; the storm must *degrade*, not die: the breaker trips after
      ``breaker_failures`` slow flushes, reads fail over to the live
      secondary, only hot-partition writes are shed;
    * ``shed`` / ``breaker_trips`` — the overload layer's own ledger;
    * ``cycles_sum`` / ``responses_sha256`` — the enclaves' simulated
      work and outputs for the phase.  The breaker's trip point is
      sample-count deterministic and the recovery window outlives the
      storm, so these columns — storm included — are asserted identical
      across all three backends (shed responses' ``retry_after`` hints
      are host wall-clock by contract and normalized out of the
      digest): overload decisions are untrusted parent-side work that
      never touches a shard meter;
    * ``wall_s`` — real host seconds, reported but never asserted (the
      two pre-trip stalls dominate it by design).

    The latency threshold (0.25 s) sits two orders of magnitude above a
    healthy flush and two below nothing — only the injected 0.6 s stall
    crosses it, so the trip schedule cannot flake on a loaded host.
    """
    import hashlib
    import time as _time

    from repro.cluster import (
        ClusterConfig,
        OverloadConfig,
        build_replicated_cluster,
    )
    from repro.server.protocol import (
        Response,
        Status,
        encode_batch_responses,
    )
    from repro.workloads.ycsb import make_key

    result = ExperimentResult(
        exp_id="Cluster O1",
        title="Overload robustness: goodput under a zipf(0.99) hot-shard "
              "storm with one SLOW shard (WR50, 16B)",
        columns=["backend", "phase", "goodput", "shed", "breaker_trips",
                 "cycles_sum", "responses_sha256", "wall_s"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.5, value_size=16,
                            distribution="zipfian", skew=0.99)
    requests = _as_requests(workload.operations(n_ops))
    half = len(requests) // 2
    stall_seconds = 0.6

    def shard_cycles(coordinator) -> float:
        return sum(replica.shard.meter.cycles
                   for group in coordinator.shard_list()
                   for replica in group.replicas)

    def canonical(responses):
        # A shed response's retry_after hint is the breaker's remaining
        # wall-clock countdown — host time, advisory by contract.  Strip
        # the 4-byte hint (keeping status and reason) so the digest
        # asserts what was *decided and served*, not when the host's
        # clock happened to tick.
        return [Response(r.status, r.value[4:])
                if r.status == Status.OVERLOADED else r
                for r in responses]

    for backend in ("inline", "process", "socket"):
        # Every replica is FaultyShard-wrapped, so the stall can be
        # applied directly at halftime, backend-independently.
        coordinator = build_replicated_cluster(ClusterConfig(
            n_shards=n_shards, replication=2, n_keys=n_keys, scale=scale,
            batch_window=batch_window, backend=backend,
            overload=OverloadConfig(breaker_failures=2, breaker_latency=0.25,
                                    breaker_recovery=120.0)))
        try:
            coordinator.load(workload.load_items())
            # zipf rank-1 key = the storm's hot spot; its partition is
            # where the stall lands.
            hot_group = coordinator.shards[
                coordinator.ring.route(make_key(0))]
            for phase, frames in (("calm", requests[:half]),
                                  ("storm", requests[half:])):
                if phase == "storm":
                    hot_group.replicas[0].shard.stall(stall_seconds)
                shed_before = coordinator.overload.stats()["shed"]
                cycles_before = shard_cycles(coordinator)
                digest = hashlib.sha256()
                ok = 0
                started = _time.perf_counter()
                for start in range(0, len(frames), 64):
                    responses = coordinator.execute(
                        frames[start:start + 64])
                    ok += sum(1 for r in responses
                              if r.status == Status.OK)
                    digest.update(
                        encode_batch_responses(canonical(responses)))
                wall = _time.perf_counter() - started
                stats = coordinator.overload.stats()
                result.add_row(
                    backend=backend, phase=phase,
                    goodput=round(ok / len(frames), 4),
                    shed=stats["shed"] - shed_before,
                    breaker_trips=stats["breaker_trips"],
                    cycles_sum=round(
                        shard_cycles(coordinator) - cycles_before, 1),
                    responses_sha256=digest.hexdigest()[:16],
                    wall_s=round(wall, 3),
                )
        finally:
            coordinator.close()
    result.note(f"scale 1/{scale}: {n_keys} keys, {n_shards} groups x R=2, "
                f"batch window {batch_window}; storm = hot primary stalled "
                f"{stall_seconds}s/flush, breaker trips after 2 slow "
                "samples then contains it (reads to the secondary, writes "
                "shed with retry_after); simulated columns are asserted "
                "backend-invariant, wall_s is host time")
    return result


def cluster_tenancy(scale: int = 2048, n_ops: int = 2000,
                    n_shards: int = 3,
                    batch_window: int = 8) -> ExperimentResult:
    """Row T1: whale-and-minnows fairness behind the multi-tenant front door.

    One cluster, two principals: a **whale** driving a zipf(0.99) WR50
    stream through its own key namespace, and a **minnow** with a small
    uniform working set.  Per backend, the minnow runs a fixed request
    window three times — solo (the baseline), then again after/while the
    whale floods — under two modes:

    * ``unarmed`` — the roster exists (namespaces route) but carries no
      rate limits and no cache quotas: the whale's flood evicts the
      minnow's Merkle nodes and the minnow's re-run pays swap-ins;
    * ``armed`` — the whale is rate-limited at the front door (sheds are
      typed ``OVERLOADED`` with the *whale's own* bucket refill time as
      the hint) and the minnow holds a Secure-Cache occupancy quota on
      every shard, so the flood cannot displace its nodes.

    ``fairness`` is the minnow's solo cycles-per-op over its contended
    cycles-per-op (1.0 = the whale is invisible); the T1 acceptance bar
    is ``fairness >= 0.8`` armed, and armed > unarmed.  ``typed_shed``
    counts whale sheds whose reason names the whale's own rate limit —
    it must equal ``whale_shed`` (every shed is charged to the offending
    principal; the hint's tenant-correct *value* is pinned by the unit
    and wire suites).  Buckets run on a deterministic stepping clock
    and every tenancy decision is untrusted parent-side work, so all
    simulated columns — sheds, denials, digests — are asserted
    bit-identical across the inline/process/socket backends.
    """
    import hashlib
    import json

    from repro.cluster import ClusterConfig, TenancyConfig, TenantConfig
    from repro.server.protocol import (
        Status,
        encode_batch_responses,
        overload_reason,
        retry_after_hint,
    )

    result = ExperimentResult(
        exp_id="Cluster T1",
        title="Multi-tenant fairness: zipf(0.99) whale vs uniform minnow, "
              "per-tenant admission + Secure-Cache quotas (WR50, 16B)",
        columns=["backend", "mode", "minnow_solo_cpo",
                 "minnow_contended_cpo", "fairness", "whale_shed",
                 "typed_shed", "evict_denied", "responses_sha256"],
    )
    n_keys = scaled_keys(scale)
    minnow_keys = max(64, n_keys // 8)
    whale_load = YcsbWorkload(n_keys=n_keys, read_ratio=0.5, value_size=16,
                              distribution="zipfian", skew=0.99)
    minnow_load = YcsbWorkload(n_keys=minnow_keys, read_ratio=0.5,
                               value_size=16, distribution="uniform")
    whale_requests = _as_requests(whale_load.operations(n_ops))
    minnow_window = _as_requests(minnow_load.operations(max(200, n_ops // 5)))

    def tenancy_for(mode: str) -> "TenancyConfig":
        if mode == "armed":
            return TenancyConfig(tenants=(
                TenantConfig("whale", rate=100.0, burst=50.0,
                             cache_quota=0.2),
                TenantConfig("minnow", cache_quota=0.5),
            ))
        return TenancyConfig(tenants=(TenantConfig("whale"),
                                      TenantConfig("minnow")))

    class SteppingClock:
        """1 ms per reading: bucket refill depends only on call count,
        which depends only on the request stream — backend-invariant."""

        def __init__(self):
            self.now = 0.0

        def __call__(self):
            self.now += 0.001
            return self.now

    def shard_cycles(coordinator) -> float:
        return sum(s.meter.cycles for s in coordinator.shard_list())

    for backend in ("inline", "process", "socket"):
        for mode in ("unarmed", "armed"):
            config = ClusterConfig(
                n_shards=n_shards, n_keys=n_keys, scale=scale,
                batch_window=batch_window, backend=backend,
                tenancy=tenancy_for(mode))
            coordinator = config.build(clock=SteppingClock())
            try:
                coordinator.load(whale_load.load_items(), tenant="whale")
                coordinator.load(minnow_load.load_items(), tenant="minnow")
                digest = hashlib.sha256()
                whale_shed = typed_shed = 0

                def drive(requests, tenant):
                    shed = typed = 0
                    before = shard_cycles(coordinator)
                    for start in range(0, len(requests), 64):
                        responses = coordinator.execute(
                            requests[start:start + 64], tenant=tenant)
                        digest.update(encode_batch_responses(responses))
                        for r in responses:
                            if r.status != Status.OVERLOADED:
                                continue
                            shed += 1
                            # The hint is the whale's own bucket price
                            # (>= 0; exactly 0 only when the stepping
                            # clock's own reading refilled the token).
                            retry_after_hint(r)
                            if overload_reason(r).startswith(
                                    b"tenant rate limit: whale"):
                                typed += 1
                    return shard_cycles(coordinator) - before, shed, typed

                solo_cycles, _, _ = drive(minnow_window, "minnow")
                _, whale_shed, typed_shed = drive(whale_requests, "whale")
                contended_cycles, _, _ = drive(minnow_window, "minnow")

                solo_cpo = solo_cycles / len(minnow_window)
                contended_cpo = contended_cycles / len(minnow_window)
                health = json.loads(
                    coordinator.health_response().value)["tenancy"]
                denied = sum(
                    health.get("cache_evict_denials", {}).values())
                result.add_row(
                    backend=backend, mode=mode,
                    minnow_solo_cpo=round(solo_cpo, 1),
                    minnow_contended_cpo=round(contended_cpo, 1),
                    fairness=round(solo_cpo / contended_cpo, 4),
                    whale_shed=whale_shed,
                    typed_shed=typed_shed,
                    evict_denied=denied,
                    responses_sha256=digest.hexdigest()[:16],
                )
            finally:
                coordinator.close()
    result.note(f"scale 1/{scale}: {n_keys} whale + {minnow_keys} minnow "
                f"keys, {n_shards} shards, batch window {batch_window}; "
                "armed = whale bucket 100 req/s (stepping clock) + cache "
                "quotas 0.2/0.5; fairness = minnow solo cpo / contended "
                "cpo; every tenancy decision is parent-side, so simulated "
                "columns are asserted backend-invariant")
    return result


def cluster_elastic(scale: int = 2048, n_ops: int = 2000,
                    batch_window: int = 8,
                    frame_ops: int = 64) -> ExperimentResult:
    """Row E1: goodput through a live 4→5→4 shard reconfiguration.

    One zipf(0.99) WR50 stream, never paused, drives a 4-shard cluster
    through five windows: steady state, a live shard **add** (4→5), the
    new steady state, a live shard **remove** (5→4), and the final
    steady state.  Each reconfiguration is planner-approved (the
    ``epc_budget`` model checks the cluster envelope covers
    ``max_shards``) and executed by the elastic engine one bounded key
    batch per request frame (the ``after_execute`` hook), so migration
    work is interleaved with serving instead of stopping the world.
    Copy/retire re-seals are charged to the shard meters, so the
    ``during-*`` rows' throughput dip *is* the migration bill as a
    client would observe it — and the same bill is priced explicitly in
    ``migration_cycles`` (keys moved × the spec's per-key
    ``migrate_cost_cycles``).

    The acceptance bar (benchmarks/test_cluster_scaling.py): both
    ``during-*`` windows keep >= 0.7 of the preceding steady window's
    throughput, every response in every window is OK (``ok_share`` 1.0:
    the authoritative side serves until the atomic cutover, so clients
    never see a hole), both migrations complete without aborts, and the
    priced cost is non-zero and consistent with the engine counters.
    """
    from repro.cluster import ClusterConfig
    from repro.server import protocol
    from repro.server.protocol import Status

    result = ExperimentResult(
        exp_id="Cluster E1",
        title="Elastic scale-out: goodput through a live 4→5→4 "
              "reconfiguration (zipf 0.99 WR50, 16B)",
        columns=["phase", "shards", "ops", "throughput ops/s", "ok_share",
                 "keys_moved", "dual_applied", "migration_cycles"],
    )
    n_keys = scaled_keys(scale)
    workload = YcsbWorkload(n_keys=n_keys, read_ratio=0.5, value_size=16,
                            distribution="zipfian", skew=0.99)
    config = ClusterConfig(n_shards=4, n_keys=n_keys, scale=scale,
                           batch_window=batch_window, max_shards=5)
    coordinator = config.build()
    try:
        coordinator.load(workload.load_items())
        engine = coordinator.elastic
        # Bound per-frame migration work so serving latency, not the
        # copy loop, dominates each frame (the interleaving knob).
        engine.batch_keys = max(8, frame_ops // 4)
        ops = iter(workload.operations(1 << 30))

        def next_frame():
            frame = []
            for op in ops:
                frame.append(protocol.get(op.key) if op.kind == "get"
                             else protocol.put(op.key, op.value))
                if len(frame) == frame_ops:
                    break
            return frame

        def window(phase: str, *, until_idle: bool = False) -> None:
            stats = coordinator.stats()
            base = engine.stats()
            ok = total = 0
            while engine.active if until_idle else total < n_ops:
                for response in coordinator.execute(next_frame()):
                    total += 1
                    ok += response.status == Status.OK
            report = stats.report()
            after = engine.stats()
            keys_moved = (
                after["keys_migrated"] + after["keys_retired"]
                - base["keys_migrated"] - base["keys_retired"])
            result.add_row(
                phase=phase, shards=len(coordinator.shards), ops=total,
                **{"throughput ops/s": report["cluster"]
                   ["aggregate_throughput"]},
                ok_share=round(ok / total, 4),
                keys_moved=keys_moved,
                dual_applied=after["dual_applied"] - base["dual_applied"],
                migration_cycles=round(
                    keys_moved * engine.spec.migrate_cost_cycles, 1),
            )

        window("steady-4")
        plan = engine.add_shard()
        joined = plan.delta.add_shards[0]
        window("during-add", until_idle=True)
        window("steady-5")
        engine.remove_shard(joined)
        window("during-remove", until_idle=True)
        window("steady-4'")
        summary = engine.stats()
        assert summary["migrations_completed"] == 2, summary
        assert summary["migrations_aborted"] == 0, summary
    finally:
        coordinator.close()
    result.note(f"scale 1/{scale}: {n_keys} keys, batch window "
                f"{batch_window}, {frame_ops}-op frames, migration batch "
                f"{engine.batch_keys} keys/frame; during-* windows span "
                "exactly one live migration (planner-approved, "
                "interleaved via after_execute); migration_cycles = keys "
                f"x {engine.spec.migrate_cost_cycles:.0f} "
                "migrate_cost_cycles")
    return result


ALL_EXPERIMENTS = {
    "table1": table1_comparison,
    "fig2": fig2_motivation,
    "fig9": fig9_ycsb_hash,
    "fig10": fig10_ycsb_tree,
    "fig11": fig11_etc,
    "fig12": fig12_ablation,
    "fig13": fig13_keyspace,
    "fig14": fig14_cache_size,
    "fig15": fig15_arity,
    "fig16a": fig16a_multitenant,
    "fig16b": fig16b_skewness,
    "ablation_locality": ablation_zipf_locality,
    "ablation_swap": ablation_swap_semantics,
    "ablation_batching": ablation_server_batching,
    "ablation_latency": ablation_latency,
    "ablation_drift": ablation_hotset_drift,
    "ablation_obfuscation": ablation_obfuscation,
    "cluster_scaling": cluster_scaling,
    "cluster_rebalance": cluster_rebalance,
    "cluster_replication": cluster_replication,
    "cluster_process_backend": cluster_process_backend,
    "cluster_shard_workers": cluster_shard_workers,
    "cluster_wire_overhead": cluster_wire_overhead,
    "cluster_socket_backend": cluster_socket_backend,
    "cluster_durability": cluster_durability,
    "cluster_overload": cluster_overload,
    "cluster_tenancy": cluster_tenancy,
    "cluster_elastic": cluster_elastic,
}
