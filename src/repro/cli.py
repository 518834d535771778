"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``      — a guided tour: store, ops, attack detection.
* ``workload``  — one measured run of a configurable workload/scheme.
* ``bench``     — regenerate the paper's tables/figures.
* ``attack``    — stage every threat-model attack and report detection.
* ``inspect``   — show how a store would be sized at a given scale.
* ``serve``     — run the sharded cluster's TCP server.
* ``shard-host``— run one shard-host process for the socket backend.
* ``reconfig``  — rehearse a live shard add/remove under zipf traffic.
"""

from __future__ import annotations

import argparse
import sys
import time


def _cmd_demo(args: argparse.Namespace) -> int:
    from repro import AriaConfig, AriaStore
    from repro.sgx.costs import SgxPlatform

    store = AriaStore(
        AriaConfig(index=args.index, initial_counters=4096,
                   secure_cache_bytes=256 * 1024, n_buckets=512),
        platform=SgxPlatform(epc_bytes=2 << 20),
    )
    store.put(b"hello", b"world")
    print("put hello -> world")
    print("get hello ->", store.get(b"hello").decode())
    print("cache stats:", store.cache_stats())
    print("EPC usage:", dict(store.epc_report()))
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.bench.harness import (
        SCHEME_BUILDERS,
        load_and_run,
        scaled_platform,
    )
    from repro.bench.report import format_ops
    from repro.workloads.etc import EtcWorkload
    from repro.workloads.ycsb import YcsbWorkload

    if args.scheme not in SCHEME_BUILDERS:
        print(f"unknown scheme {args.scheme!r}; choose from "
              f"{sorted(SCHEME_BUILDERS)}", file=sys.stderr)
        return 1
    platform = scaled_platform(args.scale)
    store = SCHEME_BUILDERS[args.scheme](n_keys=args.keys, platform=platform)
    if args.workload == "etc":
        workload = EtcWorkload(n_keys=args.keys, read_ratio=args.read_ratio,
                               seed=args.seed)
    else:
        workload = YcsbWorkload(
            n_keys=args.keys, read_ratio=args.read_ratio,
            value_size=args.value_size, distribution=args.workload,
            skew=args.skew, seed=args.seed,
        )
    started = time.time()
    run = load_and_run(store, workload, args.ops, scheme=args.scheme)
    wall = time.time() - started
    print(f"scheme        {args.scheme}")
    print(f"workload      {args.workload} rd={args.read_ratio} "
          f"keys={args.keys} ops={args.ops}")
    print(f"throughput    {format_ops(run.throughput)} ops/s (simulated)")
    print(f"cycles/op     {run.cycles_per_op:,.0f}")
    if run.hit_ratio is not None:
        print(f"hit ratio     {run.hit_ratio:.1%}")
    interesting = {k: v for k, v in sorted(run.events.items())
                   if v and k in ("page_swap", "ecall", "ocall", "mt_verify",
                                  "cache_hit", "cache_miss", "cache_evict")}
    print(f"events        {interesting}")
    print(f"wall clock    {wall:.1f}s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS

    names = list(ALL_EXPERIMENTS) if args.all else args.experiments
    if not names:
        print("nothing to run; pass experiment names or --all\n"
              f"available: {', '.join(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 1
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        return 1
    for name in names:
        started = time.time()
        result = ALL_EXPERIMENTS[name]()
        print()
        print(result.render())
        print(f"[{name}: {time.time() - started:.1f}s]")
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro import AriaConfig, AriaStore
    from repro.attacks import (
        replay_stale_record,
        snoop_learns_only_ciphertext,
        swap_slot_pointers,
        tamper_merkle_node,
        tamper_record_body,
        unauthorized_delete,
    )
    from repro.sgx.costs import SgxPlatform

    def fresh():
        store = AriaStore(
            AriaConfig(index="hash", n_buckets=64, initial_counters=2048,
                       secure_cache_bytes=64 * 1024, pin_levels=1,
                       stop_swap_enabled=False),
            platform=SgxPlatform(epc_bytes=2 << 20),
        )
        for i in range(200):
            store.put(f"key-{i:04d}".encode(), f"value-{i}".encode())
        return store

    scenarios = [
        ("tamper-record", lambda s: tamper_record_body(s, b"key-0042")),
        ("replay-record", lambda s: replay_stale_record(s, b"key-0042",
                                                        b"value-X!")),
        ("swap-pointers", lambda s: swap_slot_pointers(s, b"key-0001",
                                                       b"key-0002")),
        ("unauthorized-delete", lambda s: unauthorized_delete(s, b"key-0007")),
        ("tamper-merkle", lambda s: tamper_merkle_node(s, counter_id=1500)),
    ]
    failures = 0
    for name, scenario in scenarios:
        outcome = scenario(fresh())
        mark = "DETECTED" if outcome.detected else "MISSED!"
        failures += 0 if outcome.detected else 1
        print(f"{name:<22} {mark}")
    confidential = snoop_learns_only_ciphertext(fresh(), b"key-0042",
                                                b"value-42")
    print(f"{'snoop-ciphertext':<22} "
          f"{'CONFIDENTIAL' if confidential else 'LEAKED!'}")
    failures += 0 if confidential else 1
    return 1 if failures else 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.bench.harness import (
        aria_buckets,
        aria_cache_budget,
        aria_counters,
        auto_pin_levels,
        scaled_platform,
    )
    from repro.merkle.layout import MerkleLayout

    platform = scaled_platform(args.scale)
    n_counters = aria_counters(args.keys)
    layout = MerkleLayout(n_counters=n_counters, arity=args.arity)
    pin = auto_pin_levels(layout, platform.epc_bytes)
    buckets = aria_buckets(args.keys, platform)
    budget = aria_cache_budget(platform, n_keys=args.keys, arity=args.arity,
                               pin_levels=pin, n_buckets=buckets)
    print(f"scale               1/{args.scale}")
    print(f"EPC                 {platform.epc_bytes:,} B")
    print(f"keys                {args.keys:,} "
          f"({n_counters:,} counters)")
    print(f"merkle levels       {layout.n_levels} "
          f"(node {layout.node_size} B, arity {args.arity})")
    print("level sizes         "
          + ", ".join(f"L{i}={s:,}B" for i, s in
                      enumerate(layout.level_sizes())))
    print(f"auto-pinned levels  top {pin} "
          f"({layout.pinned_bytes(pin):,} B)")
    print(f"hash buckets        {buckets:,}")
    print(f"secure cache        {budget:,} B "
          f"(~{budget // (layout.node_size + 16):,} nodes)")
    return 0


def _parse_tenants(spec: str, require_auth: bool):
    """``--tenants`` parser: ``id[:rate[:burst[:cache_quota]]]``, commas.

    Example: ``--tenants acme:200:50:0.4,blue,carol::0.2`` — acme is
    rate-limited to 200 req/s (burst 50) with 40 % of each Secure Cache
    guaranteed; blue has no limits; carol gets a 20 % cache quota only.
    """
    from repro.cluster import TenancyConfig, TenantConfig

    tenants = []
    for entry in spec.split(","):
        parts = entry.strip().split(":")
        if not parts[0]:
            raise ValueError(f"empty tenant id in {entry!r}")
        rate = float(parts[1]) if len(parts) > 1 and parts[1] else None
        burst = float(parts[2]) if len(parts) > 2 and parts[2] else rate
        quota = float(parts[3]) if len(parts) > 3 and parts[3] else None
        tenants.append(TenantConfig(parts[0], rate=rate,
                                    burst=burst if rate is not None else None,
                                    cache_quota=quota))
    return TenancyConfig(tenants=tuple(tenants), require_auth=require_auth)


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.cluster import (
        ClusterConfig,
        ClusterNetServer,
        DurabilityConfig,
        HotShardBalancer,
        OverloadConfig,
    )

    if args.shards < 1:
        print("--shards must be at least 1", file=sys.stderr)
        return 1
    if args.replication < 1:
        print("--replication must be at least 1", file=sys.stderr)
        return 1
    if args.shard_workers is not None and args.shard_workers < 1:
        print("--shard-workers must be at least 1", file=sys.stderr)
        return 1
    if args.max_inflight is not None and args.max_inflight < 1:
        print("--max-inflight must be at least 1", file=sys.stderr)
        return 1
    if args.max_connections is not None and args.max_connections < 1:
        print("--max-connections must be at least 1", file=sys.stderr)
        return 1
    if args.durable and not args.data_dir:
        print("--durable needs --data-dir (where the sealed snapshot/log "
              "files live)", file=sys.stderr)
        return 2
    if (args.shard_hosts or args.shard_measurements) \
            and args.backend != "socket":
        print("--shard-hosts/--shard-measurements need --backend socket",
              file=sys.stderr)
        return 2
    backend = args.backend
    if args.backend == "socket" and (args.shard_hosts
                                     or args.shard_measurements):
        from repro.cluster import SocketBackend

        backend = SocketBackend(hosts=args.shard_hosts,
                                expected_measurements=args.shard_measurements,
                                seed=args.seed)
    from repro.errors import (
        ClusterConnectionError,
        ClusterTimeoutError,
        ConfigurationError,
        DurabilityError,
        HandshakeError,
        IntegrityError,
    )

    tenancy = None
    if args.tenants:
        try:
            tenancy = _parse_tenants(args.tenants, args.require_tenant_auth)
        except (ConfigurationError, ValueError) as exc:
            print(f"bad --tenants spec: {exc}", file=sys.stderr)
            return 2
    # A capped front door also arms the coordinator's overload layer
    # (per-shard breakers, deadline shedding, auto-brownout).
    overloaded_door = (args.max_inflight is not None
                       or args.max_connections is not None)
    durability = None
    if args.durable:
        durability = DurabilityConfig(data_dir=args.data_dir,
                                      epoch_every=args.epoch_every)
    try:
        config = ClusterConfig.from_env(
            n_shards=args.shards,
            n_keys=args.keys,
            scale=args.scale,
            index=args.index,
            vnodes=args.vnodes,
            batch_window=args.batch_window,
            seed=args.seed,
            backend=backend,
            workers=args.shard_workers,
            replication=args.replication,
            overload=OverloadConfig() if overloaded_door else None,
            durability=durability,
            tenancy=tenancy,
        )
    except ConfigurationError as exc:
        print(f"bad cluster configuration: {exc}", file=sys.stderr)
        return 2
    try:
        coordinator = config.build()
    except (HandshakeError, ClusterConnectionError,
            ClusterTimeoutError, DurabilityError, IntegrityError) as exc:
        # A shard host that is down/mis-attested, or a data dir that is
        # tampered, foreign or rolled back, is a refusal to serve — not a
        # crash: surface it.
        print(f"refusing to serve: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return 3
    restored = coordinator.durability_restored
    if args.balance:
        # Every move goes through the planner's constraint models.
        coordinator.balancer = HotShardBalancer(
            coordinator, planner=coordinator.elastic.planner)
    server = ClusterNetServer(coordinator, host=args.host, port=args.port,
                              max_requests=args.max_requests,
                              max_inflight=args.max_inflight,
                              max_connections=args.max_connections)

    host, port = server.start()
    print(f"cluster listening on {host}:{port} "
          f"({args.shards} shards, backend {args.backend}, "
          f"{config.workers or 1} worker(s)/shard, "
          f"balancer {'on' if args.balance else 'off'})")
    if args.durable:
        print(f"  durable: data dir {args.data_dir}, replication "
              f"{args.replication}, epoch every {args.epoch_every} "
              "commits")
        for shard_id in sorted(restored):
            state = restored[shard_id]
            print(f"  {shard_id}: restored {len(state.pairs)} keys "
                  f"(epoch {state.epoch}, {state.batches_replayed} "
                  "batches replayed)")
    if overloaded_door:
        print("  overload: max in-flight "
              f"{args.max_inflight if args.max_inflight else 'unlimited'}"
              ", max connections "
              f"{args.max_connections if args.max_connections else 'unlimited'}"  # noqa: E501
              ", per-shard breakers armed")
    print(f"  gateway measurement {server.sessions.measurement.hex()}")
    if tenancy is not None:
        roster = ", ".join(t.tenant_id for t in tenancy.tenants)
        print(f"  tenants: {roster} (auth "
              f"{'required' if tenancy.require_auth else 'optional'})")
    for shard in coordinator.shard_list():
        line = f"  {shard.shard_id}: EPC {shard.epc_bytes:,} B"
        if shard.replicas is not None:  # a group fronts its enclaves
            line += f", {len(shard.replicas)} replica(s)"
        else:
            line += f", {shard.store.config.n_buckets:,} buckets"
        print(line)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    server.stop()
    try:
        report = coordinator.stats().report()["shards"]
        print(f"served {server.requests_served} requests "
              f"in {server.frames_served} frames")
        if overloaded_door:
            shed = server.wire_stats()["overload"]
            print(f"  overload: shed {shed['requests_shed']} requests "
                  f"({shed['frames_shed']} frames), peak in-flight "
                  f"{shed['max_inflight_seen']}, "
                  f"{shed['connections_refused']} connections refused")
        gateway = server.wire_stats()["gateway"]
        print(f"  wire: {gateway['handshakes']} handshakes, "
              f"{gateway['cycles']:,.0f} gateway cycles "
              f"({gateway['cipher']})")
        for shard_id in sorted(report):
            row = report[shard_id]
            print(f"  {shard_id}: {row['keys']} keys, "
                  f"{row['ops_executed']} ops, "
                  f"hit ratio {row['cache_hit_ratio']:.1%}")
    finally:
        # Joins/terminates process-backed shard workers; inline no-op.
        coordinator.close()
    return 0


def _cmd_reconfig(args: argparse.Namespace) -> int:
    """Rehearse a live topology change: plan, execute under traffic, verify.

    Builds a cluster with EPC headroom, loads it, then runs the full
    elastic cycle — plan through the constraint models, migrate in
    bounded batches interleaved with zipfian serving traffic, cut over,
    retire — and (with ``--and-remove``) shrinks back, verifying zero
    acked-write loss at the end.  The operator-facing dry run for
    ARCHITECTURE §17.
    """
    from repro.cluster import ClusterConfig
    from repro.errors import AriaError, PlanRejectedError
    from repro.server import protocol
    from repro.workloads.ycsb import YcsbWorkload

    config = ClusterConfig.from_env(
        n_shards=args.shards,
        n_keys=args.keys,
        scale=args.scale,
        seed=args.seed,
        backend=args.backend,
        max_shards=max(args.shards + 1, args.max_shards or 0),
    )
    coordinator = config.build()
    engine = coordinator.elastic
    try:
        workload = YcsbWorkload(n_keys=args.keys, read_ratio=0.5,
                                distribution="zipfian", skew=0.99,
                                seed=args.seed)
        coordinator.load(workload.load_items())
        ops = iter(workload.operations(10_000_000))
        acked = {}

        def drive_until_idle(label: str) -> int:
            batches = 0
            while engine.active:
                batch = []
                for _ in range(64):
                    op = next(ops)
                    if op.kind == "get":
                        batch.append(protocol.get(op.key))
                    else:
                        batch.append(protocol.put(op.key, op.value))
                responses = coordinator.execute(batch)
                for request, response in zip(batch, responses):
                    if request.opcode == protocol.OpCode.PUT \
                            and response.status == protocol.Status.OK:
                        acked[request.key] = request.value
                batches += 1
            print(f"  {label}: drained in {batches} batches under traffic")
            return batches

        print(f"cluster: {args.shards} shards, backend "
              f"{args.backend or 'inline'}, {args.keys} keys")
        try:
            plan = engine.add_shard()
        except PlanRejectedError as exc:
            print(f"plan rejected [{exc.constraint}]: {exc}",
                  file=sys.stderr)
            return 3
        print(plan.describe())
        drive_until_idle("add")
        if args.and_remove:
            new_id = plan.delta.add_shards[0]
            plan = engine.remove_shard(new_id)
            print(plan.describe())
            drive_until_idle("remove")
        lost = 0
        for key, value in acked.items():
            try:
                if coordinator.get(key) != value:
                    lost += 1
            except AriaError:
                lost += 1
        stats = engine.stats()
        print(f"migrations: {stats['migrations_completed']} completed, "
              f"{stats['migrations_aborted']} aborted; "
              f"{stats['keys_migrated']} keys migrated, "
              f"{stats['dual_applied']} writes dual-applied")
        print(f"acked writes verified: {len(acked)}, lost: {lost}")
        return 1 if lost else 0
    finally:
        coordinator.close()


def _cmd_shard_host(args: argparse.Namespace) -> int:
    from repro.cluster import run_shard_host

    try:
        run_shard_host(host=args.host, port=args.port, seed=args.seed,
                       crypto=args.crypto)
    except KeyboardInterrupt:  # pragma: no cover - interactive shutdown
        pass
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Aria (ICDE 2021) reproduction: secure in-memory KV "
                    "store on a simulated SGX enclave",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="guided store demo")
    demo.add_argument("--index", default="hash",
                      choices=["hash", "btree", "bplustree"])
    demo.set_defaults(func=_cmd_demo)

    workload = sub.add_parser("workload", help="one measured workload run")
    workload.add_argument("--scheme", default="aria")
    workload.add_argument("--workload", default="zipfian",
                          choices=["zipfian", "scrambled", "uniform", "etc"])
    workload.add_argument("--keys", type=int, default=20_000)
    workload.add_argument("--ops", type=int, default=10_000)
    workload.add_argument("--read-ratio", type=float, default=0.95)
    workload.add_argument("--value-size", type=int, default=16)
    workload.add_argument("--skew", type=float, default=0.99)
    workload.add_argument("--scale", type=int, default=512)
    workload.add_argument("--seed", type=int, default=0)
    workload.set_defaults(func=_cmd_workload)

    bench = sub.add_parser("bench", help="regenerate paper tables/figures")
    bench.add_argument("experiments", nargs="*")
    bench.add_argument("--all", action="store_true")
    bench.set_defaults(func=_cmd_bench)

    attack = sub.add_parser("attack", help="stage the threat-model attacks")
    attack.set_defaults(func=_cmd_attack)

    serve = sub.add_parser("serve",
                           help="run the sharded cluster TCP server")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--port", type=int, default=7433,
                       help="0 picks an ephemeral port")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--keys", type=int, default=20_000,
                       help="cluster-wide keyspace the shards are sized for")
    serve.add_argument("--scale", type=int, default=512,
                       help="EPC scale divisor (as in the bench harness)")
    serve.add_argument("--index", default="hash",
                       choices=["hash", "btree", "bplustree"])
    serve.add_argument("--vnodes", type=int, default=128)
    serve.add_argument("--batch-window", type=int, default=32)
    serve.add_argument("--shard-workers", type=int, default=None,
                       help="simulated enclave worker threads per shard: "
                       "batches run the Aria-style reserve/execute/commit "
                       "pipeline (deterministic, bit-identical responses "
                       "and cycles at any count); default 1, or "
                       "ARIA_SHARD_WORKERS")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--backend", default="inline",
                       choices=["inline", "process", "socket"],
                       help="where shard enclaves run: in this process "
                            "(inline), one OS process each (process), or "
                            "in shard-host processes over attested TCP "
                            "(socket)")
    serve.add_argument("--shard-hosts", default=None,
                       help="socket backend only: comma-separated "
                            "host:port list of running shard-hosts "
                            "(default: spawn local hosts)")
    serve.add_argument("--shard-measurements", default=None,
                       help="socket backend only: comma-separated hex "
                            "measurements the shard-hosts must attest to "
                            "(default: trust on first use)")
    serve.add_argument("--no-balance", dest="balance", action="store_false",
                       help="disable the hot-shard balancer")
    serve.add_argument("--max-requests", type=int, default=None,
                       help="stop after serving this many request frames "
                            "(default: serve until interrupted)")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="admission cap: request frames executing or "
                            "queued at once — excess is shed with "
                            "STATUS_OVERLOADED + retry_after; also arms "
                            "the coordinator's per-shard circuit breakers")
    serve.add_argument("--max-connections", type=int, default=None,
                       help="refuse TCP connections beyond this count "
                            "(closed without reply)")
    serve.add_argument("--durable", action="store_true",
                       help="rollback-protected sealed persistence: group-"
                            "commit every acked write to a sealed WAL and "
                            "recover partitions across restarts")
    serve.add_argument("--data-dir", default=None,
                       help="directory for the sealed snapshot/log files "
                            "and the monotonic counter store (required "
                            "with --durable)")
    serve.add_argument("--replication", type=int, default=1,
                       help="replicas per partition (replica groups even "
                            "at 1, which durable mode requires)")
    serve.add_argument("--epoch-every", type=int, default=32,
                       help="group commits between monotonic-counter "
                            "bindings (lower = smaller offline rollback "
                            "window, higher amortized counter cost)")
    serve.add_argument("--tenants", default=None,
                       help="arm the multi-tenant front door: comma-"
                            "separated id[:rate[:burst[:cache_quota]]] "
                            "specs — per-tenant token-bucket admission, "
                            "disjoint key namespaces, and Secure-Cache "
                            "occupancy quotas (e.g. "
                            "'acme:200:50:0.4,blue')")
    serve.add_argument("--require-tenant-auth", action="store_true",
                       help="with --tenants: refuse v2 handshakes that "
                            "carry no authenticated tenant block")
    serve.set_defaults(func=_cmd_serve)

    reconfig = sub.add_parser(
        "reconfig",
        help="rehearse a live elastic topology change: plan through the "
             "constraint models, add (and optionally remove) a shard "
             "under zipfian traffic, verify zero acked-write loss")
    reconfig.add_argument("--shards", type=int, default=4)
    reconfig.add_argument("--max-shards", type=int, default=None,
                          help="EPC headroom the planner budgets for "
                               "(default: shards + 1)")
    reconfig.add_argument("--keys", type=int, default=5_000)
    reconfig.add_argument("--scale", type=int, default=512)
    reconfig.add_argument("--seed", type=int, default=0)
    reconfig.add_argument("--backend", default=None,
                          choices=["inline", "process", "socket"])
    reconfig.add_argument("--and-remove", action="store_true",
                          help="after the add completes, remove the new "
                               "shard again (the full 4->5->4 cycle)")
    reconfig.set_defaults(func=_cmd_reconfig)

    shard_host = sub.add_parser(
        "shard-host",
        help="run one shard-host process (socket backend): serves shard "
             "enclaves over attested, encrypted TCP sessions")
    shard_host.add_argument("--host", default="127.0.0.1")
    shard_host.add_argument("--port", type=int, default=0,
                            help="0 picks an ephemeral port (printed)")
    shard_host.add_argument("--seed", type=int, default=0,
                            help="derives the host's key material, hence "
                                 "the measurement coordinators pin")
    shard_host.add_argument("--crypto", default="fast",
                            choices=["fast", "real"])
    shard_host.set_defaults(func=_cmd_shard_host)

    inspect = sub.add_parser("inspect", help="show store sizing at a scale")
    inspect.add_argument("--keys", type=int, default=20_000)
    inspect.add_argument("--scale", type=int, default=512)
    inspect.add_argument("--arity", type=int, default=8)
    inspect.set_defaults(func=_cmd_inspect)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
