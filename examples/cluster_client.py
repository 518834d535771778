#!/usr/bin/env python3
"""Scenario: a sharded multi-enclave cluster served over a real TCP socket.

The paper's Fig 16a splits one machine's EPC across 2/4 tenant enclaves but
only measures them in isolation.  `repro.cluster` turns that split into a
serving layer: a TCP front door routes live traffic across N
enclave-backed shards via a consistent-hash ring, batches per shard to
amortize the ECALL tax, and migrates hot key ranges when one shard
straggles.

This example boots a 4-shard cluster server on an ephemeral port (real
TCP, accept loop on a background thread), drives a zipfian workload through
the synchronous wire client — including a deliberately oversized frame the
server must reject — and prints the per-shard picture.

With ``--backend process`` each shard's enclave runs in its own OS worker
process behind a message pipe — same wire responses, same simulated
cycles, real process isolation.

Run:  python examples/cluster_client.py [--backend process]
"""

import sys

from repro.bench.report import format_ops
from repro.cluster import (
    BackgroundServer,
    ClusterClient,
    ClusterConfig,
    HotShardBalancer,
    build_cluster,
)
from repro.server import protocol
from repro.workloads.ycsb import YcsbWorkload

N_SHARDS = 4
N_KEYS = 4_000
N_OPS = 2_000
BATCH = 64


def main(backend: str = "inline") -> None:
    coordinator = build_cluster(ClusterConfig(
        n_shards=N_SHARDS, n_keys=N_KEYS, scale=512, batch_window=32,
        backend=backend))
    coordinator.balancer = HotShardBalancer(coordinator, check_every=512)
    workload = YcsbWorkload(n_keys=N_KEYS, read_ratio=0.9, value_size=16,
                            distribution="zipfian")
    coordinator.load(workload.load_items())
    stats = coordinator.stats()

    with BackgroundServer(coordinator) as background:
        host, port = background.server.address
        print(f"cluster of {N_SHARDS} enclave shards "
              f"({backend} backend) listening on {host}:{port}\n")

        # connect() performs the attested v2 handshake: the
        # gateway's quote binds its measurement to the transcript, then
        # every frame below travels AES-CTR encrypted and CMAC'd.
        with ClusterClient.connect(host, port) as client:
            info = client.session_info()
            print(f"attested session {info['session_id']:#x} "
                  f"({info['cipher']}), handshake cost "
                  f"{info['handshake_cycles'] / 1e6:.1f}M simulated cycles\n")

            # A couple of single requests, end to end over the wire.
            client.put(b"session:42", b"alice")
            print("GET session:42 ->",
                  client.get(b"session:42").value.decode())

            # The workload, pipelined in wire batches.
            requests = [
                protocol.get(op.key) if op.kind == "get"
                else protocol.put(op.key, op.value)
                for op in workload.operations(N_OPS)
            ]
            ok = 0
            for start in range(0, len(requests), BATCH):
                chunk = requests[start:start + BATCH]
                ok += sum(r.ok for r in client.request_batch(chunk))
            print(f"{ok}/{len(requests)} requests OK over "
                  f"{len(requests) // BATCH} wire frames")

            # A malformed delivery is rejected as a unit (none executed).
            client.send_frame(b"\xff\xff not a batch")
            rejection = protocol.decode_batch_responses(client.recv_frame())
            print("malformed frame ->",
                  "rejected as a unit" if protocol.is_batch_rejection(
                      rejection) else "BUG")
            wire = client.session_info()
            print(f"wire crypto total: {wire['wire_cycles'] / 1e6:.1f}M "
                  f"cycles over {wire['frames_sealed']} sealed frames")

    report = stats.report()
    coordinator.close()  # joins process-backend workers; inline no-op
    print(f"\n{'shard':>8} {'keys':>6} {'ops':>6} {'ecalls':>7} "
          f"{'hit ratio':>10}")
    for shard_id in sorted(report["shards"]):
        row = report["shards"][shard_id]
        print(f"{shard_id:>8} {row['keys']:>6} {row['window_ops']:>6} "
              f"{row['window_ecalls']:>7} {row['cache_hit_ratio']:>10.1%}")
    cluster = report["cluster"]
    print(f"\naggregate: {format_ops(cluster['aggregate_throughput'])} "
          f"ops/s across {cluster['n_shards']} shards "
          f"(parallel efficiency {cluster['parallel_efficiency']:.0%}, "
          f"{cluster['ecalls']} ECALLs for {cluster['window_ops']} ops)")


if __name__ == "__main__":
    chosen = "inline"
    if "--backend" in sys.argv[1:]:
        chosen = sys.argv[sys.argv.index("--backend") + 1]
    main(backend=chosen)
