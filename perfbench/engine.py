"""Runs one workload once and turns what it saw into metrics.

A *pass* is: set up (build, load, handshake, warm-up), open the meter
window, drive whole segments until the time budget is spent, tear down.
Every segment is followed by a host-speed probe (``hostspeed.py``) and
every duration is reported in reference-host time: the sandbox runs the
same code up to 2x slower for minutes at a time.
An untraced run (``--trace 0``) sets up three times, to report the
median set-up time, and measures on the last system.  A traced run (``--trace
1``) makes one untraced pass and one traced pass over the *same* stream,
each on half the budget: the untraced half is the base of
``trace.overhead_ratio``, and the two halves' exact prefixes must agree on
every digest and every simulated cycle, or tracing changed the program.
"""

from __future__ import annotations

import gc
import hashlib
import os
import resource
import statistics
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from repro.errors import AriaError
from repro.server import protocol
from repro.server.protocol import Status

from perfbench import hostspeed, tracing
from perfbench.inputs import Model, OpStream, make_value
from perfbench.workloads import (
    OP_EVENTS,
    SPECS,
    SYSTEMS,
    Snapshot,
    Spec,
    reap_everything,
)

#: An untraced run sets up this many times and reports the median.  A fixed
#: count: the garbage of each set-up shows in ``peak_rss_mb``.
SETUP_REPEATS = 3
WARMUP_SEED_OFFSET = 7919
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")
_STATUS_OK = int(Status.OK)


@dataclass
class Drive:
    """Mutable state of one pass's load generator and oracle."""

    model: Model
    latencies: array = field(default_factory=lambda: array("q"))
    call_ns: int = 0
    attempted: int = 0
    failed: int = 0
    user_bytes: int = 0
    #: Response digest; set to None once the exact prefix is over.
    digest: Optional["hashlib._Hash"] = None


def _drive_store(system, ids, puts, drive: Drive) -> None:
    """One segment of direct ``get``/``put`` calls, one op per call."""
    keys = drive.model.keys
    values = drive.model.values
    size = drive.model.value_bytes
    stamps = size // 16
    seq = drive.model.seq
    get, put = system.get, system.put
    now = time.perf_counter_ns
    record = drive.latencies.append
    digest = drive.digest.update if drive.digest is not None else None
    call_ns = failed = user_bytes = 0
    for key_id, is_put in zip(ids, puts):
        key = keys[key_id]
        try:
            if is_put:
                seq += 1
                # inputs.make_value, inlined: this loop runs once per op.
                value = (b"%08x%08x" % (key_id, seq & 0xFFFFFFFF)) * stamps
                values[key_id] = value
                started = now()
                put(key, value)
                elapsed = now() - started
                user_bytes += 16 + size
                got = b""
            else:
                started = now()
                got = get(key)
                elapsed = now() - started
                if got != values[key_id]:
                    failed += 1
        except AriaError:
            elapsed = now() - started
            failed += 1
            got = b"!"
        call_ns += elapsed
        record(elapsed)
        if digest is not None:
            digest(got)
    drive.model.seq = seq
    drive.call_ns += call_ns
    drive.failed += failed
    drive.user_bytes += user_bytes
    drive.attempted += len(ids)


def _drive_frames(system, ids, puts, drive: Drive, frame: int) -> None:
    """One segment of framed calls; requests are built outside the timer."""
    keys = drive.model.keys
    values = drive.model.values
    size = drive.model.value_bytes
    seq = drive.model.seq
    call = system.call
    make_get, make_put = protocol.get, protocol.put
    now = time.perf_counter_ns
    failed = 0
    for start in range(0, len(ids), frame):
        requests = []
        expected = []
        # Writes update the model as they are issued, in frame order: a
        # key routes to one shard, which preserves arrival order.
        for key_id, is_put in zip(ids[start:start + frame],
                                  puts[start:start + frame]):
            if is_put:
                seq += 1
                value = values[key_id] = make_value(key_id, seq, size)
                requests.append(make_put(keys[key_id], value))
                expected.append(b"")
                drive.user_bytes += 16 + size
            else:
                requests.append(make_get(keys[key_id]))
                expected.append(values[key_id])
        started = now()
        try:
            responses = call(requests)
        except AriaError:
            responses = []
        elapsed = now() - started
        drive.call_ns += elapsed
        drive.latencies.append(elapsed)
        if len(responses) != len(requests):
            failed += len(requests)
            continue
        for response, want in zip(responses, expected):
            if response.status != _STATUS_OK or response.value != want:
                failed += 1
        if drive.digest is not None:
            drive.digest.update(b"".join(
                b"%d:%d:" % (r.status, len(r.value)) + r.value
                for r in responses))
    drive.model.seq = seq
    drive.failed += failed
    drive.attempted += len(ids)


def _drive(system, spec: Spec, ids, puts, drive: Drive) -> None:
    if spec.ops_per_call == 1:
        _drive_store(system, ids, puts, drive)
    else:
        _drive_frames(system, ids, puts, drive, spec.ops_per_call)


def _host_cpu_seconds(pids) -> float:
    """utime + stime of the shard-host processes, from ``/proc``."""
    ticks = 0
    for pid in pids:
        with open(f"/proc/{pid}/stat") as handle:
            # Fields after the parenthesised comm; utime, stime are 14, 15.
            fields = handle.read().rpartition(")")[2].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / _CLOCK_TICK


def _percentile(ordered, share: float):
    return ordered[min(len(ordered) - 1, int(len(ordered) * share))]


class Segment(NamedTuple):
    ops: int
    call_ns: int
    first_call: int             # slice of Drive.latencies
    end_call: int
    cpu_s: float                # this process, load generator included
    host_cpu_s: float           # shard-host processes
    speed: hostspeed.Speed      # of the host around it, on both clocks


@dataclass
class Timed:
    """The timed phase in reference-host time (see :func:`_normalise`)."""

    ops: int
    ops_per_s: float
    raw_ops_per_s: float        # as the host's own clock read it
    cpu_s: float
    host_cpu_s: float
    latencies_us: list          # sorted
    speed: float                # median wall speed of the host, 1.0 = ref.


def _normalise(segments: list, latencies) -> Timed:
    """Every segment's durations times the host speed its probes saw.

    Throughput is the median over the segments, which shrugs off the
    segment (or the probe) that a neighbour's burst hit alone; latencies
    are pooled over the whole phase, each scaled by its own segment's
    speed; CPU seconds are summed, each segment's scaled by the speed the
    probes showed on the CPU clock.
    """
    pooled = []
    for seg in segments:
        scale = seg.speed.wall / 1e3
        pooled.extend(ns * scale
                      for ns in latencies[seg.first_call:seg.end_call])
    pooled.sort()
    return Timed(
        ops=sum(seg.ops for seg in segments),
        ops_per_s=statistics.median(
            seg.ops * 1e9 / (seg.call_ns * seg.speed.wall)
            for seg in segments),
        raw_ops_per_s=(sum(seg.ops for seg in segments) * 1e9
                       / sum(seg.call_ns for seg in segments)),
        cpu_s=sum(seg.cpu_s * seg.speed.cpu for seg in segments),
        host_cpu_s=sum(seg.host_cpu_s * seg.speed.cpu for seg in segments),
        latencies_us=pooled,
        speed=statistics.median(seg.speed.wall for seg in segments),
    )


@dataclass
class PassResult:
    """Everything one pass measured, before it becomes named metrics."""

    setup_s: float              # reference-host time, like all below
    ops: int                    # timed ops, all segments
    calls: int
    call_s: float               # host time
    phase_s: float              # host time, probes left out
    timed: "Timed"
    exact_ops: int
    exact_user_bytes: int
    before: Snapshot
    after: Snapshot
    window: dict
    cpu_hz: float
    input_sha256: str
    responses_sha256: str
    attempted: int
    failed: int
    close_s: float
    peak_rss_mb: float
    recover_s: float = 0.0
    layer_totals: Optional[dict] = None


def _setup(spec: Spec, seed: int, workdir: str):
    """Build, load, handshake and warm up; returns (system, drive, sha)."""
    model = Model(spec.n_keys, spec.value_bytes)
    drive = Drive(model)
    inputs = hashlib.sha256(repr((spec, seed)).encode())
    system = SYSTEMS[spec.name](spec, model, workdir)
    try:
        warm = OpStream(spec.n_keys, spec.distribution, spec.put_ratio,
                        seed + WARMUP_SEED_OFFSET)
        ids, puts = warm.take(spec.warmup_ops)
        inputs.update(ids.tobytes())
        inputs.update(puts)
        _drive(system, spec, ids, puts, drive)
    except BaseException:
        system.close()
        raise
    return system, drive, inputs


def run_pass(spec: Spec, seed: int, seconds: float, workdir: str,
             *, repeat_setup: bool = False,
             tracer: Optional[tracing.Tracer] = None) -> PassResult:
    setup_times = []
    system = None
    try:
        while True:
            # Set-up is one long stretch of the program's own code: the
            # probes can only bracket it.
            before = hostspeed.settled_speed()
            started = time.perf_counter()
            system, warm_drive, inputs = _setup(spec, seed, workdir)
            elapsed = time.perf_counter() - started
            after = hostspeed.settled_speed()
            setup_times.append(elapsed * (before.wall + after.wall) / 2)
            if not repeat_setup or len(setup_times) >= SETUP_REPEATS:
                break
            system.close()
            system = None
            gc.collect()
        return _measure(spec, seed, seconds, system, warm_drive, inputs,
                        statistics.median(setup_times), tracer)
    finally:
        if system is not None:
            system.close()


def _measure(spec, seed, seconds, system, warm_drive, inputs, setup_s,
             tracer) -> PassResult:
    stream = OpStream(spec.n_keys, spec.distribution, spec.put_ratio, seed)
    drive = Drive(warm_drive.model, digest=hashlib.sha256())
    gc.collect()
    system.open_window()
    before = system.snapshot()
    host_pids = system.host_pids()
    if tracer is not None:
        tracer.reset()
    probe = hostspeed.probe()
    probe_s = 0.0
    phase0 = time.perf_counter()
    deadline = phase0 + seconds
    segments = []
    after = window = None
    exact_user_bytes = 0
    segment = 0
    while segment < spec.exact_segments or time.perf_counter() < deadline:
        # The segment's CPU clocks run from before its inputs are made to
        # after its responses are checked: the load generator counts.
        host_cpu0 = _host_cpu_seconds(host_pids)
        cpu0 = time.process_time()
        ids, puts = stream.take(spec.segment_ops)
        if segment < spec.exact_segments:
            inputs.update(ids.tobytes())
            inputs.update(puts)
        call_ns, first_call = drive.call_ns, len(drive.latencies)
        _drive(system, spec, ids, puts, drive)
        cpu_s = time.process_time() - cpu0
        host_cpu_s = _host_cpu_seconds(host_pids) - host_cpu0
        # The probe that closes this segment opens the next one.
        probe0 = time.perf_counter()
        previous, probe = probe, hostspeed.probe()
        probe_s += time.perf_counter() - probe0
        segments.append(Segment(
            spec.segment_ops, drive.call_ns - call_ns,
            first_call, len(drive.latencies), cpu_s, host_cpu_s,
            hostspeed.speed(previous, probe)))
        segment += 1
        if segment == spec.exact_segments:
            # End of the exact prefix.  Reading remote meters costs RPCs
            # that are no part of any client call: keep them out of the
            # layer accumulators.
            saved = tracer.save() if tracer is not None else None
            after = system.snapshot()
            window = system.window_report()
            if tracer is not None:
                tracer.restore(saved)
            responses_sha256 = drive.digest.hexdigest()
            drive.digest = None
            exact_user_bytes = drive.user_bytes
    phase_s = time.perf_counter() - phase0 - probe_s
    # Before the latencies are pooled and sorted: that is the benchmark's
    # memory, and it grows with the number of calls a run got done.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layer_totals = tracer.totals() if tracer is not None else None

    attempted = warm_drive.attempted + drive.attempted
    failed = warm_drive.failed + drive.failed
    timed = _normalise(segments, drive.latencies)
    recover_s = system.crash_and_recover()
    if recover_s is not None:
        # Every key, as the model says it was last acked, from the rebuilt
        # cluster: the durability check itself.
        check = Drive(drive.model)
        ids = array("I", range(spec.n_keys))
        _drive_frames(system, ids, bytearray(len(ids)), check, 64)
        attempted += check.attempted
        failed += check.failed
    cpu_hz = system.cpu_hz
    started = time.perf_counter()
    system.close()
    close_s = (time.perf_counter() - started) * timed.speed

    return PassResult(
        setup_s=setup_s,
        ops=segment * spec.segment_ops,
        calls=len(drive.latencies),
        call_s=drive.call_ns / 1e9,
        phase_s=phase_s,
        timed=timed,
        exact_ops=spec.exact_segments * spec.segment_ops,
        exact_user_bytes=exact_user_bytes,
        before=before,
        after=after,
        window=window,
        cpu_hz=cpu_hz,
        input_sha256=inputs.hexdigest(),
        responses_sha256=responses_sha256,
        attempted=attempted,
        failed=failed,
        close_s=close_s,
        peak_rss_mb=peak_rss_mb,
        recover_s=(recover_s or 0.0) * timed.speed,
        layer_totals=layer_totals,
    )


# -- from measurements to named metrics ---------------------------------------


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def sim_metrics(result: PassResult) -> dict:
    """The simulated clock over the exact prefix; repeats bit for bit."""
    deltas = [after - before for before, after in
              zip(result.before.enclave_cycles, result.after.enclave_cycles)]
    return {
        "sim_cycles_per_op": _metric(sum(deltas) / result.exact_ops,
                                     "cycles"),
        "sim_ops_per_s": _metric(
            result.cpu_hz * result.exact_ops / max(deltas), "ops/s"),
    }


def end_to_end_metrics(result: PassResult) -> dict:
    timed = result.timed
    return {
        "setup_s": _metric(result.setup_s, "s"),
        "wall_ops_per_s": _metric(timed.ops_per_s, "ops/s"),
        "call_p50_us": _metric(_percentile(timed.latencies_us, 0.50), "us"),
        "call_p95_us": _metric(_percentile(timed.latencies_us, 0.95), "us"),
        "cpu_us_per_op": _metric(
            (timed.cpu_s + timed.host_cpu_s) * 1e6 / timed.ops, "us"),
        **sim_metrics(result),
        "peak_rss_mb": _metric(result.peak_rss_mb, "MB"),
    }


def counter_metrics(result: PassResult) -> dict:
    """The program's own counters over the exact prefix, by layer."""
    ops = result.exact_ops
    events = result.after.events - result.before.events
    executed = sum(events[name] for name in OP_EVENTS)
    lookups = events["cache_hit"] + events["cache_miss"]
    durability = Counter()
    if result.after.durability is not None:
        durability = result.after.durability - result.before.durability
    return {
        "cache.hit_ratio": _metric(
            events["cache_hit"] / lookups if lookups else 0.0, "ratio"),
        "cache.miss_per_op": _metric(events["cache_miss"] / ops, "1/op"),
        "cache.evict_per_op": _metric(events["cache_evict"] / ops, "1/op"),
        "cache.writeback_per_op": _metric(
            events["cache_writeback"] / ops, "1/op"),
        "merkle.mt_verify_per_op": _metric(events["mt_verify"] / ops,
                                           "1/op"),
        "crypto.mac_bytes_per_op": _metric(events["mac_bytes"] / ops,
                                           "B/op"),
        "crypto.enc_bytes_per_op": _metric(events["enc_bytes"] / ops,
                                           "B/op"),
        "sgx.enclave.ecalls_per_op": _metric(events["ecall"] / ops, "1/op"),
        "sgx.enclave.untrusted_access_per_op": _metric(
            events["untrusted_access"] / ops, "1/op"),
        "sgx.enclave.epc_access_per_op": _metric(
            events["epc_access"] / ops, "1/op"),
        "alloc.heap_alloc_per_op": _metric(events["heap_alloc"] / ops,
                                           "1/op"),
        # Batch fill: ops an enclave executed per boundary crossing.
        "server.server.ops_per_ecall": _metric(
            executed / events["ecall"] if events["ecall"] else 0.0, "ops"),
        "cluster.session.wire_cycles_per_op": _metric(
            (result.after.wire_cycles - result.before.wire_cycles) / ops,
            "cycles"),
        "cluster.session.frames_per_op": _metric(
            (result.after.wire_frames - result.before.wire_frames) / ops,
            "1/op"),
        "cluster.coordinator.parallel_efficiency": _metric(
            result.window.get("parallel_efficiency", 0.0), "ratio"),
        "cluster.coordinator.ops_share_max": _metric(
            result.window.get("ops_share_max", 0.0), "ratio"),
        "persist.dur_commit_per_op": _metric(
            durability["dur_commit"] / ops, "1/op"),
        "persist.dur_bytes_per_user_byte": _metric(
            durability["dur_bytes"] / result.exact_user_bytes
            if durability["dur_bytes"] else 0.0, "ratio"),
    }


def exact_metrics(result: PassResult) -> dict:
    """Everything that repeats bit for bit for a seed, traced or not."""
    return {**sim_metrics(result), **counter_metrics(result)}


def wall_layer_metrics(result: PassResult) -> dict:
    """Per-layer wall-clock readings that need no tracing."""
    timed = result.timed
    return {
        "persist.recover_s": _metric(result.recover_s, "s"),
        "cluster.remote.host_cpu_us_per_op": _metric(
            timed.host_cpu_s * 1e6 / timed.ops, "us"),
        "cluster.backend.close_s": _metric(result.close_s, "s"),
        "client.call_p99_us": _metric(
            _percentile(timed.latencies_us, 0.99), "us"),
        "client.loadgen_share": _metric(
            1.0 - result.call_s / result.phase_s, "ratio"),
        # What normalisation did: the host's own reading, and the factor.
        "client.raw_wall_ops_per_s": _metric(timed.raw_ops_per_s, "ops/s"),
        "host.speed_ratio": _metric(timed.speed, "ratio"),
    }


def trace_metrics(untraced: PassResult, traced: PassResult,
                  tracer: tracing.Tracer) -> dict:
    """Per-layer self time and calls from the traced pass."""
    ops = traced.ops
    # The accumulators run over the whole pass: one speed for all of it.
    to_us = traced.timed.speed / 1e3
    out = {}
    attributed_ns = 0
    for layer in tracer.layers:
        self_ns, calls = traced.layer_totals[layer]
        attributed_ns += self_ns
        out[f"{layer}.self_us_per_op"] = _metric(self_ns * to_us / ops, "us")
        out[f"{layer}.calls_per_op"] = _metric(calls / ops, "1/op")
    out["trace.unattributed_us_per_op"] = _metric(
        (traced.call_s * 1e9 - attributed_ns) * to_us / ops, "us")
    out["trace.span_overhead_ns"] = _metric(
        tracer.span_overhead_ns() * traced.timed.speed, "ns")
    out["trace.overhead_ratio"] = _metric(
        untraced.timed.ops_per_s / traced.timed.ops_per_s, "ratio")
    return out


# -- one run, as the driver and ``perfbench run`` both invoke it --------------


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 workdir: str, quick: bool = False) -> dict:
    """One fresh-interpreter run of one workload; returns the full record."""
    spec = SPECS[name].quick() if quick else SPECS[name]
    record = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": int(trace), "quick": quick}
    try:
        if not trace:
            result = run_pass(spec, seed, seconds, workdir,
                              repeat_setup=True)
            record["metrics"] = end_to_end_metrics(result)
            consistent = True
        else:
            untraced = run_pass(spec, seed, seconds / 2, workdir)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(spec, seed, seconds / 2, workdir,
                                  tracer=tracer)
            finally:
                tracer.uninstall()
            result = untraced
            record["metrics"] = {**counter_metrics(untraced),
                                 **wall_layer_metrics(untraced),
                                 **trace_metrics(untraced, traced, tracer)}
            record["trace_targets_missing"] = tracer.missing
            # Tracing must not change what the program computes.
            consistent = (
                traced.failed == 0
                and traced.responses_sha256 == untraced.responses_sha256
                and traced.input_sha256 == untraced.input_sha256
                and exact_metrics(traced) == exact_metrics(untraced))
            record["traced_call_s"] = traced.call_s
            record["traced_ops"] = traced.ops
    finally:
        reap_everything()
    record.update(
        exact=exact_metrics(result),
        input_sha256=result.input_sha256,
        responses_sha256=result.responses_sha256,
        attempted=result.attempted,
        failed=result.failed,
        failed_ops_share=result.failed / result.attempted,
        timed_ops=result.ops,
        timed_calls=result.calls,
        host_speed=result.timed.speed,
        raw_wall_ops_per_s=result.timed.raw_ops_per_s,
        correct=consistent and result.failed == 0,
    )
    return record
