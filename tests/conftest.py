"""Shared test plumbing: run the cluster suites against both shard backends.

The cluster, replication, fault, and netserver suites were written against
the duck-typed shard contract — they never ask *where* a shard's enclave
runs.  ``pytest_generate_tests`` below re-runs every test in those modules
twice: once with the default ``inline`` backend and once with the
``process`` backend (real OS workers, marked ``procs``).  The cluster,
replication and fault suites additionally run against the ``socket``
backend (shard-host processes over attested TCP, marked ``dist``).  The
test bodies are unmodified; only the process-wide default backend changes.

The ``cluster_backend`` fixture is inserted at the *front* of each test's
fixture list so it is set up before (and torn down after) the module's own
``cluster``/``server`` fixtures — the default backend is already switched
by the time ``ClusterConfig.build`` runs, and worker reaping happens after
every other fixture has finished.  Existing tests never close their clusters
(inline shards have nothing to release), so the teardown *reaps* leaked
workers rather than failing on them — and then asserts that reaping
actually worked: no stray child processes may survive a test.
"""

import json
import multiprocessing
import os
import threading

import pytest

from repro.cluster import (
    reap_leaked_hosts,
    reap_leaked_workers,
    set_default_backend,
)

# The shared chaos oracle asserts on the gauntlets' behalf; let pytest
# explain its failures the way it explains a test module's own asserts.
pytest.register_assert_rewrite("tests.chaos")

# Modules whose tests exercise the cluster layer through the shard
# contract.  Only these are parametrized; the single-store suites would
# gain nothing from a second run.
_BACKEND_MODULES = {
    "test_cluster",
    "test_cluster_elastic",
    "test_cluster_faults",
    "test_cluster_overload",
    "test_cluster_replication",
    "test_cluster_tenancy",
    "test_durability_recovery",
    "test_netserver",
    "test_wire_session",
}

# The subset that additionally runs on the socket backend: the suites
# whose semantics the distributed deployment must preserve (routing,
# replication/failover, fault injection).  Durability and front-door
# suites spend their time on orthogonal machinery; spawning shard-hosts
# under them buys no extra coverage for the shard hop.
_SOCKET_MODULES = {
    "test_cluster",
    "test_cluster_elastic",
    "test_cluster_faults",
    "test_cluster_overload",
    "test_cluster_replication",
    "test_cluster_tenancy",
}

_BACKEND_PARAMS = [
    pytest.param("inline"),
    pytest.param("process", marks=pytest.mark.procs),
]

_SOCKET_PARAM = pytest.param("socket", marks=pytest.mark.dist)


def pytest_generate_tests(metafunc):
    module = metafunc.module.__name__.rpartition(".")[2]
    if module not in _BACKEND_MODULES:
        return
    params = list(_BACKEND_PARAMS)
    if module in _SOCKET_MODULES:
        params.append(_SOCKET_PARAM)
    if "cluster_backend" not in metafunc.fixturenames:
        metafunc.fixturenames.insert(0, "cluster_backend")
    metafunc.parametrize("cluster_backend", params, indirect=True)


@pytest.fixture()
def cluster_backend(request):
    """Switch the process-wide default backend for one test, then clean up."""
    name = getattr(request, "param", "inline")
    previous = set_default_backend(name)
    try:
        yield name
    finally:
        set_default_backend(previous)
        leaked = reap_leaked_workers()
        leaked_hosts = reap_leaked_hosts()
        strays = multiprocessing.active_children()
        assert not strays, (
            f"worker processes survived reaping: {strays} "
            f"(reaped handles for shards {leaked}, "
            f"shard-hosts {leaked_hosts})"
        )


@pytest.fixture(autouse=True)
def no_door_thread_outlives_its_test():
    """Whatever front door a test (or its fixtures) started must be gone:
    the accept loop and every connection reader, not just the port."""
    yield
    doors = [t for t in threading.enumerate()
             if t.name.startswith("aria-door")]
    for thread in doors:
        thread.join(2.0)
    assert not [t.name for t in doors if t.is_alive()]


@pytest.fixture()
def fsync_events(monkeypatch):
    """Every ``os.fsync`` the process makes, as ``("fsync", file name)`` in
    order (flush evidence by count and order, never by clock).  Tests may
    append their own events to the same list."""
    events = []
    real_fsync = os.fsync

    def recording_fsync(fd):
        path = os.readlink(f"/proc/self/fd/{fd}")
        events.append(("fsync", os.path.basename(path)))
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", recording_fsync)
    return events


# -- chaos reproducibility ---------------------------------------------------------
#
# Chaos tests register their FaultPlan through ``fault_record``; when such a
# test fails, the hook below dumps every registered plan — seed, spec, each
# event and its fired state — as JSON under $ARIA_FAULT_ARTIFACTS (default
# ``fault-artifacts/``).  CI uploads that directory on failure, so a red run
# carries its exact schedule home instead of asking anyone to bisect seeds.


@pytest.fixture()
def fault_record(request):
    """Register FaultPlans for artifact capture if this test fails."""
    plans = []
    request.node._fault_plans = plans

    def record(plan):
        plans.append(plan)
        return plan

    return record


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    plans = getattr(item, "_fault_plans", None)
    if report.when != "call" or not report.failed or not plans:
        return
    out_dir = os.environ.get("ARIA_FAULT_ARTIFACTS", "fault-artifacts")
    os.makedirs(out_dir, exist_ok=True)
    safe = (item.nodeid.replace("/", "_").replace("::", ".")
            .replace("[", "-").replace("]", ""))
    path = os.path.join(out_dir, safe + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(
            {"test": item.nodeid,
             "plans": [plan.to_dict() for plan in plans]},
            fh, indent=2)
