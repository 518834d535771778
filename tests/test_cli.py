"""CLI smoke tests: every subcommand runs and prints sensible output."""

import pytest

from repro.cli import main


def test_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "get hello -> world" in out
    assert "EPC usage" in out


def test_demo_btree(capsys):
    assert main(["demo", "--index", "btree"]) == 0
    assert "world" in capsys.readouterr().out


def test_workload(capsys):
    code = main(["workload", "--keys", "2000", "--ops", "1000",
                 "--scale", "4096"])
    assert code == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "cycles/op" in out


def test_workload_unknown_scheme(capsys):
    assert main(["workload", "--scheme", "bogus"]) == 1
    assert "unknown scheme" in capsys.readouterr().err


def test_bench_requires_names(capsys):
    assert main(["bench"]) == 1
    assert "available:" in capsys.readouterr().err


def test_bench_unknown_name(capsys):
    assert main(["bench", "fig99"]) == 1
    assert "unknown experiment" in capsys.readouterr().err


def test_bench_table1(capsys):
    assert main(["bench", "table1"]) == 0
    out = capsys.readouterr().out
    assert "Table I" in out
    assert "ShieldStore" in out


def test_attack(capsys):
    assert main(["attack"]) == 0
    out = capsys.readouterr().out
    assert "MISSED" not in out
    assert "LEAKED" not in out
    assert out.count("DETECTED") == 5


def test_inspect(capsys):
    assert main(["inspect", "--keys", "10000", "--scale", "512"]) == 0
    out = capsys.readouterr().out
    assert "secure cache" in out
    assert "merkle levels" in out


def test_serve_binds_and_exits_at_request_limit(capsys):
    # --max-requests 0: bind the server, serve nothing, shut down
    # gracefully — the full lifecycle without a hanging foreground server.
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "cluster listening on 127.0.0.1:" in out
    assert "shard-0" in out and "shard-1" in out
    assert "served 0 requests" in out


def test_serve_banner_names_backend(capsys):
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0"])
    assert code == 0
    assert "backend inline" in capsys.readouterr().out


@pytest.mark.procs
def test_serve_process_backend_full_lifecycle(capsys):
    # Boot real worker processes behind the server, serve nothing,
    # and shut down cleanly — workers must be joined, not leaked.
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0",
                 "--backend", "process"])
    assert code == 0
    out = capsys.readouterr().out
    assert "backend process" in out
    assert "shard-0" in out and "shard-1" in out
    assert "served 0 requests" in out
    import multiprocessing

    assert multiprocessing.active_children() == []


def test_serve_durable_refuses_a_foreign_or_tampered_data_dir(tmp_path,
                                                              capsys):
    def serve(*extra):
        return main(["serve", "--shards", "1", "--port", "0", "--keys",
                     "500", "--scale", "2048", "--max-requests", "0",
                     "--durable", "--data-dir", str(tmp_path), *extra])

    assert serve() == 0
    capsys.readouterr()
    # Another seed is another enclave identity: its key cannot unseal.
    assert serve("--seed", "7") == 3
    assert "refusing to serve: IntegrityError: sealed blob failed " \
        "authentication" in capsys.readouterr().err
    assert serve() == 0
    snap = tmp_path / "shard-0.snap"
    data = bytearray(snap.read_bytes())
    data[40] ^= 0x01
    snap.write_bytes(bytes(data))
    assert serve() == 3
    assert "refusing to serve: IntegrityError:" in capsys.readouterr().err


def test_serve_rejects_unknown_backend():
    with pytest.raises(SystemExit):
        main(["serve", "--backend", "threads"])


def test_serve_balancer_flag(capsys):
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0", "--no-balance"])
    assert code == 0
    assert "balancer off" in capsys.readouterr().out


def test_serve_balancer_moves_through_the_planner(capsys, monkeypatch):
    """The default ``serve`` balancer submits every vnode move to the
    elastic planner, so the ``migration_cost`` gate applies to it."""
    import repro.cluster
    from repro.cluster import HotShardBalancer

    built = []

    class Recording(HotShardBalancer):
        def __init__(self, coordinator, **kwargs):
            super().__init__(coordinator, **kwargs)
            built.append(self)

    monkeypatch.setattr(repro.cluster, "HotShardBalancer", Recording)
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0"])
    assert code == 0
    assert "balancer on" in capsys.readouterr().out
    [balancer] = built
    coordinator = balancer._coordinator
    assert balancer.planner is coordinator.elastic.planner
    assert coordinator.balancer is balancer


def test_serve_overload_banner_and_summary(capsys):
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0",
                 "--max-inflight", "8", "--max-connections", "16"])
    assert code == 0
    out = capsys.readouterr().out
    assert "overload: max in-flight 8, max connections 16" in out
    assert "breakers armed" in out
    assert "shed 0 requests" in out


def test_serve_max_inflight_alone_arms_overload(capsys):
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0",
                 "--max-inflight", "4"])
    assert code == 0
    assert "max connections unlimited" in capsys.readouterr().out


def test_serve_rejects_nonpositive_max_inflight(capsys):
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0",
                 "--max-inflight", "0"])
    assert code == 1
    assert "--max-inflight must be at least 1" in capsys.readouterr().err


def test_serve_rejects_nonpositive_max_connections(capsys):
    code = main(["serve", "--shards", "2", "--port", "0", "--keys", "500",
                 "--scale", "2048", "--max-requests", "0",
                 "--max-connections", "-1"])
    assert code == 1
    assert "--max-connections must be at least 1" in capsys.readouterr().err


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])
