"""``python -m repro bench cluster_*`` output, pinned.

Every PR since the one-recipe refactor has claimed "all ``bench cluster_*``
outputs byte-identical except ``wall_s``" and checked it by hand.  This
file makes the claim executable for the seven experiments cheap enough for
tier-1: each runs at a reduced ``n_ops`` and key space, its ``wall_s``
column (host time, the one column allowed to move) is masked, and two
sha256 digests must equal the constants below: one of the rendered table —
title, header, every simulated column, the notes — and one of the rows at
full precision (``repr`` of every value).  The table rounds to three
significant digits, so a drift such as −1,261 of 7.42 M handshake cycles
shows only in the second.  The three expensive ones
(``cluster_durability``, ``cluster_overload``, ``cluster_tenancy``) stay a
by-hand check.

Each digest was produced at the parent commit of the change that added it,
by running this file as a script (``PYTHONPATH=src python
tests/test_bench_golden.py``).  Four experiments name their backends
themselves; the other three (:data:`DEFAULT_BACKEND`) take
``ARIA_CLUSTER_BACKEND``, and their full-precision rows are checked under
``process`` and ``socket`` too: simulated cycles depend on the seed, never
on where an enclave runs.  Every experiment names its worker counts, so
the ``ARIA_SHARD_WORKERS`` CI matrix cannot move them.  Regenerate only
for a change that *means* to move a simulated column, and say so in
CHANGES.md.  ``cluster_wire_overhead`` was re-pinned once, when its v1
rows and ``wire`` column were removed with the v1 door; its v2 rows held
to the last digit.  ``cluster_socket_backend``'s row digest was re-pinned once,
when the shard host's pid left the sealed ``ready`` reply
(``hop_handshake_cycles`` had depended on the pid's digit count).  Both
its digests were re-pinned once more when a call's batch windows for one
shard began to share one sealed message: the socket row's
``hop_cycles_per_op`` fell 495.6 → 379.7 (fewer, longer frames); every
other column held.
"""

import copy
import functools
import hashlib
import multiprocessing

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS
from repro.cluster.backend import BACKEND_ENV_VAR

#: Reduced sizes (1,220 keys, a few hundred ops): the whole file runs in
#: well under ten seconds.
SCALE = 8192
CASES = {
    "cluster_scaling": dict(n_ops=400, warm_ops=200),
    "cluster_rebalance": dict(n_ops=400, warm_ops=600),
    "cluster_replication": dict(n_ops=400),
    "cluster_shard_workers": dict(n_ops=1000),
    "cluster_wire_overhead": dict(n_ops=256),
    "cluster_socket_backend": dict(n_ops=400),
    "cluster_elastic": dict(n_ops=256),
}


#: The experiments that run on ``ARIA_CLUSTER_BACKEND`` (inline here).
DEFAULT_BACKEND = ("cluster_elastic", "cluster_rebalance", "cluster_scaling")


def run_masked(name: str):
    """The experiment's result with ``wall_s`` masked."""
    result = ALL_EXPERIMENTS[name](scale=SCALE, **CASES[name])
    for row in result.rows:
        if "wall_s" in row:
            row["wall_s"] = "-"
    return result


#: One inline run per name, shared by the tests below.
masked_result = functools.lru_cache(maxsize=None)(run_masked)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(result) -> tuple:
    """(rendered table, full-precision rows)."""
    return digest(result.render()), digest(repr(result.rows))


GOLDEN = {
    "cluster_scaling": (
        "be416e7682fe6e332590da37ff4abf29bf802a8046d3c9e0c64eccf7580144e7",
        "0b8276ecd19b4e3f147314bde39d99d6205d7b462057535d53a648e1ce1ccdd2"),
    "cluster_rebalance": (
        "7198246c3423b3c4d22063e2d03ace3eb34179fb66a7a80146c14e70e2dbcd75",
        "282f3929f15680d9e177e1b68575c43060bd93f156823ff5dc2371b6a3fc7d24"),
    "cluster_replication": (
        "0158a8f096632f9a4e096b54a56e5e7c9932d6ab9202c45eed469238d7f8e427",
        "c89e741d53f7dd98c4724e32c84ebded62c2bac9bf20b1a4a7c507274b76f2e4"),
    "cluster_shard_workers": (
        "027850da7037e108de92ffa1d12395a6e1aaa90a7adc788d05a231c04ccf8906",
        "bca3b2f78acd7c02571490b825840e03b7cfdce6df79076c0410e524900ca63f"),
    "cluster_wire_overhead": (
        "f778cd390e47ee25f70707bb61b58c0ae9afe9b7b7ec2b650630485037f5b181",
        "d6300ca129972ecb305c061d219f1ace87149751038edaa2f8a8e4ae71fe9ea7"),
    "cluster_socket_backend": (
        "11a39f47a89871b1bde499598db3a20bb382aaefc574f773c3e469a97ace0bd1",
        "6746e13fa2152909e0f291219a2a7b8611ed50385715ca4e7c639e86b250f4c7"),
    "cluster_elastic": (
        "8900fee9fb8fd27cc34c8be7fffa64db74446dd2092e3ced5b446f0c6d526552",
        "9238fbcd95e1fb7d51a2c9168adfe35d33fdf3fcddee36ef72625bf3cfc3bc13"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rendered_table_matches_the_parent_commit(name):
    result = masked_result(name)
    assert digests(result)[0] == GOLDEN[name][0], result.render()


@pytest.mark.parametrize("name", sorted(CASES))
def test_full_precision_rows_match_the_parent_commit(name):
    result = masked_result(name)
    assert digests(result)[1] == GOLDEN[name][1], repr(result.rows)


@pytest.mark.parametrize("backend", [
    pytest.param("process", marks=pytest.mark.procs),
    pytest.param("socket", marks=pytest.mark.dist)])
@pytest.mark.parametrize("name", DEFAULT_BACKEND)
def test_full_precision_rows_hold_on_every_backend(name, backend,
                                                   monkeypatch):
    monkeypatch.setenv(BACKEND_ENV_VAR, backend)
    result = run_masked(name)
    assert not multiprocessing.active_children()   # the run closed its own
    assert digests(result)[1] == GOLDEN[name][1], repr(result.rows)


def test_a_drift_below_three_digits_fails_the_row_pin():
    """S1's socket row, 1,261 handshake cycles short: the rendered table
    cannot tell, the row digest can."""
    drifted = copy.deepcopy(masked_result("cluster_socket_backend"))
    (socket_row,) = drifted.where(backend="socket")
    assert socket_row["hop_handshake_cycles"] > 1_000_000
    socket_row["hop_handshake_cycles"] -= 1261
    table, rows = digests(drifted)
    assert table == GOLDEN["cluster_socket_backend"][0]
    assert rows != GOLDEN["cluster_socket_backend"][1]


if __name__ == "__main__":  # regenerate GOLDEN
    print("GOLDEN = {")
    for name in CASES:
        table, rows = digests(masked_result(name))
        print(f'    "{name}": (\n        "{table}",\n        "{rows}"),')
    print("}")
