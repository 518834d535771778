"""``python -m repro bench cluster_*`` output, pinned.

Every PR since the one-recipe refactor has claimed "all ``bench cluster_*``
outputs byte-identical except ``wall_s``" and checked it by hand.  This
file makes the claim executable for the eight experiments cheap enough for
tier-1: each runs at a reduced ``n_ops`` and key space, its ``wall_s``
column (host time, the one column allowed to move) is masked, and the
sha256 of the rendered table — title, header, every simulated column, the
notes — must equal the constant below.  The three expensive ones (``cluster_durability``,
``cluster_overload``, ``cluster_tenancy``) stay a by-hand check.

The constants in :data:`GOLDEN` were produced at PR 19's parent commit by
running this file as a script (``PYTHONPATH=src python
tests/test_bench_golden.py``).  Every experiment names its backends and
worker counts itself, so the ``ARIA_CLUSTER_BACKEND``/``ARIA_SHARD_WORKERS``
CI matrices cannot move them.  Regenerate only for a change that *means*
to move a simulated column, and say so in the PR.  ``cluster_wire_overhead``
was re-pinned once, when its v1 rows and ``wire`` column were removed with
the v1 door; its v2 rows held to the last digit.
"""

import hashlib

import pytest

from repro.bench.experiments import ALL_EXPERIMENTS

#: Reduced sizes (1,220 keys, a few hundred ops): the whole file runs in
#: well under ten seconds.
SCALE = 8192
CASES = {
    "cluster_scaling": dict(n_ops=400, warm_ops=200),
    "cluster_rebalance": dict(n_ops=400, warm_ops=600),
    "cluster_replication": dict(n_ops=400),
    "cluster_process_backend": dict(n_ops=400),
    "cluster_shard_workers": dict(n_ops=1000),
    "cluster_wire_overhead": dict(n_ops=256),
    "cluster_socket_backend": dict(n_ops=400),
    "cluster_elastic": dict(n_ops=256),
}


def rendered(name: str) -> str:
    result = ALL_EXPERIMENTS[name](scale=SCALE, **CASES[name])
    for row in result.rows:
        if "wall_s" in row:
            row["wall_s"] = "-"
    return result.render()


GOLDEN = {
    "cluster_scaling":
        "90aa7d352ebc7cb8bbed82470ea0d25559312383b6dcb92c8891e175157a0e3c",
    "cluster_rebalance":
        "6f241e4cfb15f0d6c0643e732eda6dcdf28ab8f59038a5c912fdc8bc5ffbd7f7",
    "cluster_replication":
        "de0bf7d4e61ce5711f15957763a1ab676c8245db9db900cf887ecce858a59bf2",
    "cluster_process_backend":
        "11fc8b5706c18dae6acbb940379639c8a6584f4e71da2fc3d5aac0dd75e96e68",
    "cluster_shard_workers":
        "997c6f651ad2e36dc4add4368d9ea5cbf824437455664f82acae76eeb4a57992",
    "cluster_wire_overhead":
        "0ad6436b949e044cda46ebe7f40dc9bb4d70ecde29cead7095ba7ef7382a2796",
    "cluster_socket_backend":
        "50ea00a88e785a3dda6314ca6272bd16b270a792f9b3ecf288d5dbcbd07b3246",
    "cluster_elastic":
        "c2db475ca60a89a1e549de8ccba6df8eaf0eaa515a343e85b029983d88b8acc8",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_rendered_table_matches_the_parent_commit(name):
    text = rendered(name)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN[name], text


if __name__ == "__main__":  # regenerate GOLDEN
    print("GOLDEN = {")
    for name in CASES:
        digest = hashlib.sha256(rendered(name).encode()).hexdigest()
        print(f'    "{name}":\n        "{digest}",')
    print("}")
