"""``python -m repro bench cluster_*`` output, pinned.

Every PR since the one-recipe refactor has claimed "all ``bench cluster_*``
outputs byte-identical except ``wall_s``" and checked it by hand.  This
file makes the claim executable for the seven experiments cheap enough for
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
        "be416e7682fe6e332590da37ff4abf29bf802a8046d3c9e0c64eccf7580144e7",
    "cluster_rebalance":
        "7198246c3423b3c4d22063e2d03ace3eb34179fb66a7a80146c14e70e2dbcd75",
    "cluster_replication":
        "0158a8f096632f9a4e096b54a56e5e7c9932d6ab9202c45eed469238d7f8e427",
    "cluster_shard_workers":
        "027850da7037e108de92ffa1d12395a6e1aaa90a7adc788d05a231c04ccf8906",
    "cluster_wire_overhead":
        "f778cd390e47ee25f70707bb61b58c0ae9afe9b7b7ec2b650630485037f5b181",
    "cluster_socket_backend":
        "f7c9dfb40aec1bb04d453486658ca09b8434d8dadf43398eaa4077218ac22536",
    "cluster_elastic":
        "8900fee9fb8fd27cc34c8be7fffa64db74446dd2092e3ced5b446f0c6d526552",
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
