"""Workload generators: YCSB (uniform / zipfian), Facebook ETC, hotset drift."""

from repro.workloads.etc import EtcWorkload
from repro.workloads.trace import DriftingWorkload
from repro.workloads.ycsb import KEY_SIZE, Operation, YcsbWorkload, make_key
from repro.workloads.zipf import (
    ScrambledZipfianGenerator,
    UniformGenerator,
    ZipfianGenerator,
    fnv1a_64,
    zeta,
)

__all__ = [
    "KEY_SIZE",
    "DriftingWorkload",
    "EtcWorkload",
    "Operation",
    "ScrambledZipfianGenerator",
    "UniformGenerator",
    "YcsbWorkload",
    "ZipfianGenerator",
    "fnv1a_64",
    "make_key",
    "zeta",
]
