"""perfbench: the two-clock, layer-attributed benchmark of the Aria repro.

Everything here measures the program from outside: nothing under ``src/``
imports this package, and this package imports ``repro`` only to build and
drive the system under test (never to generate inputs).  See ``README.md``
for the metric glossary and ``BENCHMARK.json`` at the repo root for the
contract (workloads, metric names, units, bounds).
"""
