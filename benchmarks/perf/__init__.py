"""The repo's wall-clock benchmark (ROADMAP item 1).

Six seeded workloads, measured from outside through public API only:
host-time end-to-end metrics with tracing off, and a separate traced run
that attributes host time to this repo's packages.  See ``README.md`` in
this directory for every metric, every workload and the noise study.

Entry points:

- ``python3 benchmarks/perf/run.py --workload W --seed N --seconds S
  --trace 0|1`` -- one run of one workload (what ``BENCHMARK.json``
  names; prints one JSON result line last);
- ``PYTHONPATH=src python -m benchmarks.perf [--workload W] [--seed N]
  [--out FILE]`` -- every workload, untraced then traced, each in a
  fresh subprocess, as one table and one result file;
- ``python -m benchmarks.perf compare A.json B.json`` -- the
  noise-aware comparison of two result files.
"""
