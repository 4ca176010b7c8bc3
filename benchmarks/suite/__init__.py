"""The benchmark suite: six named workloads, one report schema.

Run ``PYTHONPATH=src python -m benchmarks.suite`` for every workload, or
``python3 -m benchmarks.suite --workload NAME --seed N --seconds S
--trace 0|1`` for the one-workload form ``BENCHMARK.json`` names.  See
``README.md`` beside this file for the metric and workload glossary.
"""
