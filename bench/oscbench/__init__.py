"""Benchmark harness for the oscpop package.

Run ``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root. See ``bench/README.md`` for the workloads and
metrics.
"""
