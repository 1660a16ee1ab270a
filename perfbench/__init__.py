"""Benchmark of `repro sweep`: cold and resumed runs, with a traced per-layer split.

Run ``python3 perfbench/run.py --workload sim_grid --seed 0 --seconds 5 --trace 0``
from the repository root; see ``perfbench/README.md``.
"""
