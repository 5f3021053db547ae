"""Layered end-to-end benchmark of the MINDFUL reproduction.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``--list-metrics`` prints every
metric with its unit and the end-to-end metric it is predicted to move.
"""
