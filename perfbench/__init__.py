"""Repository benchmark for the detector-generation pipeline.

Run one workload with ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout; see README.md.
"""
