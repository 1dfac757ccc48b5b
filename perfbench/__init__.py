"""Benchmark for the ocm_ray sketch engine; ``python3 perfbench/run.py --help``."""
