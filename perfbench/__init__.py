"""Benchmark of the cadmm solver: seeded workloads, independent result
checks, an outside-in layer trace and kernel microbenchmarks.
Run ``python3 perfbench/run.py --help``."""
