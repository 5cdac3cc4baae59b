"""Benchmark of the vacuumbeams CLI; run ``python3 perfbench/run.py --help``."""
