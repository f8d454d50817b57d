"""Measured benchmark of the repro library: ``python3 perfbench/run.py``."""
