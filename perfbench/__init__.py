"""Benchmark of the DeACT reproduction on the paper's own workloads.

Run ``python3 perfbench/run.py --help`` from the repository root.
"""
