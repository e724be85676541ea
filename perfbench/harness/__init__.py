"""Benchmark harness for the scanning service: workloads, tracing, reporting.

The entry point is ``perfbench/run.py``; ``BENCHMARK.json`` at the repository
root names the workloads and metrics this package measures.
"""
