"""The repository benchmark: workloads, load generator, tracing and checks.

Run it with ``python3 perfbench/run.py``; see ``perfbench/README.md``.
"""
