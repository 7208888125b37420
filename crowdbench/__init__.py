"""The CrowdMap benchmark: workloads, tracer and report comparison.

Run it with ``python3 crowdbench/run.py --help`` from the repository root.
"""
