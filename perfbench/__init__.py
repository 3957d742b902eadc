"""End-to-end and per-layer benchmark of the repro simulator.

Run ``python3 perfbench/run.py --help`` from the repository root; the
workloads, metrics and layer map are described in
``perfbench/README.md``.
"""
