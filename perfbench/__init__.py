"""End-to-end and per-layer benchmark of the ``repro`` tool suite.

Run it from the repository root::

    python3 perfbench/run.py --workload server-short --seed 1 --seconds 20

See ``perfbench/README.md`` for the workloads, the metrics and how to
read a traced run.
"""
