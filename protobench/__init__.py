"""End-to-end and per-layer benchmark of the daoracle protocol.

``python3 protobench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; see ``protobench/README.md``.
"""
