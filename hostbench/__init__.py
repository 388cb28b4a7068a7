"""Host-time benchmark of the repro simulator, driven from outside.

``python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload against the program in ``src/`` through its public
entry points only and prints one JSON result line last.  See
``hostbench/DESIGN.md`` for the workloads, the metrics and why they
were chosen.
"""
