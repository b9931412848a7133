"""zkbench: the one benchmark later performance claims are judged by.

See ``README.md`` in this directory; run ``python3
benchmarks/zkbench/run.py --help`` from the repository root.
"""
