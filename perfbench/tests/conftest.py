"""Make the benchmark's modules and the repro package importable.

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
SRC = os.path.join(os.path.dirname(BENCH), "src")

for path in (SRC, BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)
