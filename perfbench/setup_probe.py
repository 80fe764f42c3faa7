"""Everything a benchmark run does before its first job, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

``run.py`` times this script from launch to exit to get ``setup_s``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (imports f1q)

workloads.setup(sys.argv[1], int(sys.argv[2]))
