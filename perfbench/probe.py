"""Set-up as a CLI user pays it: a fresh interpreter that imports shiftlab
and builds a workload's argv list.  Usage: probe.py WORKLOAD SEED."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import shiftlab.cli  # noqa: E402,F401
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
