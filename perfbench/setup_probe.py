"""One workload's set-up in a fresh interpreter, timed from outside by run.py.

Imports graphpurify, builds the workload's graphs and runs its smallest
unit; exits nonzero if that unit fails.

    python3 perfbench/setup_probe.py mc-large
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import graphpurify  # noqa: E402
import graphpurify.cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].smallest_unit(graphpurify)
