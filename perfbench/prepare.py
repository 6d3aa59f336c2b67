"""Set-up for one benchmark run, in a fresh interpreter.

    python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR

Writes the workload's generated inputs to OUT_DIR. run.py times this
whole process, interpreter start and package import included, as the
workload's set-up.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, out_dir = sys.argv[1:4]
    workloads.WORKLOADS[name].prepare(int(seed), Path(out_dir))
