"""Set-up probe: does one workload's set-up in a fresh interpreter, prints
``ready`` and exits. ``run.py`` times it from process start to that line.

    python3 perfbench/setup_probe.py <workload> <seed> <tiny 0|1>
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (this file's directory is on sys.path)

if __name__ == "__main__":
    name, seed, tiny = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    pool = workloads.set_up(workloads.WORKLOADS[name], seed, tiny)
    print("ready", flush=True)
    if pool is not None:
        pool.close()
        pool.join()
