"""Set-up time probe, run by ``run.py`` in a fresh interpreter.

Usage: ``python3 perfbench/probe_setup.py <workload> <input file>``.
Prints, as ``<raw> <normalized>``, the seconds taken by ``import bathtub``
plus building the workload's inputs from the file (config parse and
scenario build); see speed.py for the normalization.
"""

import json  # noqa: F401  (workloads' own imports, kept out of the timed block)
import random  # noqa: F401
import sys
from pathlib import Path

from speed import SpeedSampler

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    name, path = sys.argv[1], Path(sys.argv[2])
    sys.path.insert(0, str(ROOT / "src"))
    with SpeedSampler() as timer:
        import bathtub  # noqa: F401  (the import is what is timed)
        import workloads
        workloads.WORKLOADS[name].build(path)
    print(timer.raw, timer.normalized)
    return 0


if __name__ == "__main__":
    sys.exit(main())
