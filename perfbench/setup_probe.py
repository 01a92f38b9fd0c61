"""Time one workload's set-up in a fresh interpreter.

Usage: ``python perfbench/setup_probe.py WORKLOAD SEED``

Prints the seconds from just before ``import joneses`` until the
workload's inputs are built through the package's public loaders.
Interpreter start-up is not included.
"""

import os
import sys
from time import perf_counter


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    sys.path.insert(0, os.path.join(root, "src"))
    workload, seed = sys.argv[1], int(sys.argv[2])
    t0 = perf_counter()
    import joneses  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload].setup(root, seed)
    print(repr(perf_counter() - t0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
