"""Set-up probe: how long a fresh interpreter takes to import qgraph and to
build one workload's inputs.  Prints one JSON line.

    PYTHONPATH=src python3 bench/probe.py <workload> <seed>
"""

import json
import sys
from time import perf_counter


def main():
    t0 = perf_counter()
    import qgraph  # noqa: F401
    t1 = perf_counter()
    import workloads
    workloads.WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
    t2 = perf_counter()
    print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}))


if __name__ == "__main__":
    main()
