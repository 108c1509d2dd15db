"""Record the reference outputs that bench/run.py checks every op against.

    python3 bench/record_digests.py

Writes bench/digests.json: disc counts of the circle at the rational c the
count-disc workload draws from (and at c = 1), the sha256 of the det dump and
the disc count of every graph-family graph, and the exit code and stdout sha256 of every
cli command.  Run it only on a commit whose outputs are the reference; the
committed file was recorded on the commit that introduced the benchmark.
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from qgraph import circle, constraint, rootfind  # noqa: E402


def count_disc():
    wl = workloads.CountDisc()
    out = {}
    for c in wl.crossing_cs() + [Fraction(1)]:
        p = circle.det_poly(float(c))
        out[str(c)] = {"%g" % R: rootfind.count_in_disc(p, R).count for R in wl.RADII}
    return out


def graph_family():
    out = {}
    wl = workloads.GraphFamily()
    for gid, graph, _ in wl.graphs("pool"):
        p = constraint.assemble(graph).determinant()
        out[gid] = {"det_sha256": workloads.sha256(p.dump()),
                    "count": rootfind.count_in_disc(p, wl.RADIUS).count}
    return out


def cli():
    wl = workloads.Cli()
    out = {}
    for kind, argv in wl.commands():
        stdout, code, _ = workloads.run_child([sys.executable, "-m", "qgraph", *argv],
                                              wl.STDERR)
        out[kind] = {"exit": code, "stdout_sha256": workloads.sha256(stdout)}
    return out


def main():
    workloads.OUT_DIR.mkdir(exist_ok=True)
    doc = {"recorded_on": {"git_commit": run.git_commit(),
                           "source_sha256": run.source_sha256()},
           "count-disc": count_disc(), "graph-family": graph_family(), "cli": cli()}
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
