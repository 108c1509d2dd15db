"""Inputs, operations and output checks of the three benchmark workloads.

Every input is derived from the workload seed; qgraph only ever sees the
generated inputs.  Inputs come in blocks, and a run executes whole blocks
so the mix of operations is the same in every run:

* count-disc: one op is one surgery parameter c of the two-lead circle,
  counted in the discs R = 10, 20, 40.  One block is a round of eight ops
  in a seeded order: six uniform draws, one from each sixth of [0, 1), one
  rational c from ``circle.crossing_values`` (zeros on the real axis, so
  the first horizontal cut hits them) and the balanced endpoint c = 1.
* graph-family: one block is one op for each graph of the fixed pool in
  ``graphs/family.json`` (5 to 7 edges, 1 or 2 leads, cycle rank 1 or 2),
  three for the graph of median cost, in a seeded order.  qgraph handles
  every graph of the pool at the commit that introduced the benchmark, so
  no op fails; the graphs it is known to fail on are run once per run,
  untimed, and reported apart (``known_failures``).
* cli: one block is the eight ``python -m qgraph`` commands of a user
  session, in a seeded order.

qgraph functions are called through their modules (``rootfind.count_in_disc``
rather than an imported name) so that the tracer's patches see the calls.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

import numpy as np

from qgraph import circle, cli, constraint, dtn, rootfind
from qgraph.graph import parse_graph

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
OUT_DIR = BENCH_DIR / "out"

ROUNDS = 12  # blocks are built ahead for this many rounds, then reused

Op = namedtuple("Op", "id kind arg meta")


def sha256(data):
    if isinstance(data, str):
        data = data.encode()
    return hashlib.sha256(data).hexdigest()


def load_digests():
    with open(DIGESTS) as fh:
        return json.load(fh)


# How far a disc count may stray from (2/pi) W R.  On the circle, zeros
# within 1e-3 of |k| = R near k = +-R can fall just outside the disc: the
# count at R = 10 or 20 fell 3 short of the rate for 2 of 60 random c.  Over
# 240 random graphs at R = 8 the largest gap was 2.4.
WEYL_SLACK = 5


def weyl_problem(p, radius, count):
    """Why count is not within WEYL_SLACK of (2/pi) W R, with W the symbolic
    rate from the frequency range; None when it is."""
    lo, hi = p.sigma_range()
    expect = 2.0 / math.pi * (hi - lo) / 2.0 * radius
    if abs(count - expect) <= WEYL_SLACK:
        return None
    return "R=%g: count %d is not within %d of (2/pi) W R = %.3f" % (
        radius, count, WEYL_SLACK, expect)


class CountDisc:
    name = "count-disc"
    calibration = "compute"
    RADII = (10.0, 20.0, 40.0)
    STRATA = 6

    @staticmethod
    def crossing_cs():
        """Rational c in (0, 1) where a parity component vanishes at a real
        integer k <= 6."""
        found = {cv.c for parity in ("even", "odd")
                 for cv in circle.crossing_values(parity, 6)}
        return sorted(c for c in found if 0 < c < 1)

    def build(self, seed):
        rng = np.random.default_rng(seed)
        crossings = self.crossing_cs()
        blocks = []
        for r in range(ROUNDS):
            cs = [(j + rng.random()) / self.STRATA for j in range(self.STRATA)]
            cs.append(crossings[int(rng.integers(len(crossings)))])
            cs.append(Fraction(1))
            block = []
            for i in rng.permutation(len(cs)):
                c = cs[i]
                key = str(c) if isinstance(c, Fraction) else None
                block.append(Op("r%d-c%.6f" % (r, float(c)), "count", float(c),
                                {"digest_key": key}))
            blocks.append(block)
        return blocks

    def run(self, op):
        p = circle.det_poly(op.arg)
        return p, [rootfind.count_in_disc(p, R) for R in self.RADII]

    def check(self, op, out, digests):
        p, reports = out
        problems = []
        key = op.meta["digest_key"]
        for R, rep in zip(self.RADII, reports):
            problems.append(weyl_problem(p, R, rep.count))
            if key is not None and rep.count != digests["count-disc"][key]["%g" % R]:
                problems.append("R=%g: count %d differs from the recorded %d"
                                % (R, rep.count, digests["count-disc"][key]["%g" % R]))
        return [x for x in problems if x]

    def resonances(self, op, out):
        return sum(rep.count for rep in out[1])

    traced = run


class GraphFamily:
    name = "graph-family"
    calibration = "compute"
    POOL = BENCH_DIR / "graphs" / "family.json"
    RADIUS = 8.0
    DET_RTOL = 1e-10
    DTN_RTOL = 1e-9

    def graphs(self, key):
        """(id, MetricGraph, copies per block) for the pool or for the known
        failures."""
        with open(self.POOL) as fh:
            doc = json.load(fh)
        return [(item["id"], parse_graph(item["graph"]), item.get("copies", 1))
                for item in doc[key]]

    def build(self, seed):
        rng = np.random.default_rng(seed)
        slots = [(gid, graph, n) for gid, graph, copies in self.graphs("pool")
                 for n in range(copies)]
        blocks = []
        for b in range(ROUNDS):
            block = []
            for i in rng.permutation(len(slots)):
                gid, graph, n = slots[i]
                # check points: the numpy route anywhere near the real axis,
                # the DtN identity where it holds (Im k > 0)
                k_det = rng.uniform(-5, 5, 3) + 1j * rng.uniform(-1, 1, 3)
                k_dtn = rng.uniform(-5, 5, 2) + 1j * rng.uniform(0.3, 2.0, 2)
                meta = {"graph": gid, "edges": len(graph.edges),
                        "vertices": graph.n_vertices, "leads": len(graph.leads),
                        "cycle_rank": len(graph.edges) - graph.n_vertices + 1,
                        "k_det": k_det, "k_dtn": k_dtn}
                block.append(Op("b%d-%s%s" % (b, gid, "-%d" % n if n else ""), "graph",
                                graph, meta))
            blocks.append(block)
        return blocks

    def run(self, op):
        mat = constraint.assemble(op.arg)
        p = mat.determinant()
        return mat, p, rootfind.count_in_disc(p, self.RADIUS)

    def check(self, op, out, digests):
        mat, p, rep = out
        problems = []
        want = digests["graph-family"][op.meta["graph"]]
        if sha256(p.dump()) != want["det_sha256"]:
            problems.append("det dump differs from the recorded digest")
        if rep.count != want["count"]:
            problems.append("count %d differs from the recorded %d" % (rep.count, want["count"]))
        for k in op.meta["k_det"]:
            lu = np.linalg.det(mat.eval_matrix(k))
            scale = sum(abs(a) * abs(np.exp(1j * p.sigma_of(v) * k))
                        for v, a in p.terms.items())
            if abs(p.eval(k) - lu) > self.DET_RTOL * scale:
                problems.append("det expansion and numpy LU disagree at k=%r" % k)
        for k in op.meta["k_dtn"]:
            gap = dtn.verify_det_identity(op.arg, k, p)
            if not gap <= self.DTN_RTOL:
                problems.append("DtN identity off by %.3g at k=%r" % (gap, k))
        problems.append(weyl_problem(p, self.RADIUS, rep.count))
        return [x for x in problems if x]

    def resonances(self, op, out):
        return out[2].count

    traced = run

    def known_failures(self):
        """Run each graph that qgraph is known to fail on once, untimed:
        [(id, cycle rank, error or None)]."""
        found = []
        for gid, graph, _ in self.graphs("known_failures"):
            rank = len(graph.edges) - graph.n_vertices + 1
            try:
                self.run(Op(gid, "graph", graph, {}))
            except Exception as exc:  # the failure being recorded
                found.append((gid, rank, "%s: %s" % (type(exc).__name__, exc)))
            else:
                found.append((gid, rank, None))
        return found


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(argv, stderr_path):
    """Run one child process to completion; (stdout bytes, exit code, peak
    RSS in MiB).  The child is reaped with wait4 to read its own rusage, and
    its stderr goes to stderr_path."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=child_env(), cwd=ROOT)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage.ru_maxrss / 1024.0


class Cli:
    name = "cli"
    calibration = "process"
    GRAPH = BENCH_DIR / "graphs" / "cli_e5.json"

    def commands(self):
        g = str(self.GRAPH)
        return (
            ("validate", ["validate", "--graph", g]),
            ("classify", ["classify", "--circle", "1"]),
            ("det", ["det", "--graph", g]),
            ("roots", ["roots", "--circle", "0", "--re-min", "-5.5", "--re-max", "5.5",
                       "--im-min", "-1", "--im-max", "0.1"]),
            ("count", ["count", "--circle", "0", "--radii", "5.5,10,20"]),
            ("circle-curve", ["circle-curve", "--parity", "even", "--n", "4"]),
            ("circle-verify", ["circle-verify", "--c", "0.5"]),
            ("dtn-check", ["dtn-check", "--graph", g]),
        )

    def build(self, seed):
        rng = np.random.default_rng(seed)
        cmds = self.commands()
        return [[Op("r%d-%s" % (r, cmds[i][0]), cmds[i][0], cmds[i][1], {})
                 for i in rng.permutation(len(cmds))]
                for r in range(ROUNDS)]

    STDERR = OUT_DIR / "cli-stderr.txt"

    def run(self, op):
        out, code, rss = run_child([sys.executable, "-m", "qgraph", *op.arg], self.STDERR)
        return out.decode(), code, rss

    def traced(self, op):
        """The same command through cli.main inside this process."""
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(list(op.arg))
            except SystemExit as exc:  # usage errors leave through parser.exit
                code = exc.code
        return buf.getvalue(), code, 0.0

    def check(self, op, out, digests):
        text, code, _ = out
        want = digests["cli"][op.kind]
        problems = []
        if code != want["exit"]:
            problems.append("exit code %r, recorded %r; stderr: %s" % (
                code, want["exit"], self.STDERR.read_text()[-300:].strip()))
        if sha256(text) != want["stdout_sha256"]:
            problems.append("stdout differs from the recorded digest")
        return problems

    def resonances(self, op, out):
        """Zeros reported by the roots and count commands, with multiplicity."""
        rows = [line.split(",") for line in out[0].splitlines()[1:]]
        if op.kind == "roots":
            return sum(int(row[2]) for row in rows)
        if op.kind == "count":
            return sum(int(row[1]) for row in rows)
        return 0


WORKLOADS = {w.name: w for w in (CountDisc(), GraphFamily(), Cli())}
