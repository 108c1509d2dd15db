"""qgraph benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload count-disc --seed 1 --seconds 25 --trace 0

Run from anywhere; it imports qgraph from the src/ directory next to this
one.  With --trace 0 it times whole blocks of ops until --seconds of op time
are spent and reports the end-to-end metrics, with op times scaled to a
reference machine speed (see run_plain); with --trace 1 it runs each op
once plain and once traced and reports the per-layer metrics and the
tracing overhead.  Every op's output is checked.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; a fuller
record, with the environment, lands in bench/out/.  See bench/README.md.
"""

import os
import sys

# pinned before numpy loads: one BLAS thread, no qgraph worker threads
os.environ.pop("QGRAPH_THREADS", None)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 8
WORKLOAD_NAMES = ("count-disc", "graph-family", "cli")
CHILD_TIMEOUT = 60


def median(xs):
    return statistics.median(xs) if xs else 0.0


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def source_sha256():
    digest = hashlib.sha256()
    for path in sorted((SRC / "qgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args):
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy_version, "machine": platform.machine(),
            "git_commit": git_commit(), "source_sha256": source_sha256(),
            "QGRAPH_THREADS": os.environ.get("QGRAPH_THREADS"),
            "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


_CAL_RNG = np.random.default_rng(1003)
_CAL_S = _CAL_RNG.uniform(-3.0, 3.0, 8)
_CAL_A = _CAL_RNG.normal(size=8) + 1j * _CAL_RNG.normal(size=8)
_CAL_K = np.linspace(-10.0, 10.0, 400) + 0.3j


def calibrate_compute():
    """A fixed piece of work of the same kind as qgraph's computations (small
    numpy arrays of complex exponentials driven by interpreted loops),
    written apart from qgraph so that no change to the package changes it."""
    acc = 0.0
    for _ in range(60):
        v = np.zeros(_CAL_K.size, complex)
        for s, a in zip(_CAL_S, _CAL_A):
            v += a * np.exp(1j * s * _CAL_K)
        acc += float(np.abs(v).max())
        d = {}
        for i in range(200):
            d[i % 17] = d.get(i % 17, 0.0) + i * 0.5
    return acc


def calibrate_process():
    """A fresh interpreter that imports numpy, for ops that are child
    processes: start-up and imports are most of their time."""
    subprocess.run([sys.executable, "-c", "import numpy"], timeout=CHILD_TIMEOUT, check=True)


# per kind of op: the calibration kernel, how often it runs between two ops,
# and its median time on the host the benchmark was written on (2-core
# x86_64 VM, Python 3.11, numpy 2)
CALIBRATIONS = {"compute": (calibrate_compute, 3, 0.0110),
                "process": (calibrate_process, 1, 0.160)}


def calibration_gap(kernel, repeats):
    """Times of repeated calls of a calibration kernel."""
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return times


def setup_probe(workloads, name, seed):
    """One fresh interpreter that imports qgraph and builds the inputs, and
    one bare start: (wall s, import s, bare start s)."""
    t0 = perf_counter()
    done = subprocess.run([sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed)],
                          capture_output=True, text=True, env=workloads.child_env(),
                          cwd=ROOT, timeout=CHILD_TIMEOUT, check=True)
    wall = perf_counter() - t0
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=workloads.child_env(),
                   timeout=CHILD_TIMEOUT, check=True)
    return wall, json.loads(done.stdout.splitlines()[-1])["import_s"], perf_counter() - t0


def setup_probes(workloads, name, seed, n):
    """n set-up probes with the process calibration kernel run before the
    first and after each: [(s at the reference speed, wall s, import s,
    bare start s)]."""
    kernel, _, ref_s = CALIBRATIONS["process"]
    cal = calibration_gap(kernel, 1)
    probes = []
    for _ in range(n):
        wall, import_s, bare = setup_probe(workloads, name, seed)
        cal += calibration_gap(kernel, 1)
        probes.append((wall * ref_s / median(cal[-2:]), wall, import_s, bare))
    return probes


def setup_summary(probes):
    refs, walls, imports, bare = zip(*probes)
    return {"setup_s": median(refs), "setup_wall_s": median(walls),
            "import_s": median(imports), "interpreter_s": median(bare),
            "setup_samples_s": list(refs), "setup_wall_samples_s": list(walls)}


class Record:
    """One attempted op: wall time, resonances found and what went wrong."""

    def __init__(self, op, seconds, out, error, problems, resonances, label):
        self.label = label
        self.op = op
        self.seconds = seconds
        self.out = out
        self.error = error
        self.problems = problems
        self.resonances = resonances
        self.ref_seconds = None  # seconds at the reference speed, see run_plain

    @property
    def ok(self):
        return self.error is None and not self.problems

    def summary(self):
        meta = {k: v for k, v in self.op.meta.items() if not k.startswith("k_")}
        return {"id": self.op.id, "pass": self.label, "kind": self.op.kind,
                "seconds": self.seconds, "ref_seconds": self.ref_seconds,
                "resonances": self.resonances, "error": self.error,
                "problems": self.problems, **meta}


def attempt(wl, op, digests, fn, label):
    t0 = perf_counter()
    try:
        out = fn(op)
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return Record(op, perf_counter() - t0, None, "%s: %s" % (type(exc).__name__, exc),
                      [], 0, label)
    seconds = perf_counter() - t0
    problems = wl.check(op, out, digests)
    return Record(op, seconds, out, None, problems,
                  0 if problems else wl.resonances(op, out), label)


def blocks_until(blocks, seconds, cost):
    """Yield blocks, cycling, while the op time spent stays within budget:
    a block starts only if half an average block still fits, so a run is
    seconds / block time whole blocks, rounded, and at least one.  As a
    guard only, a run that is twice over budget stops even inside a block."""
    spent = []
    i = 0
    while True:
        if spent and sum(spent) + 0.5 * (sum(spent) / len(spent)) > seconds:
            return
        block = blocks[i % len(blocks)]
        i += 1
        before = cost()
        yield block, lambda: cost() > 2 * seconds
        spent.append(cost() - before)


def run_plain(wl, blocks, seconds, digests):
    """Time whole blocks of ops, with the workload's calibration kernel run
    between every two ops.  Each op's ref_seconds is its wall time scaled by
    the kernel's reference time over its median time just before and just
    after the op: the time the op would take at the reference speed.  The
    host's speed changes by up to 2x over tens of seconds, and both the op
    and the kernel follow it."""
    kernel, repeats, ref_s = CALIBRATIONS[wl.calibration]
    records = []
    gaps = [calibration_gap(kernel, repeats)]

    def cost():
        return sum(r.seconds for r in records)

    for block, over in blocks_until(blocks, seconds, cost):
        for op in block:
            records.append(attempt(wl, op, digests, wl.run, "plain"))
            gaps.append(calibration_gap(kernel, repeats))
            if over():
                break
    for i, r in enumerate(records):
        r.ref_seconds = r.seconds * ref_s / median(gaps[i] + gaps[i + 1])
    return records, ref_s / median([t for gap in gaps for t in gap])


def run_traced(wl, blocks, seconds, digests, tracer):
    """Each op once plain and once traced, alternating which goes first.
    For cli the op itself runs as a child process and both the plain and
    the traced pass call cli.main in this process."""
    plain, traced, child = [], [], []

    def cost():
        return sum(r.seconds for r in plain + traced + child)

    for block, over in blocks_until(blocks, seconds, cost):
        for op in block:
            n = len(traced)

            def under_trace(op, n=n):
                return tracer.call(n, wl.traced, op)

            pair = [(plain, wl.traced, "plain"), (traced, under_trace, "traced")]
            for bucket, fn, label in (pair if n % 2 == 0 else pair[::-1]):
                bucket.append(attempt(wl, op, digests, fn, label))
            if wl.name == "cli":
                child.append(attempt(wl, op, digests, wl.run, "child"))
            if over():
                break
    return plain, traced, child


def end_to_end(wl, records, setup):
    """The metrics that the bounds in BENCHMARK.json apply to; the op times
    are at the reference speed."""
    loop_s = sum(r.ref_seconds for r in records)
    ok = [r for r in records if r.ok]
    if wl.name == "cli":
        rss = max((r.out[2] for r in records if r.out is not None), default=0.0)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "ops_per_s": (len(ok) / loop_s, "1/s"),
        "resonances_per_s": (sum(r.resonances for r in ok) / loop_s, "1/s"),
        "op_p50_s": (median([r.ref_seconds for r in records]), "s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (rss, "MiB"),
    }


def wall_figures(records, speed):
    """The op figures in plain wall seconds, and the machine's median speed
    relative to the reference, for the report only."""
    loop_s = sum(r.seconds for r in records)
    return {"wall_ops_per_s": sum(r.ok for r in records) / loop_s,
            "wall_op_p50_s": median([r.seconds for r in records]),
            "speed_vs_reference": speed}


def per_layer(plain, traced, child, setup, tracer):
    traced_s = sum(r.seconds for r in traced)
    plain_s = sum(r.seconds for r in plain)
    m = tracer.layer_metrics(len(traced), sum(r.resonances for r in traced), traced_s)
    m["cli.interpreter_s"] = (setup["interpreter_s"], "s")
    m["cli.import_s"] = (setup["import_s"], "s")
    # for cli, plain[i], traced[i] and child[i] are the same command
    m["cli.main_s"] = (median([r.seconds for r in plain]) if child else 0.0, "s")
    m["cli.process_overhead_s"] = (
        median([c.seconds - p.seconds for c, p in zip(child, plain)]), "s")
    n = max(len(traced), 1)
    m["trace.overhead_s"] = ((traced_s - plain_s) / n, "s/op")
    m["trace.overhead_share"] = ((traced_s - plain_s) / plain_s if plain_s else 0.0, "ratio")
    return m


def print_report(env, setup, result, failed, extra):
    print("# qgraph bench: workload=%s seed=%s trace=%s python=%s numpy=%s scipy=%s "
          "nproc=%s commit=%s" % (env["workload"], env["seed"], env["trace"], env["python"],
                                  env["numpy"], env["scipy"], env["nproc"],
                                  env["git_commit"] or "unknown"))
    print("# setup: %.4f s at the reference speed, median of %d (%s); wall median %.4f s" % (
        setup["setup_s"], SETUP_REPEATS, ", ".join("%.4f" % s for s in setup["setup_samples_s"]),
        setup["setup_wall_s"]))
    print("# ops attempted %d, failed %d, error_rate %.4f" % (
        result["attempted"], result["failed"], result["failed"] / result["attempted"]))
    for r in failed:
        print("# failed op %s (%s pass): %s" % (r.op.id, r.label, r.error or "; ".join(r.problems)))
    for gid, rank, error in extra.get("known_failures", ()):
        print("# known failure %s (cycle rank %d, untimed): %s" % (
            gid, rank, error or "no longer fails"))
    for name, metric in result["metrics"].items():
        print("# %-40s %.6g %s" % (name, metric["value"], metric["unit"]))
    for name, value in extra.get("wall", {}).items():
        print("# %-40s %.6g" % (name, value))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qgraph" / "__init__.py").is_file():
        print("bench: no qgraph sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qgraph
    if Path(qgraph.__file__).resolve().parent != (SRC / "qgraph").resolve():
        print("bench: imported qgraph from %s, not from %s" % (qgraph.__file__, SRC),
              file=sys.stderr)
        return 2
    import tracer as tracing
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload]
    digests = workloads.load_digests()
    env = environment(args)
    # half of the set-up probes before the timed loop and half after it, so
    # that their median does not hang on one moment of the machine's load
    probes = setup_probes(workloads, args.workload, args.seed, SETUP_REPEATS // 2)
    blocks = wl.build(args.seed)
    stem = "%s-s%d-t%d" % (args.workload, args.seed, args.trace)
    if args.trace:
        tracer = tracing.Tracer()
        plain, traced, child = run_traced(wl, blocks, args.seconds, digests, tracer)
        records = plain + traced + child
    else:
        records, speed = run_plain(wl, blocks, args.seconds, digests)
    probes += setup_probes(workloads, args.workload, args.seed, SETUP_REPEATS - len(probes))
    setup = setup_summary(probes)
    if args.trace:
        metrics = per_layer(plain, traced, child, setup, tracer)
        tracer.save(OUT_DIR / (stem + "-spans.npz"))
    else:
        metrics = end_to_end(wl, records, setup)
    extra = {}
    if not args.trace:
        extra["wall"] = wall_figures(records, speed)
    if wl.name == "graph-family":
        extra["known_failures"] = wl.known_failures()
    failed = [r for r in records if not r.ok]
    result = {"correct": not any(r.problems for r in records),
              "attempted": len(records), "failed": len(failed),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    with open(OUT_DIR / (stem + ".json"), "w") as fh:
        json.dump({"env": env, "setup": setup, "result": result,
                   "error_rate": len(failed) / len(records), **extra,
                   "failed_ops": [r.summary() for r in failed],
                   "ops": [r.summary() for r in records]}, fh, indent=1)
    print_report(env, setup, result, failed, extra)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
