"""Steadiness check: run the benchmark in two sets on the same code and
report, per workload and end-to-end metric, whether the sets agree within
the bounds in BENCHMARK.json.

    python3 bench/steady.py                       # 2 sets x 10 seeds, all workloads
    python3 bench/steady.py --workloads cli --runs 5

Every run uses another seed.  A metric agrees when the spread of each set
(distance between the first and third quartile, as a share of the median)
is within its bound and the two sets' medians differ, in either direction,
by no more than the bound.  Spreads above a third of the bound are flagged
as not steady enough.  Raw values go to bench/out/steady.json; the exit
code is 1 when anything disagrees.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETS = 2


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share;
    negative when it is better."""
    change = (second - first) / first if first else float("inf")
    return change if better == "lower" else -change


def run_once(workload, seed, seconds):
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise RuntimeError("%s seed %d exited %d: %s" % (workload, seed, done.returncode,
                                                         done.stderr.strip()[-500:]))
    return json.loads(done.stdout.strip().splitlines()[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--runs", type=int, default=10, help="seeds per set")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    metrics = spec["end_to_end"]
    raw = {}
    seed = args.first_seed
    for s in range(SETS):
        for workload in args.workloads.split(","):
            for _ in range(args.runs):
                result = run_once(workload, seed, spec["run_seconds"])
                if not result["correct"]:
                    print("%s seed %d: outputs failed their checks" % (workload, seed))
                raw.setdefault(workload, [[] for _ in range(SETS)])[s].append(
                    {"seed": seed, **result})
                print("set %d %s seed %d: attempted=%d %s" % (
                    s + 1, workload, seed, result["attempted"], " ".join(
                    "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                    flush=True)
                seed += 1
    ok = True
    report = []
    print("\n%-13s %-17s %6s %s" % ("workload", "metric", "bound",
                                    "median / spread per set, drift"))
    for workload, sets in raw.items():
        for m in metrics:
            values = [[r["metrics"][m["name"]]["value"] for r in runs] for runs in sets]
            meds = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            drift = worse_by(meds[0], meds[1], m["better"])
            agree = all(x <= m["bound"] for x in spreads) and abs(drift) <= m["bound"]
            steady = all(x <= m["bound"] / 3 for x in spreads)
            ok &= agree
            report.append({"workload": workload, "metric": m["name"], "bound": m["bound"],
                           "values": values, "medians": meds, "spreads": spreads,
                           "drift": drift, "agree": agree, "steady": steady})
            print("%-13s %-17s %6.3f %s drift %+.4f %s%s" % (
                workload, m["name"], m["bound"],
                " | ".join("%.5g / %.4f" % ms for ms in zip(meds, spreads)), drift,
                "agree" if agree else "DISAGREE", "" if steady else " (spread > bound/3)"))
    (BENCH_DIR / "out").mkdir(exist_ok=True)
    with open(BENCH_DIR / "out" / "steady.json", "w") as fh:
        json.dump({"runs": raw, "report": report}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
