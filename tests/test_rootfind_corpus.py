"""The root finder's comparison corpus: count_in_disc on about 100 searches,
each pinned by its count, its origin flag, the sha256 of the repr of its
roots (or its error text) and every RootStats counter.

The searches are the two-lead circle at c = j/20 (j = 0..20) at R = 10
and 20, the benchmark's graph pool and known failures at R = 8, and the
50 graphs of the test family at R = 6.  A refactor of the root finder
that keeps every bit keeps this file; one that changes a bit shows which
search moved.  Like test_root_stats_pinned, the file pins the floating
point of the host it was recorded on.

    python tests/test_rootfind_corpus.py --record

rewrites tests/rootfind_corpus.json from the current code.
"""

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from qgraph.circle import det_poly
from qgraph.constraint import assemble
from qgraph.rootfind import RootStats, count_in_disc

CORPUS = Path(__file__).with_name("rootfind_corpus.json")


def _searches(bench_graphs, graph_family):
    """(name, polynomial thunk, radius) of every search of the corpus."""
    for R in (10.0, 20.0):
        for j in range(21):
            yield "circle c=%d/20 R=%g" % (j, R), lambda j=j: det_poly(j / 20), R
    for gid, g in bench_graphs.items():
        yield "pool %s R=8" % gid, lambda g=g: assemble(g).determinant(), 8.0
    for i, g in enumerate(graph_family):
        yield "family %d R=6" % i, lambda g=g: assemble(g).determinant(), 6.0


def compute_corpus(bench_graphs, graph_family):
    """The corpus entries of the current code, in search order."""
    entries = []
    for name, poly, R in _searches(bench_graphs, graph_family):
        stats = RootStats()
        entry = {"name": name, "count": None, "origin_zero": None}
        try:
            rep = count_in_disc(poly(), R, stats=stats)
        except Exception as exc:  # the failure is part of the record
            entry["error"] = "%s: %s" % (type(exc).__name__, exc)
        else:
            entry.update(count=rep.count, origin_zero=rep.origin_zero,
                         roots_sha256=hashlib.sha256(repr(rep.roots).encode()).hexdigest())
        entry["stats"] = dataclasses.asdict(stats)
        entries.append(entry)
    return entries


def test_rootfind_corpus_is_unchanged(bench_graphs, graph_family):
    """Every search of the corpus gives the recorded count, origin flag,
    roots (or error) and work counters, bit for bit."""
    want = json.loads(CORPUS.read_text())
    got = compute_corpus(bench_graphs, graph_family)
    assert [e["name"] for e in got] == [e["name"] for e in want]
    for g, w in zip(got, want):
        assert g == w, g["name"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_rootfind_corpus.py --record")
    import conftest
    entries = compute_corpus(conftest.load_bench_graphs(), conftest.make_graph_family())
    # one search per line, so that a diff names the searches that moved
    CORPUS.write_text("[\n%s\n]\n" % ",\n".join(json.dumps(e) for e in entries))
    print("wrote %d searches to %s" % (len(entries), CORPUS))
