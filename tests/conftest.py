import json
from pathlib import Path

import numpy as np
import pytest

from qgraph.circle import det_poly
from qgraph.constraint import assemble
from qgraph.graph import MetricGraph, parse_graph, validate

BENCH_POOL = Path(__file__).resolve().parents[1] / "bench" / "graphs" / "family.json"


def _random_graph(rng):
    nv = int(rng.integers(2, 6))
    ne = int(rng.integers(1, 5))
    edges = []
    for _ in range(ne):
        u, v = rng.choice(nv, size=2, replace=False)
        u, v = int(min(u, v)), int(max(u, v))
        edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    leads = [int(rng.integers(0, nv)) for _ in range(int(rng.integers(0, 4)))]
    if rng.random() < 0.3:
        # force a balanced vertex now and then so both counting classes
        # show up in the sample
        v = int(rng.integers(0, nv))
        p = sum((e[0] == v) + (e[1] == v) for e in edges)
        if 1 <= p <= 3:
            leads = [v] * p
    used = sorted({u for e in edges for u in e[:2]} | set(leads))
    remap = {v: i for i, v in enumerate(used)}
    edges = [(remap[u], remap[v], L) for u, v, L in edges]
    leads = [remap[v] for v in leads]
    return MetricGraph(len(used), edges, leads=leads)


def make_graph_family():
    """50 random small graphs (at most 4 edges, 3 leads, lengths in [0.5, 2]),
    all validation-clean, with a fair share of balanced vertices."""
    rng = np.random.default_rng(20260822)
    family = []
    while len(family) < 50:
        g = _random_graph(rng)
        if validate(g).ok:
            family.append(g)
    return family


def load_bench_graphs():
    """The benchmark's graph pool and known failures, by id, in file order."""
    doc = json.loads(BENCH_POOL.read_text())
    return {item["id"]: parse_graph(item["graph"]) for key in ("pool", "known_failures")
            for item in doc[key]}


@pytest.fixture(scope="session")
def graph_family():
    """make_graph_family, built once per session."""
    return make_graph_family()


@pytest.fixture(scope="session")
def bench_graphs():
    """load_bench_graphs, read once per session."""
    return load_bench_graphs()


@pytest.fixture(scope="session")
def bench_polys(bench_graphs):
    """The determinants of the benchmark's graph pool and known failures
    (5 to 7 edges, 11 to 113 terms), and of the two-lead circle at c = 0,
    0.37 and 1."""
    return ([assemble(g).determinant() for g in bench_graphs.values()]
            + [det_poly(c) for c in (0.0, 0.37, 1.0)])
