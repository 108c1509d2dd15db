"""The exact +-1 elimination in front of the determinant's grid LU.

ConstraintMatrix.submatrix_determinant pivots out every constant +-1 entry
of the minor in integer arithmetic when its grid keeps more than
constraint._DIRECT_POINTS points, and runs LU on the Schur complement left.
These checks compare that route with the bitmask DP oracle, with LU on the
whole minor (the route of smaller grids), and with numpy's LU at sample
points, and check the certificate it reports.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dp_oracle import dp_determinant, dp_submatrix_determinant
from qgraph import constraint
from qgraph.circle import build_graph, det_poly
from qgraph.constraint import CAPACITY, EDGE_CAPACITY, assemble
from qgraph.graph import MetricGraph, parse_graph, validate

CLI_GRAPH = Path(__file__).resolve().parents[1] / "bench" / "graphs" / "cli_e5.json"


def same_expansion(p, q):
    return p == q and p.dump() == q.dump()


@pytest.fixture
def eliminate_always(monkeypatch):
    """Take the elimination route on every grid, however small."""
    monkeypatch.setattr(constraint, "_DIRECT_POINTS", -1)


@pytest.mark.parametrize("flips", [(), (0,)])
def test_bench_graphs_match_dp(bench_graphs, flips):
    """The pool and the known failures (5 to 7 edges) take the elimination
    route on their own, and shrink to at most 7 rows."""
    for gid, g in bench_graphs.items():
        m = assemble(g, flip_edges=flips)
        got = m.determinant()
        assert 5 <= m.certificate["reduced"] <= 7 < m.n, gid
        assert same_expansion(got, dp_determinant(m)), gid


def test_shuffled_row_cofactors_match_dp(graph_family, eliminate_always):
    """Cofactors with their rows in a shuffled order: the determinant's sign
    follows the row order, so a wrong permutation sign in the elimination
    shows here."""
    rng = np.random.default_rng(25)
    for g in graph_family:
        m = assemble(g, flip_edges=[0])
        for _ in range(2):
            drop_r, drop_c = (int(x) for x in rng.integers(0, m.n, size=2))
            rows = [int(r) for r in rng.permutation(m.n) if r != drop_r]
            cols = [c for c in range(m.n) if c != drop_c]
            want = dp_submatrix_determinant(m, rows, cols)
            assert same_expansion(m.submatrix_determinant(rows, cols), want)


def test_family_matches_dp_and_shrinks(graph_family, eliminate_always):
    """With and without a flip, each family graph's expansion matches the
    oracle from a Schur complement of at most one row per edge, plus one."""
    for g in graph_family:
        for flips in ((), (0,)):
            m = assemble(g, flip_edges=flips)
            assert same_expansion(m.determinant(), dp_determinant(m))
            assert m.certificate["reduced"] <= len(g.edges) + 1


def _random_graphs(seed, count):
    """Seeded multigraphs with parallel edges, up to CAPACITY rows and
    EDGE_CAPACITY edges, each validation-clean."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        ne = int(rng.integers(1, EDGE_CAPACITY + 1))
        nv = int(rng.integers(2, min(7, CAPACITY - 2 * ne) + 1))
        nl = int(rng.integers(0, CAPACITY - 2 * ne - nv + 1))
        edges = []
        for _ in range(ne):
            u, v = (int(x) for x in rng.choice(nv, size=2, replace=False))
            if edges and rng.random() < 0.3:
                u, v = edges[-1][:2]  # a parallel edge
            edges.append((u, v, float(rng.uniform(0.5, 2.0))))
        g = MetricGraph(nv, edges, leads=[int(rng.integers(0, nv)) for _ in range(nl)])
        if validate(g).ok:
            out.append(g)
    return out


def test_random_multigraphs_agree_with_lu_at_sample_points():
    """Up to CAPACITY rows and EDGE_CAPACITY edges, with parallel edges: the
    expansion agrees with numpy's LU of the dense matrix, and its
    certificate covers its observed error."""
    rng = np.random.default_rng(7)
    graphs = _random_graphs(2501, 14)
    assert max(len(g.edges) for g in graphs) == EDGE_CAPACITY
    assert max(assemble(g).n for g in graphs) >= CAPACITY - 2
    for g in graphs:
        m = assemble(g, flip_edges=[len(g.edges) - 1])
        assert m.n <= CAPACITY
        p = m.determinant()
        assert m.certificate["error"] <= m.certificate["bound"] < 0.25
        for k in rng.uniform(-3, 3, 2) + 1j * rng.uniform(-0.5, 0.5, 2):
            lu = np.linalg.det(m.eval_matrix(k))
            scale = sum(abs(a * np.exp(1j * p.sigma_of(v) * k)) for v, a in p.terms.items())
            assert abs(p.eval(k) - lu) <= 1e-10 * scale


def test_random_multigraphs_match_lu_on_the_whole_minor(monkeypatch):
    """The two routes give the same expansion, term order included."""
    for g in _random_graphs(2502, 12):
        if len(g.edges) > 7:
            continue
        m = assemble(g)
        monkeypatch.setattr(constraint, "_DIRECT_POINTS", -1)
        eliminated = m.determinant()
        monkeypatch.setattr(constraint, "_DIRECT_POINTS", 3 ** EDGE_CAPACITY)
        direct = m.determinant()
        assert same_expansion(eliminated, direct)
        assert list(eliminated.terms) == list(direct.terms)


def test_bench_certificates_cover_their_errors(bench_graphs):
    """Every benchmark determinant (pool, known failures, the cli graph, the
    circle) reports an a-priori bound below 1/4 that covers the rounding
    error it observed."""
    mats = [assemble(g) for g in bench_graphs.values()]
    mats.append(assemble(parse_graph(json.loads(CLI_GRAPH.read_text()))))
    for m in mats:
        m.determinant()
        cert = m.certificate
        assert cert["size"] == m.n and cert["reduced"] < m.n
        assert cert["lu_matrices"] == (cert["points"] + 1) // 2
        assert 0 < cert["error"] <= cert["bound"] < 0.25
    for c in (0.0, 0.37, 1.0):
        m = assemble(build_graph(c))
        assert same_expansion(m.determinant(), det_poly(c))
        assert 0 < m.certificate["error"] <= m.certificate["bound"] < 0.25
