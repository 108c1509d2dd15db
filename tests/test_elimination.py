"""The determinant's exact route: +-1 elimination, then a DP on what is left.

ConstraintMatrix.submatrix_determinant pivots out every constant +-1 entry
of the minor in integer arithmetic and expands the Schur complement left by
a column-by-column DP over row bitmasks.  These checks compare that route
with the bitmask DP oracle on the whole minor, by dump and by term order,
and with numpy's LU at sample points, on assembled graphs and on
hand-built matrices whose Schur complements keep entries other than +-1.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from dp_oracle import dp_determinant, dp_submatrix_determinant
from qgraph import constraint
from qgraph.circle import build_graph, det_poly
from qgraph.constraint import CAPACITY, EDGE_CAPACITY, ConstraintMatrix, assemble
from qgraph.graph import MetricGraph, parse_graph, validate

CLI_GRAPH = Path(__file__).resolve().parents[1] / "bench" / "graphs" / "cli_e5.json"


def same_expansion(p, q):
    """Equal polynomials with equal dumps, p's terms sorted by exponent vector."""
    return p == q and p.dump() == q.dump() and list(p.terms) == sorted(q.terms)


@pytest.mark.parametrize("flips", [(), (0,)])
def test_bench_graphs_match_dp(bench_graphs, flips):
    """The pool and the known failures (5 to 7 edges) shrink to at most 7
    rows."""
    for gid, g in bench_graphs.items():
        m = assemble(g, flip_edges=flips)
        got = m.determinant()
        assert 5 <= m.sizes["reduced"] <= 7 < m.n, gid
        assert same_expansion(got, dp_determinant(m)), gid


def test_shuffled_row_cofactors_match_dp(graph_family):
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


def test_family_matches_dp_and_shrinks(graph_family):
    """With and without a flip, each family graph's expansion matches the
    oracle from a Schur complement of at most one row per edge, plus one."""
    for g in graph_family:
        for flips in ((), (0,)):
            m = assemble(g, flip_edges=flips)
            assert same_expansion(m.determinant(), dp_determinant(m))
            assert m.sizes["reduced"] <= len(g.edges) + 1


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
    expansion agrees with numpy's LU of the dense matrix."""
    rng = np.random.default_rng(7)
    graphs = _random_graphs(2501, 14)
    assert max(len(g.edges) for g in graphs) == EDGE_CAPACITY
    assert max(assemble(g).n for g in graphs) >= CAPACITY - 2
    for g in graphs:
        m = assemble(g, flip_edges=[len(g.edges) - 1])
        assert m.n <= CAPACITY
        p = m.determinant()
        for k in rng.uniform(-3, 3, 2) + 1j * rng.uniform(-0.5, 0.5, 2):
            lu = np.linalg.det(m.eval_matrix(k))
            scale = sum(abs(a * np.exp(1j * p.sigma_of(v) * k)) for v, a in p.terms.items())
            assert abs(p.eval(k) - lu) <= 1e-10 * scale


def test_bench_graphs_shrink_and_the_circle_matches_det_poly(bench_graphs):
    """Every benchmark determinant (pool, known failures, the cli graph)
    expands from a Schur complement smaller than its matrix, and the
    circle's assembled determinant is det_poly's."""
    mats = [assemble(g) for g in bench_graphs.values()]
    mats.append(assemble(parse_graph(json.loads(CLI_GRAPH.read_text()))))
    for m in mats:
        m.determinant()
        assert m.sizes["size"] == m.n and m.sizes["reduced"] < m.n
    for c in (0.0, 0.37, 1.0):
        m = assemble(build_graph(c))
        assert same_expansion(m.determinant(), det_poly(c))


def _hand_built(rng):
    """A ConstraintMatrix of order 1 to 7 over a table of 0 to 3 lengths:
    coefficients in +-{1, 2, 3}, deltas in {-1, 0, 1}^m on several edges at
    once, some columns empty."""
    n, m = int(rng.integers(1, 8)), int(rng.integers(0, 4))
    fill = rng.uniform(0.3, 0.8)
    columns = []
    for _ in range(n):
        rows = np.flatnonzero(rng.random(n) < fill)
        columns.append([(int(r), int(rng.choice([-3, -2, -1, 1, 2, 3])),
                         tuple(int(d) for d in rng.integers(-1, 2, m))
                         if m and rng.random() < 0.6 else None) for r in rows])
    return ConstraintMatrix(n, (1.0, 1.3, 1.7)[:m], columns, [("r", i) for i in range(n)],
                            [("c", j) for j in range(n)])


def test_hand_built_matrices_match_dp(monkeypatch):
    """Matrices assemble never builds: coefficients other than +-1 stay in
    the Schur complement and meet the DP.  Each matrix and one minor of it
    with shuffled rows match the oracle by dump and by term order."""
    expand, wide = constraint._expand, []

    def spy(rows, cols):
        wide.append(any(a * a > 1 for row in rows for q in row.values() for a in q.values()))
        return expand(rows, cols)

    monkeypatch.setattr(constraint, "_expand", spy)
    rng = np.random.default_rng(26)
    empty = 0
    for _ in range(400):
        m = _hand_built(rng)
        empty += not all(m.columns)
        assert same_expansion(m.determinant(), dp_determinant(m))
        size = int(rng.integers(0, m.n + 1))
        rows = [int(r) for r in rng.permutation(m.n)[:size]]
        cols = sorted(int(c) for c in rng.permutation(m.n)[:size])
        assert same_expansion(m.submatrix_determinant(rows, cols),
                              dp_submatrix_determinant(m, rows, cols))
    assert empty > 20 and sum(wide) > 200
