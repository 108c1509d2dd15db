import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from dp_oracle import dp_determinant, dp_submatrix_determinant
from qgraph import constraint
from qgraph.circle import build_graph
from qgraph.constraint import CAPACITY, ConstraintMatrix, assemble, \
    leading_block_determinant
from qgraph.errors import CapacityError
from qgraph.exppoly import ExpPolynomial
from qgraph.graph import MetricGraph, classify_weyl, validate


def two_arc_fixture():
    """Two vertices joined by a pair of edges, one lead at the first."""
    return MetricGraph(2, [(0, 1, 1.0), (0, 1, 1.5)], leads=[0])


def test_dimension_and_labels():
    g = two_arc_fixture()
    m = assemble(g)
    assert m.n == 2 + 2 * 2 + 1 == 7
    assert m.col_labels == (("vertex", 0), ("vertex", 1), ("tail", 0),
                            ("tail", 1), ("head", 0), ("head", 1), ("lead", 0))
    assert m.row_labels == (("continuity_tail", 0, 0), ("continuity_tail", 1, 0),
                            ("continuity_lead", 0, 0), ("continuity_head", 0, 1),
                            ("continuity_head", 1, 1), ("kirchhoff", 0),
                            ("kirchhoff", 1))


def test_dimension_formula(graph_family):
    for g in graph_family:
        m = assemble(g)
        assert m.n == g.n_vertices + 2 * len(g.edges) + len(g.leads)


def test_two_arc_entries_pinned():
    """Full symbolic content of the 7x7 fixture matrix, written out by hand
    from the per-vertex conditions."""
    m = assemble(two_arc_fixture())
    want = {
        # value continuity at vertex 0 (tail of both edges) and its lead
        (0, 2): (1, None), (0, 4): (1, None), (0, 0): (-1, None),
        (1, 3): (1, None), (1, 5): (1, None), (1, 0): (-1, None),
        (2, 6): (1, None), (2, 0): (-1, None),
        # value continuity at vertex 1 (head of both edges)
        (3, 2): (1, (1, 0)), (3, 4): (1, (-1, 0)), (3, 1): (-1, None),
        (4, 3): (1, (0, 1)), (4, 5): (1, (0, -1)), (4, 1): (-1, None),
        # derivative balance, common ik factor removed
        (5, 2): (1, None), (5, 4): (-1, None),
        (5, 3): (1, None), (5, 5): (-1, None), (5, 6): (1, None),
        (6, 2): (-1, (1, 0)), (6, 4): (1, (-1, 0)),
        (6, 3): (-1, (0, 1)), (6, 5): (1, (0, -1)),
    }
    assert m.entry_terms() == want


def test_two_arc_determinant_pinned():
    p = assemble(two_arc_fixture()).determinant()
    assert p.terms == {(-1, -1): 6, (0, 0): -8, (1, 1): 2}
    assert p.lengths == (1.0, 1.5)


def test_determinant_matches_lu(graph_family):
    rng = np.random.default_rng(7)
    for g in graph_family:
        m = assemble(g)
        p = m.determinant()
        for _ in range(3):
            k = complex(rng.uniform(-4, 4), rng.uniform(-1.5, 1.5))
            if abs(k) < 0.3:
                k += 0.5
            d1 = p.eval(k)
            d2 = np.linalg.det(m.eval_matrix(k))
            assert abs(d1 - d2) <= 1e-10 * max(abs(d1), abs(d2), 1e-30)


def test_determinant_structure(graph_family):
    for g in graph_family:
        p = assemble(g).determinant()
        assert all(isinstance(a, int) for a in p.terms.values())
        ne = len(g.edges)
        assert all(len(v) == ne and set(v) <= {-1, 0, 1} for v in p.terms)
        lo, hi = p.sigma_range()
        vol = classify_weyl(g).volume
        assert lo == -vol
        assert hi <= vol + 1e-12


def test_extreme_coefficients_track_balance(graph_family):
    for g in graph_family:
        am, ap = assemble(g).determinant().extreme_coefficients()
        assert am != 0
        balanced = bool(classify_weyl(g).balanced_vertices)
        assert (ap != 0) == (not balanced)


def test_flip_negates_determinant(graph_family):
    rng = np.random.default_rng(11)
    for g in graph_family[:20]:
        e = int(rng.integers(0, len(g.edges)))
        p = assemble(g).determinant()
        q = assemble(g, flip_edges=[e]).determinant()
        assert q == -p


def test_flip_changes_entries_not_zero_set():
    g = two_arc_fixture()
    a = assemble(g)
    b = assemble(g, flip_edges=[0])
    assert a.entry_terms() != b.entry_terms()
    assert b.orientations[0] == (1, 0)
    assert b.determinant() == -a.determinant()


def test_submatrix_row_swap_negates():
    m = assemble(two_arc_fixture())
    rows = list(range(m.n))
    base = m.submatrix_determinant(rows, range(m.n))
    rows[0], rows[1] = rows[1], rows[0]
    swapped = m.submatrix_determinant(rows, range(m.n))
    assert swapped == -base


def test_submatrix_minor():
    # a principal 2x2 minor, checked against the dense matrix
    m = assemble(two_arc_fixture())
    p = m.submatrix_determinant([0, 3], [2, 4])
    k = 0.7 + 0.3j
    a = m.eval_matrix(k)
    want = a[0, 2] * a[3, 4] - a[0, 4] * a[3, 2]
    assert abs(p.eval(k) - want) <= 1e-12 * max(1.0, abs(want))


def test_empty_submatrix_is_one():
    m = assemble(two_arc_fixture())
    p = m.submatrix_determinant([], [])
    assert p.terms == {(0, 0): 1}


def test_eval_matrix_entries():
    m = assemble(two_arc_fixture())
    k = 0.9 - 0.2j
    a = m.eval_matrix(k)
    assert a[0, 2] == 1 and a[0, 0] == -1
    assert abs(a[3, 2] - np.exp(1j * k * 1.0)) <= 1e-15 * abs(a[3, 2])
    assert abs(a[4, 5] - np.exp(-1j * k * 1.5)) <= 1e-15
    assert a[2, 1] == 0


def test_capacity_refused():
    g = MetricGraph(2, [(0, 1, 1.0 + 0.01 * i) for i in range(16)])
    with pytest.raises(CapacityError):
        assemble(g).determinant()   # 2 + 32 = 34 > 32
    sub = assemble(g)
    with pytest.raises(CapacityError):
        sub.submatrix_determinant(range(33), range(33))


def test_assemble_rejects_invalid():
    with pytest.raises(ValueError):
        assemble(MetricGraph(1, [(0, 0, 1.0)]))


def test_leading_block_closed_form(graph_family):
    """(q - p) e^{ik sum of incident lengths} at every vertex of every
    family graph, and the balanced case collapses to zero."""
    for g in graph_family:
        for v in range(g.n_vertices):
            blk = leading_block_determinant(g, v)
            inc = [e for e in range(len(g.edges))
                   if g.edges[e].tail == v or g.edges[e].head == v]
            p = len(inc)
            q = sum(1 for l in g.leads if l.vertex == v)
            if q == p:
                assert blk.is_zero()
            else:
                vec = tuple(1 if e in inc else 0 for e in range(len(g.edges)))
                assert blk.terms == {vec: q - p}


def test_leading_block_circle():
    g = build_graph(0.0)
    blk = leading_block_determinant(g, 0)
    assert blk.terms == {(1, 1): -1}      # one lead, two incident edges


# -- interpolation kernel against the bitmask-DP oracle ------------------------

def assert_same_expansion(p, q):
    assert p == q
    assert p.dump() == q.dump()


@pytest.mark.parametrize("flips", [(), (0,)])
def test_interpolation_matches_dp(graph_family, flips):
    for g in graph_family:
        m = assemble(g, flip_edges=flips)
        assert_same_expansion(m.determinant(), dp_determinant(m))


def test_interpolation_matches_dp_on_minors(graph_family):
    m = assemble(two_arc_fixture())
    assert_same_expansion(m.determinant(), dp_determinant(m))
    for rows, cols in (([0, 3], [2, 4]), ([], []), ([5, 6, 3], [2, 5, 1])):
        assert_same_expansion(m.submatrix_determinant(rows, cols),
                              dp_submatrix_determinant(m, rows, cols))
    assert m.submatrix_determinant([], []).terms == {(0, 0): 1}
    # one cofactor (drop a row and a column) per family graph
    rng = np.random.default_rng(5)
    for g in graph_family:
        m = assemble(g)
        drop_r, drop_c = (int(x) for x in rng.integers(0, m.n, size=2))
        rows = [r for r in range(m.n) if r != drop_r]
        cols = [c for c in range(m.n) if c != drop_c]
        assert_same_expansion(m.submatrix_determinant(rows, cols),
                              dp_submatrix_determinant(m, rows, cols))


def test_interpolation_evaluates_half_the_grid(graph_family, monkeypatch):
    """The value at -t mod N is the conjugate of the value at t, so a 3^E
    grid takes LU on (3^E + 1) / 2 matrices: one point of each conjugate
    pair and t = 0."""
    det, seen = np.linalg.det, []

    def counting_det(batch):
        seen.append(len(batch))
        return det(batch)

    monkeypatch.setattr(np.linalg, "det", counting_det)
    for g in graph_family:
        m = assemble(g)
        seen.clear()
        got = m.determinant()
        assert sum(seen) == (3 ** len(g.edges) + 1) // 2
        assert_same_expansion(got, dp_determinant(m))


@st.composite
def small_graphs(draw):
    nv = draw(st.integers(2, 4))
    edges = []
    for _ in range(draw(st.integers(0, 5))):
        u = draw(st.integers(0, nv - 2))
        v = draw(st.integers(u + 1, nv - 1))
        edges.append((u, v, draw(st.floats(0.5, 2.0))))
    leads = draw(st.lists(st.integers(0, nv - 1), max_size=3))
    g = MetricGraph(nv, edges, leads=leads)
    assume(validate(g).ok)
    flips = [e for e in range(len(edges)) if draw(st.booleans())]
    return g, flips


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(small_graphs(), st.complex_numbers(max_magnitude=4.0))
# four parallel unit edges, one flipped, at a subnormal k: the expansion and
# the DP oracle give 0 there, and numpy's LU returned NaN
@example(case=(MetricGraph(2, [(0, 1, 1.0)] * 4, leads=[]), [2]), k=2.2250738585e-313 + 0j)
def test_interpolation_matches_dp_and_lu_random(case, k):
    g, flips = case
    m = assemble(g, flip_edges=flips)
    p = m.determinant()
    dp = dp_determinant(m)
    assert_same_expansion(p, dp)
    k = complex(k.real, max(-1.5, min(1.5, k.imag)))
    assert abs(p.eval(k) - dp.eval(k)) <= 1e-12 * max(_scale(p, k), 1e-300)
    # LAPACK's LU can return NaN on entries such as 1 - 2.2e-313j, so the
    # numpy route is taken at k with its subnormal parts flushed to 0
    k = complex(*(0.0 if abs(x) < sys.float_info.min else x for x in (k.real, k.imag)))
    lu = np.linalg.det(m.eval_matrix(k))
    assert abs(p.eval(k) - lu) <= 1e-10 * max(_scale(p, k), 1e-300)


def _scale(p, k):
    """The sum of the term sizes of p at k."""
    return sum(abs(a * np.exp(1j * p.sigma_of(v) * k)) for v, a in p.terms.items())


def test_graph_without_edges():
    m = assemble(MetricGraph(1, [], leads=[0, 0]))
    assert m.determinant() == dp_determinant(m)
    assert m.determinant().terms == {(): 2}


# -- capacity and rounding certificate ----------------------------------------

def refuse_grid(monkeypatch):
    def det(*args, **kwargs):
        raise AssertionError("the interpolation grid was evaluated")
    monkeypatch.setattr(np.linalg, "det", det)


def test_edge_capacity_refused_before_grid(monkeypatch):
    g = MetricGraph(2, [(0, 1, 1.0 + 0.01 * i)
                        for i in range(constraint.EDGE_CAPACITY + 1)])
    m = assemble(g)
    assert m.n <= CAPACITY
    refuse_grid(monkeypatch)
    with pytest.raises(CapacityError, match="edges vary"):
        m.determinant()


def test_certificate_a_priori_bound_refused(monkeypatch):
    m = assemble(two_arc_fixture())
    monkeypatch.setattr(constraint, "CERT_SLACK", 1e15)
    refuse_grid(monkeypatch)
    with pytest.raises(CapacityError, match="rounding bound"):
        m.determinant()


def test_certificate_observed_error_refused(monkeypatch):
    # a zero tolerance leaves no room for the rounding error every real
    # evaluation carries, so the kernel must refuse, not round
    m = assemble(two_arc_fixture())
    monkeypatch.setattr(constraint, "CERT_SLACK", 0.0)
    with pytest.raises(CapacityError, match="rounding error"):
        m.determinant()


def test_submatrix_argument_errors():
    m = assemble(two_arc_fixture())
    with pytest.raises(ValueError, match="square"):
        m.submatrix_determinant([0, 1], [0])
    half = ConstraintMatrix(1, (1.0,), [[(0, 0.5, None)]], [("r", 0)], [("c", 0)])
    with pytest.raises(ValueError, match="integers"):
        half.determinant()
