"""Metamorphic checks of det A(k): a change of graph description that keeps
the quantum graph the same may only multiply the determinant by a constant.

Each check evaluates both determinants at points of the upper half plane
(where the family's determinants do not vanish) and asserts that their
ratio is one constant of the expected modulus, with the sign the row and
column order of the assembly predicts:

* reversing one edge's orientation multiplies det A by -1;
* relabelling the vertices by pi multiplies it by (-1)^s, with s the number
  of pairs u < v with pi(u) > pi(v) and odd total degree at both (their
  blocks of continuity rows trade places);
* reordering the leads multiplies it by (-1)^s, with s the number of pairs
  of leads at different vertices whose order is swapped;
* splitting edge i = (t, h) at an inner point with a new last vertex w,
  keeping (t, w) as edge i and appending (w, h), multiplies it by
  2 (-1)^(E + N + m), with E edges and N leads before the split and m the
  number of edges after i with an endpoint at h.  The factor 2 is the
  determinant of the new vertex's three rows on its three new unknowns;
  the sign counts the columns and the row of (w, h) at h moved past others
  to bring the matrix back to the old order;
* hanging a pendant edge: moving lead j from vertex u to a new last vertex
  w, joined to u by a new last edge (u, w) with phase z = e^{ik rho},
  multiplies it by 2 (-1)^(E + N + m) z^-1, with E edges and N leads before
  the change and m the leads at u listed before j.  This one is checked
  term by term, exactly: every old term, with exponent -1 appended for the
  new edge, times that integer.

The pendant's factor.  Write a, b for the new edge's tail and head
coefficients, g for lead j's amplitude and x for the value at w.  Three of
the new rows hold only new unknowns: the head row of the new edge at w,
z a + z^-1 b - x, the lead row of j at w, g - x, and the balance row of w,
-z a + z^-1 b + g.  The fourth, the new edge's tail row at u, a + b - z_u,
stands where j's old lead row g - z_u stood, and a enters the balance row
of u with +1 as g did; b enters only these two rows of u.  So with a in the
place of g, and the tail row in the place of the old lead row, the rows and
columns that are not new give A itself, and the block of the three rows
above on (x, b, g) has determinant 2 z^-1.  Its Schur complement is A,
since solving that block against a's column (z, 0, -z) gives b = 0, and b
is the only one of x, b, g in the old rows.  The sign is that of the moves
into this block order.  Columns: x past 2E + N + 2 columns to the end, b
past N + 1, g past N - j + 1, then a back past the E head columns and the
j leads before it: 3E + 3N + 4, of parity E + N.  Rows: the two rows of w
pass the V balance rows together (even), and the new tail row, which
follows the edge rows at u, passes the m lead rows at u before j.
"""

import numpy as np

from qgraph.constraint import assemble
from qgraph.graph import MetricGraph

POINTS = np.array([0.7 + 0.9j, -2.3 + 0.4j, 3.1 + 1.7j, 1.234 + 0.5j])


def _ratio(graph, other):
    """The constant det A_other / det A_graph, checked to be one constant."""
    r = assemble(other).determinant().eval(POINTS) / assemble(graph).determinant().eval(POINTS)
    assert np.all(np.abs(r - r[0]) <= 1e-9 * abs(r[0])), r
    return r[0]


def _degree(graph, v):
    return (sum((e.tail == v) + (e.head == v) for e in graph.edges)
            + sum(l.vertex == v for l in graph.leads))


def _edges(graph):
    return [tuple(e) for e in graph.edges]


def _leads(graph):
    return [l.vertex for l in graph.leads]


def test_family_determinants_do_not_vanish_on_the_points(graph_family):
    for g in graph_family:
        assert np.all(np.abs(assemble(g).determinant().eval(POINTS)) > 1e-6)


def test_flipping_an_edge_negates_the_determinant(graph_family):
    rng = np.random.default_rng(61)
    for g in graph_family:
        edges = _edges(g)
        i = int(rng.integers(len(edges)))
        t, h, length = edges[i]
        flipped = MetricGraph(g.n_vertices, edges[:i] + [(h, t, length)] + edges[i + 1:],
                              leads=_leads(g))
        assert abs(_ratio(g, flipped) - (-1)) <= 1e-9


def test_relabelling_vertices_keeps_the_determinant_up_to_sign(graph_family):
    rng = np.random.default_rng(62)
    signs = set()
    for g in graph_family:
        pi = rng.permutation(g.n_vertices)
        relabelled = MetricGraph(g.n_vertices,
                                 [(int(pi[t]), int(pi[h]), x) for t, h, x in _edges(g)],
                                 leads=[int(pi[v]) for v in _leads(g)])
        swaps = sum(_degree(g, u) * _degree(g, v) for u in range(g.n_vertices)
                    for v in range(u + 1, g.n_vertices) if pi[u] > pi[v])
        r = _ratio(g, relabelled)
        assert abs(r - (-1) ** swaps) <= 1e-9
        signs.add(round(r.real))
    assert signs == {-1, 1}


def test_reordering_leads_keeps_the_determinant_up_to_sign(graph_family):
    rng = np.random.default_rng(63)
    signs = set()
    for g in graph_family:
        leads = _leads(g)
        tau = rng.permutation(len(leads))
        reordered = MetricGraph(g.n_vertices, _edges(g), leads=[leads[j] for j in tau])
        swaps = sum(1 for a in range(len(leads)) for b in range(a + 1, len(leads))
                    if tau[a] > tau[b] and leads[tau[a]] != leads[tau[b]])
        r = _ratio(g, reordered)
        assert abs(r - (-1) ** swaps) <= 1e-9
        signs.add(round(r.real))
    assert signs == {-1, 1}


def test_splitting_an_edge_doubles_the_determinant_up_to_sign(graph_family):
    rng = np.random.default_rng(64)
    signs = set()
    for g in graph_family:
        edges = _edges(g)
        i = int(rng.integers(len(edges)))
        t, h, length = edges[i]
        f = float(rng.uniform(0.2, 0.8))
        w = g.n_vertices
        split = MetricGraph(w + 1, edges[:i] + [(t, w, f * length)] + edges[i + 1:]
                            + [(w, h, length - f * length)], leads=_leads(g))
        r = _ratio(g, split)
        assert abs(abs(r) - 2) <= 1e-9
        later = sum((u == h) + (v == h) for u, v, _ in edges[i + 1:])
        assert abs(r - 2 * (-1) ** (len(edges) + len(g.leads) + later)) <= 1e-9
        signs.add(round(r.real))
    assert signs == {-2, 2}


def test_hanging_a_pendant_edge_doubles_each_term_up_to_sign(graph_family):
    rng = np.random.default_rng(65)
    signs = set()
    hung = 0
    for g in graph_family:
        leads = _leads(g)
        if not leads:
            continue
        j = int(rng.integers(len(leads)))
        u, w = leads[j], g.n_vertices
        pendant = MetricGraph(w + 1, _edges(g) + [(u, w, float(rng.uniform(0.5, 2.0)))],
                              leads=leads[:j] + [w] + leads[j + 1:])
        before = sum(v == u for v in leads[:j])
        factor = 2 * (-1) ** (len(g.edges) + len(leads) + before)
        old = assemble(g).determinant().terms
        new = assemble(pendant).determinant().terms
        assert all(type(a) is int for a in new.values())
        assert list(new.items()) == [(vec + (-1,), factor * a) for vec, a in old.items()]
        signs.add(factor)
        hung += 1
    assert hung >= 30 and signs == {-2, 2}
