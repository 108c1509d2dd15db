"""One incidence pass feeds every per-vertex reader.

The references below are the per-vertex scans that assembly, the vertex
profile and the Weyl classification ran before they read the incidence
table: every edge and every lead scanned once per vertex, and the matrix
rows labelled in the order they were filled.  The table must give the same
matrix, entry for entry, and the same profiles and classes.
"""

import math
import time

import pytest

from qgraph.circle import build_graph
from qgraph.constraint import assemble
from qgraph.graph import (MetricGraph, classify_weyl, incidence, validate,
                          vertex_profile)


def _unit(m, e, s):
    v = [0] * m
    v[e] = s
    return tuple(v)


def _written_out_assembly(graph, flip_edges=()):
    """(columns, row_labels, col_labels, orientations), one scan of the
    edges and leads per vertex for the continuity rows and one more for
    the balance rows."""
    flip = set(flip_edges)
    nv, ne, nl = graph.n_vertices, len(graph.edges), len(graph.leads)
    oriented = [(e.head, e.tail) if i in flip else (e.tail, e.head)
                for i, e in enumerate(graph.edges)]
    tail, head, lead = nv, nv + ne, nv + 2 * ne
    col_labels = ([("vertex", v) for v in range(nv)]
                  + [("tail", e) for e in range(ne)]
                  + [("head", e) for e in range(ne)]
                  + [("lead", l) for l in range(nl)])
    columns = [[] for _ in range(nv + 2 * ne + nl)]
    row_labels = []

    def put(col, coef, delta=None):
        columns[col].append((len(row_labels), coef, delta))

    for v in range(nv):
        for e, (t, h) in enumerate(oriented):
            if t == v:
                put(tail + e, 1)
                put(head + e, 1)
                put(v, -1)
                row_labels.append(("continuity_tail", e, v))
            if h == v:
                put(tail + e, 1, _unit(ne, e, +1))
                put(head + e, 1, _unit(ne, e, -1))
                put(v, -1)
                row_labels.append(("continuity_head", e, v))
        for l, ld in enumerate(graph.leads):
            if ld.vertex == v:
                put(lead + l, 1)
                put(v, -1)
                row_labels.append(("continuity_lead", l, v))
    for v in range(nv):
        for e, (t, h) in enumerate(oriented):
            if t == v:
                put(tail + e, 1)
                put(head + e, -1)
            if h == v:
                put(tail + e, -1, _unit(ne, e, +1))
                put(head + e, 1, _unit(ne, e, -1))
        for l, ld in enumerate(graph.leads):
            if ld.vertex == v:
                put(lead + l, 1)
        row_labels.append(("kirchhoff", v))
    for col in columns:
        col.sort()
    return columns, tuple(row_labels), tuple(col_labels), tuple(oriented)


def _written_out_profile(graph, v):
    p = sum(1 for e in graph.edges for end in (e.tail, e.head) if end == v)
    q = sum(1 for l in graph.leads if l.vertex == v)
    return p, q, p + q


def _written_out_balanced(graph):
    profiles = [_written_out_profile(graph, v) for v in range(graph.n_vertices)]
    return tuple(v for v, (p, q, _) in enumerate(profiles) if q >= 1 and p == q)


def _cases(graph_family, bench_graphs):
    circles = [build_graph(c) for c in (0.0, 0.3, 0.6, 1.0)]
    return list(bench_graphs.values()) + graph_family + circles


def test_assembly_matches_the_per_vertex_scans(graph_family, bench_graphs):
    for g in _cases(graph_family, bench_graphs):
        ne = len(g.edges)
        for flips in ((), tuple(range(ne)), tuple(range(0, ne, 2)), (ne - 1,)):
            mat = assemble(g, flip_edges=flips)
            got = (mat.columns, mat.row_labels, mat.col_labels, mat.orientations)
            assert repr(got) == repr(_written_out_assembly(g, flips)), (g, flips)


def test_profiles_and_classes_match_the_per_vertex_scans(graph_family, bench_graphs):
    invalid = [MetricGraph(2, [(-1, 1, 1.0), (0, 1, 2.0)], leads=[0]),
               MetricGraph(3, [(0, 0, 1.0), (1, 5, 1.0)], leads=[2, 7, -1, 2]),
               MetricGraph(3, [(0, 1, 1.0)])]
    for g in _cases(graph_family, bench_graphs) + invalid:
        for v in range(g.n_vertices):
            assert tuple(vertex_profile(g, v)) == _written_out_profile(g, v)
        cls = classify_weyl(g)
        balanced = _written_out_balanced(g)
        assert repr(tuple(cls)) == repr((not balanced, sum(e.length for e in g.edges),
                                         balanced))
        assert type(cls.balanced_vertices) is tuple


def test_incidence_lists_ends_and_leads_in_id_order():
    g = MetricGraph(4, [(1, 0, 1.0), (0, 0, 1.0), (2, 9, 1.0), (0, 2, 1.0)],
                    leads=[2, -1, 0, 2])
    assert [(at.ends, at.leads) for at in incidence(g)] == [
        ([0, 1, 1, 3], [2]), ([0], []), ([2, 3], [0, 3]), ([], [])]


def test_validate_keeps_its_violations_and_their_order():
    g = MetricGraph(4, [(0, 0, 1.0), (1, 5, math.nan), (-1, 1, -1.0)], leads=[7, 1])
    assert validate(g).violations == (
        "tadpole: edge 0 has both endpoints at vertex 0",
        "dangling reference: edge 1 endpoint 5",
        "non-finite length: edge 1 has length nan",
        "dangling reference: edge 2 endpoint -1",
        "non-positive length: edge 2 has length -1.0",
        "dangling reference: lead 0 at vertex 7",
        "isolated vertex: 2 (2)",
        "isolated vertex: 3 (3)")


def test_vertex_profile_rejects_a_vertex_outside_the_graph():
    g = build_graph(0.3)
    for v in (-1, 2):
        with pytest.raises(ValueError, match="not in 0..1"):
            vertex_profile(g, v)


def test_classification_is_linear_in_the_graph():
    """A path of 50,000 vertices with one lead; one scan per vertex took
    minutes at this size."""
    n = 50000
    g = MetricGraph(n, [(i, i + 1, 1.0) for i in range(n - 1)], leads=[0])
    start = time.perf_counter()
    cls = classify_weyl(g)
    assert time.perf_counter() - start < 5.0
    assert cls.balanced_vertices == (0,) and cls.volume == n - 1
