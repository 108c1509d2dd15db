import json
import math

import numpy as np
import pytest

from qgraph.circle import build_graph
from qgraph.graph import (GraphFormatError, MetricGraph, classify_weyl,
                          dump_graph, load_graph, parse_graph, validate,
                          vertex_profile)


def test_validate_clean_graph():
    g = MetricGraph(2, [(0, 1, 1.0), (0, 1, 1.5)], leads=[0])
    rep = validate(g)
    assert rep.ok and rep.violations == ()


def test_validate_tadpole():
    g = MetricGraph(1, [(0, 0, 1.0)])
    rep = validate(g)
    assert not rep.ok
    assert any(v.startswith("tadpole:") for v in rep.violations)


def test_validate_dangling_edge_and_lead():
    g = MetricGraph(2, [(0, 5, 1.0)], leads=[3])
    rep = validate(g)
    assert not rep.ok
    dangling = [v for v in rep.violations if v.startswith("dangling reference:")]
    assert len(dangling) == 2


def test_validate_nonpositive_length():
    rep = validate(MetricGraph(2, [(0, 1, 0.0)]))
    assert any(v.startswith("non-positive length:") for v in rep.violations)
    rep = validate(MetricGraph(2, [(0, 1, -2.0)]))
    assert not rep.ok
    for length in (math.inf, -math.inf, math.nan):
        rep = validate(MetricGraph(2, [(0, 1, length)]))
        assert rep.violations == ("non-finite length: edge 0 has length %r" % length,)
    rep = validate(parse_graph(json.loads(
        '{"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "length": 1e309}]}')))
    assert rep.violations == ("non-finite length: edge 0 has length inf",)


def test_validate_isolated_vertex():
    g = MetricGraph(3, [(0, 1, 1.0)])
    rep = validate(g)
    assert not rep.ok
    assert any(v.startswith("isolated vertex: 2") for v in rep.violations)
    # a lead is enough to anchor a vertex
    assert validate(MetricGraph(3, [(0, 1, 1.0)], leads=[2])).ok


def test_vertex_profile_circle():
    g = build_graph(0.3)
    for v in (0, 1):
        prof = vertex_profile(g, v)
        assert (prof.p, prof.q, prof.d) == (2, 1, 3)


def test_degree_sum_invariant(graph_family):
    for g in graph_family:
        total = sum(vertex_profile(g, v).d for v in range(g.n_vertices))
        assert total == 2 * len(g.edges) + len(g.leads)


def test_classify_circle_is_weyl_below_one():
    for c in (0.0, 0.25, 1 / 3, 0.5, 0.75, 0.9):
        cls = classify_weyl(build_graph(c))
        assert cls.is_weyl
        assert cls.balanced_vertices == ()
        assert cls.volume == 2 * math.pi


def test_classify_circle_balanced_at_one():
    cls = classify_weyl(build_graph(1.0))
    assert not cls.is_weyl
    assert cls.balanced_vertices == (1,)
    assert cls.volume == 2 * math.pi


def test_classify_no_leads_is_weyl():
    g = MetricGraph(3, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5)])
    cls = classify_weyl(g)
    assert cls.is_weyl and cls.balanced_vertices == ()
    assert cls.volume == 3.5


def test_adding_lead_toggles_balance():
    g = MetricGraph(2, [(0, 1, 1.0)], leads=[])
    assert classify_weyl(g).is_weyl
    g1 = MetricGraph(2, [(0, 1, 1.0)], leads=[0])
    assert not classify_weyl(g1).is_weyl           # p = q = 1 at vertex 0
    g2 = MetricGraph(2, [(0, 1, 1.0)], leads=[0, 0])
    assert classify_weyl(g2).is_weyl               # q = 2 > p = 1


def test_volume_is_edge_order_sum(graph_family):
    for g in graph_family:
        assert classify_weyl(g).volume == sum(e.length for e in g.edges)


def test_orientation_preserved_by_constructor():
    g = MetricGraph(2, [(1, 0, 2.0)])
    assert g.edges[0].tail == 1 and g.edges[0].head == 0


def test_parse_dump_round_trip():
    doc = {"vertices": ["a", "b", "c"],
           "edges": [{"u": "b", "v": "a", "length": 1.25},
                     {"u": "a", "v": "c", "length": 2.0}],
           "leads": [{"at": "b", "count": 2}, {"at": "c"}]}
    g = parse_graph(doc)
    assert g.n_vertices == 3
    # file orientation is normalized to tail = smaller id
    assert g.edges[0].tail == 0 and g.edges[0].head == 1
    assert [l.vertex for l in g.leads] == [1, 1, 2]
    g2 = parse_graph(dump_graph(g))
    assert g2.vertex_names == g.vertex_names
    assert g2.edges == g.edges
    assert g2.leads == g.leads


def test_lead_count_limit():
    """A graph carries at most 10000 leads: that many parse, one more is
    refused, in one record or over several, before the leads are stored."""
    g = parse_graph({"vertices": ["a", "b"], "leads": [{"at": "a", "count": 10000}]})
    assert len(g.leads) == 10000
    g = parse_graph({"vertices": ["a", "b"],
                     "leads": [{"at": "a", "count": 9999}, {"at": "b"}]})
    assert [l.vertex for l in g.leads[-2:]] == [0, 1]
    with pytest.raises(GraphFormatError, match="^lead record 0 takes the graph past 10000 leads$"):
        parse_graph({"vertices": ["a"], "leads": [{"at": "a", "count": 10001}]})
    with pytest.raises(GraphFormatError, match="^lead record 2 takes the graph past 10000 leads$"):
        parse_graph({"vertices": ["a", "b"], "leads": [{"at": "a", "count": 9999}, {"at": "b"},
                                                       {"at": "a"}]})


def test_load_graph(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps(dump_graph(build_graph(0.5))))
    g = load_graph(str(path))
    assert g.n_vertices == 2 and len(g.edges) == 2 and len(g.leads) == 2
    assert classify_weyl(g).volume == 2 * math.pi


def test_load_graph_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(GraphFormatError):
        load_graph(str(path))
    # an integer past the int-from-string digit limit, and deep nesting
    for text in ('{"vertices": [%s]}' % ("1" * 5000), "[" * 100000 + "]" * 100000):
        path.write_text(text)
        with pytest.raises(GraphFormatError, match="not valid JSON"):
            load_graph(str(path))


def test_parse_errors():
    with pytest.raises(GraphFormatError):
        parse_graph([1, 2, 3])
    with pytest.raises(GraphFormatError):
        parse_graph({"edges": []})
    with pytest.raises(GraphFormatError):
        parse_graph({"vertices": ["a", "a"]})
    with pytest.raises(GraphFormatError):
        parse_graph({"vertices": ["a", "b"],
                     "edges": [{"u": "a", "v": "zz", "length": 1.0}]})
    with pytest.raises(GraphFormatError):
        parse_graph({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b"}]})
    with pytest.raises(GraphFormatError):
        parse_graph({"vertices": ["a"], "leads": [{"at": "a", "count": -1}]})
    with pytest.raises(GraphFormatError, match="malformed 'vertices'"):
        parse_graph({"vertices": [["a"], "b"]})
    with pytest.raises(GraphFormatError, match="malformed 'vertices'"):
        parse_graph({"vertices": "ab"})
    with pytest.raises(GraphFormatError, match="duplicate vertex names"):
        parse_graph({"vertices": [1, "1"]})
    with pytest.raises(GraphFormatError, match="malformed lead record 0"):
        parse_graph(json.loads('{"vertices": ["a"], "leads": [{"at": "a", "count": 1e400}]}'))
    with pytest.raises(GraphFormatError, match="malformed edge record 0"):
        parse_graph({"vertices": ["a", "b"],
                     "edges": [{"u": "a", "v": "b", "length": 10**400}]})
    with pytest.raises(GraphFormatError, match="malformed 'edges'"):
        parse_graph({"vertices": ["a"], "edges": 5})


@pytest.mark.parametrize("count", [0.5, 1.7, -0.5, True, False, "1.5"])
def test_lead_count_must_be_a_whole_number(count):
    """A lead count that is not a whole number, or is a JSON boolean, is
    refused: truncating it would drop or add leads, and with them change a
    vertex's balance and so the Weyl class."""
    with pytest.raises(GraphFormatError, match="malformed lead record 0"):
        parse_graph({"vertices": ["a"], "leads": [{"at": "a", "count": count}]})


@pytest.mark.parametrize("count", [2, 2.0, "2"])
def test_whole_lead_counts_parse(count):
    g = parse_graph({"vertices": ["a"], "leads": [{"at": "a", "count": count}]})
    assert [lead.vertex for lead in g.leads] == [0, 0]


def test_boolean_length_refused():
    """A JSON boolean is not an edge length (float(true) would read 1.0);
    a number written as a string still is."""
    with pytest.raises(GraphFormatError, match="malformed edge record 0"):
        parse_graph({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "length": True}]})
    g = parse_graph({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "length": "1.5"}]})
    assert g.edges[0].length == 1.5


def test_family_stays_in_contract(graph_family):
    assert len(graph_family) == 50
    balanced = 0
    for g in graph_family:
        assert 1 <= len(g.edges) <= 4
        assert len(g.leads) <= 3
        assert all(0.5 <= e.length <= 2.0 for e in g.edges)
        if classify_weyl(g).balanced_vertices:
            balanced += 1
    # both counting classes are represented
    assert balanced >= 5
    assert balanced <= 45
