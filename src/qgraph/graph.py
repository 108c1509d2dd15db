"""Metric graphs with finite edges and semi-infinite leads.

Vertices are dense integers 0..n-1.  Internal edges carry an orientation
(tail, head) and a positive length; the orientation is whatever the caller
constructed and is preserved exactly, because downstream matrix assembly is
orientation-sensitive term by term (flipping an edge negates the determinant
without moving its zeros).  Leads are listed one entry per half-line, attached
at a vertex; their list order is the lead id.
"""

import json
from collections import namedtuple

Edge = namedtuple("Edge", "tail head length")
Lead = namedtuple("Lead", "vertex")
VertexProfile = namedtuple("VertexProfile", "p q d")
ValidationReport = namedtuple("ValidationReport", "ok violations")
WeylClassification = namedtuple("WeylClassification", "is_weyl volume balanced_vertices")


class GraphFormatError(ValueError):
    """Raised for graph files that cannot be decoded into a MetricGraph."""


class MetricGraph:
    def __init__(self, n_vertices, edges, leads=(), vertex_names=None):
        self.n_vertices = int(n_vertices)
        self.edges = tuple(Edge(int(t), int(h), float(L)) for t, h, L in edges)
        self.leads = tuple(Lead(int(getattr(l, "vertex", l))) for l in leads)
        if vertex_names is None:
            vertex_names = [str(v) for v in range(self.n_vertices)]
        self.vertex_names = tuple(vertex_names)

    @property
    def lengths(self):
        """Edge lengths in edge-id order, the frequency table for determinants."""
        return tuple(e.length for e in self.edges)

    def vertex_name(self, v):
        return self.vertex_names[v] if v < len(self.vertex_names) else str(v)

    def __repr__(self):
        return "MetricGraph(n_vertices=%d, edges=%r, leads=%r)" % (
            self.n_vertices, self.edges, self.leads)


def validate(graph):
    """Structural checks, reported rather than raised.

    Flags: edges whose endpoints coincide (tadpoles are out of scope; insert a
    degree-2 vertex instead), references to vertices outside 0..n-1,
    non-positive edge lengths, and vertices that touch neither an edge nor a
    lead (every vertex must have total degree at least one).
    """
    bad = []
    n = graph.n_vertices
    touched = set()
    for i, e in enumerate(graph.edges):
        if e.tail == e.head:
            bad.append("tadpole: edge %d has both endpoints at vertex %d" % (i, e.tail))
        for end in (e.tail, e.head):
            if not (0 <= end < n):
                bad.append("dangling reference: edge %d endpoint %d" % (i, end))
            else:
                touched.add(end)
        if not (e.length > 0):
            bad.append("non-positive length: edge %d has length %r" % (i, e.length))
    for i, l in enumerate(graph.leads):
        if not (0 <= l.vertex < n):
            bad.append("dangling reference: lead %d at vertex %d" % (i, l.vertex))
        else:
            touched.add(l.vertex)
    for v in range(n):
        if v not in touched:
            bad.append("isolated vertex: %d (%s)" % (v, graph.vertex_name(v)))
    return ValidationReport(ok=not bad, violations=tuple(bad))


def vertex_profile(graph, v):
    """(p, q, d) at vertex v: internal degree, lead count, total degree."""
    p = sum(1 for e in graph.edges for end in (e.tail, e.head) if end == v)
    q = sum(1 for l in graph.leads if l.vertex == v)
    return VertexProfile(p=p, q=q, d=p + q)


def classify_weyl(graph):
    """Leading-order resonance growth class.

    A vertex carrying leads is balanced when exactly as many internal edges as
    leads meet it; any balanced vertex drops the counting coefficient below
    the total edge length, otherwise the graph counts at Weyl rate.
    """
    balanced = []
    for v in range(graph.n_vertices):
        prof = vertex_profile(graph, v)
        if prof.q >= 1 and prof.p == prof.q:
            balanced.append(v)
    vol = sum(e.length for e in graph.edges)
    return WeylClassification(is_weyl=not balanced, volume=vol,
                              balanced_vertices=tuple(balanced))


# -- JSON interchange ---------------------------------------------------------
#
# {"vertices": ["a", "b"],
#  "edges":    [{"u": "a", "v": "b", "length": 1.0}],
#  "leads":    [{"at": "a", "count": 2}]}
#
# Vertex names map to dense ids in file order.  Stored edges are normalized to
# tail = smaller id so that a file round-trips to one canonical orientation.

def parse_graph(obj):
    if not isinstance(obj, dict):
        raise GraphFormatError("graph document must be a JSON object")
    try:
        names = list(obj["vertices"])
    except (KeyError, TypeError):
        raise GraphFormatError("missing or malformed 'vertices' list")
    if len(set(names)) != len(names):
        raise GraphFormatError("duplicate vertex names")
    index = {str(name): i for i, name in enumerate(names)}

    def lookup(name, where):
        try:
            return index[str(name)]
        except KeyError:
            raise GraphFormatError("unknown vertex %r in %s" % (name, where))

    edges = []
    for i, rec in enumerate(obj.get("edges", [])):
        try:
            u = lookup(rec["u"], "edge %d" % i)
            v = lookup(rec["v"], "edge %d" % i)
            L = float(rec["length"])
        except (KeyError, TypeError, ValueError):
            raise GraphFormatError("malformed edge record %d" % i)
        edges.append((min(u, v), max(u, v), L))
    leads = []
    for i, rec in enumerate(obj.get("leads", [])):
        try:
            at = lookup(rec["at"], "lead record %d" % i)
            count = int(rec.get("count", 1))
        except (KeyError, TypeError, ValueError):
            raise GraphFormatError("malformed lead record %d" % i)
        if count < 0:
            raise GraphFormatError("negative lead count in record %d" % i)
        leads.extend([at] * count)
    return MetricGraph(len(names), edges, leads, vertex_names=[str(n) for n in names])


def load_graph(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise GraphFormatError("not valid JSON: %s" % exc)
    return parse_graph(obj)


def dump_graph(graph):
    """Inverse of parse_graph, up to lead grouping."""
    doc = {"vertices": list(graph.vertex_names),
           "edges": [{"u": graph.vertex_name(e.tail), "v": graph.vertex_name(e.head),
                      "length": e.length} for e in graph.edges],
           "leads": []}
    for l in graph.leads:
        doc["leads"].append({"at": graph.vertex_name(l.vertex), "count": 1})
    return doc
