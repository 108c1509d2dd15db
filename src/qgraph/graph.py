"""Metric graphs with finite edges and semi-infinite leads.

Vertices are dense integers 0..n-1.  Internal edges carry an orientation
(tail, head) and a positive length; the orientation is whatever the caller
constructed and is preserved exactly, because downstream matrix assembly is
orientation-sensitive term by term (flipping an edge negates the determinant
without moving its zeros).  Leads are listed one entry per half-line, attached
at a vertex; their list order is the lead id.

incidence(graph) lists, in one pass, the edge ends and the leads at each
vertex in id order, skipping ends outside 0..n-1; validation, the Weyl
classification, assembly and the DtN matrices all read it.

The two-lead circle of the circle module is built here as well, so that a
command that only looks at its graph does not load the numerics.
"""

import json
import math
from collections import namedtuple

Edge = namedtuple("Edge", "tail head length")
Lead = namedtuple("Lead", "vertex")
Incidence = namedtuple("Incidence", "ends leads")
VertexProfile = namedtuple("VertexProfile", "p q d")
ValidationReport = namedtuple("ValidationReport", "ok violations")
WeylClassification = namedtuple("WeylClassification", "is_weyl volume balanced_vertices")
CircleParams = namedtuple("CircleParams", "c rho1 rho2")


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


def incidence(graph):
    """Per vertex: the edges with an end there (once per end) and the leads
    there, each by id; ends outside 0..n-1 are skipped."""
    n = graph.n_vertices
    table = [Incidence([], []) for _ in range(n)]
    for e, edge in enumerate(graph.edges):
        for end in (edge.tail, edge.head):
            if 0 <= end < n:
                table[end].ends.append(e)
    for l, lead in enumerate(graph.leads):
        if 0 <= lead.vertex < n:
            table[lead.vertex].leads.append(l)
    return table


def validate(graph):
    """Structural checks, reported rather than raised.

    Flags: edges whose endpoints coincide (tadpoles are out of scope; insert a
    degree-2 vertex instead), references to vertices outside 0..n-1,
    non-finite or non-positive edge lengths, and vertices that touch neither
    an edge nor a lead (every vertex must have total degree at least one).
    """
    bad = []
    n = graph.n_vertices
    for i, e in enumerate(graph.edges):
        if e.tail == e.head:
            bad.append("tadpole: edge %d has both endpoints at vertex %d" % (i, e.tail))
        for end in (e.tail, e.head):
            if not (0 <= end < n):
                bad.append("dangling reference: edge %d endpoint %d" % (i, end))
        if not math.isfinite(e.length):
            bad.append("non-finite length: edge %d has length %r" % (i, e.length))
        elif e.length <= 0:
            bad.append("non-positive length: edge %d has length %r" % (i, e.length))
    for i, l in enumerate(graph.leads):
        if not (0 <= l.vertex < n):
            bad.append("dangling reference: lead %d at vertex %d" % (i, l.vertex))
    for v, at in enumerate(incidence(graph)):
        if not (at.ends or at.leads):
            bad.append("isolated vertex: %d (%s)" % (v, graph.vertex_name(v)))
    return ValidationReport(ok=not bad, violations=tuple(bad))


def require_valid(graph):
    """Raise ValueError, naming every violation, for a graph validate flags."""
    rep = validate(graph)
    if not rep.ok:
        raise ValueError("graph fails validation: " + "; ".join(rep.violations))


def vertex_profile(graph, v):
    """(p, q, d) at vertex v: internal degree, lead count, total degree."""
    if not 0 <= v < graph.n_vertices:
        raise ValueError("vertex %r is not in 0..%d" % (v, graph.n_vertices - 1))
    p, q = map(len, incidence(graph)[v])
    return VertexProfile(p=p, q=q, d=p + q)


def classify_weyl(graph):
    """Leading-order resonance growth class.

    A vertex carrying leads is balanced when exactly as many internal edges as
    leads meet it; any balanced vertex drops the counting coefficient below
    the total edge length, otherwise the graph counts at Weyl rate.
    """
    balanced = tuple(v for v, at in enumerate(incidence(graph))
                     if at.leads and len(at.ends) == len(at.leads))
    return WeylClassification(is_weyl=not balanced, balanced_vertices=balanced,
                              volume=sum(e.length for e in graph.edges))


# -- the two-lead circle ------------------------------------------------------

def circle_params(c):
    """Arc lengths (1 - c) pi and (1 + c) pi of the two-lead circle at c."""
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError("surgery parameter must lie in [0, 1], got %r" % c)
    return CircleParams(c=c, rho1=(1.0 - c) * math.pi, rho2=(1.0 + c) * math.pi)


def build_circle_graph(c):
    """Two-lead circle at parameter c, a float in [0, 1].

    Vertices are named v1, v2 with one lead each; both arcs run from v2 to
    v1.  At c = 1 the short arc has contracted and v2 carries both leads
    (balanced: two edges, two leads); v1 survives as the spare degree-2
    vertex splitting the 2*pi loop into the two pi-edges.
    """
    p = circle_params(c)
    if p.c == 1.0:
        return MetricGraph(2, [(0, 1, math.pi), (0, 1, math.pi)],
                           leads=[1, 1], vertex_names=["v1", "v2"])
    return MetricGraph(2, [(1, 0, p.rho1), (1, 0, p.rho2)],
                       leads=[0, 1], vertex_names=["v1", "v2"])


# -- JSON interchange ---------------------------------------------------------
#
# {"vertices": ["a", "b"],
#  "edges":    [{"u": "a", "v": "b", "length": 1.0}],
#  "leads":    [{"at": "a", "count": 2}]}
#
# Vertex names map to dense ids in file order.  Stored edges are normalized to
# tail = smaller id so that a file round-trips to one canonical orientation.
# A graph carries at most _MAX_LEADS leads in all: each lead is stored on its
# own, so a "count" of millions in a file of a hundred bytes would take
# seconds and hundreds of MiB before any check ran.

_MAX_LEADS = 10000

def parse_graph(obj):
    if not isinstance(obj, dict):
        raise GraphFormatError("graph document must be a JSON object")
    names = obj.get("vertices")
    if not (isinstance(names, list)
            and all(isinstance(name, (str, int, float)) for name in names)):
        raise GraphFormatError("missing or malformed 'vertices' list")
    # names are matched as text, so 1 and "1" name the same vertex
    names = [str(name) for name in names]
    index = {name: i for i, name in enumerate(names)}
    if len(index) != len(names):
        raise GraphFormatError("duplicate vertex names")

    for key in ("edges", "leads"):
        if not isinstance(obj.get(key, []), list):
            raise GraphFormatError("malformed %r list" % key)

    def lookup(name, where):
        try:
            return index[str(name)]
        except KeyError:
            raise GraphFormatError("unknown vertex %r in %s" % (name, where))

    edges = []
    for i, rec in enumerate(obj.get("edges", [])):
        try:
            u, v, L = rec["u"], rec["v"], rec["length"]
            # float(True) would read as 1.0
            if isinstance(L, bool):
                raise TypeError
            L = float(L)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise GraphFormatError("malformed edge record %d" % i)
        u, v = lookup(u, "edge %d" % i), lookup(v, "edge %d" % i)
        edges.append((min(u, v), max(u, v), L))
    leads = []
    for i, rec in enumerate(obj.get("leads", [])):
        try:
            at, count = rec["at"], rec.get("count", 1)
            # int() would truncate 0.5 to no lead and read true as one
            if isinstance(count, bool) or (isinstance(count, float) and not count.is_integer()):
                raise ValueError
            count = int(count)
        except (KeyError, TypeError, ValueError, OverflowError):
            raise GraphFormatError("malformed lead record %d" % i)
        at = lookup(at, "lead record %d" % i)
        if count < 0:
            raise GraphFormatError("negative lead count in record %d" % i)
        if count > _MAX_LEADS - len(leads):
            raise GraphFormatError("lead record %d takes the graph past %d leads"
                                   % (i, _MAX_LEADS))
        leads.extend([at] * count)
    return MetricGraph(len(names), edges, leads, vertex_names=names)


def load_graph(path):
    with open(path) as fh:
        try:
            obj = json.load(fh)
        # a decode error, an integer of too many digits, or deep nesting
        except (ValueError, RecursionError) as exc:
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
