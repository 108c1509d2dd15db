"""Vertex Dirichlet-to-Neumann route to the same resonance condition.

Eliminating the edge amplitudes leaves a |V| x |V| matrix L(k) acting on the
vertex values alone: for adjacent u != v each connecting edge contributes
k / sin(k rho) off the diagonal, and the diagonal collects i*k*(lead count)
minus k * cot(k rho) per incident edge end.  Its determinant vanishes at the
same points as the full vertex-condition matrix away from the poles, which
gives an independent numerical check on the assembly + expansion pipeline:

    |det A(k)| = (2^E / |k|^(E+V)) * |prod_e k sin(k rho_e)| * |det L(k)|.

The k-derivative of L has closed-form entries; (1/2k) dL/dk is the matrix of
weighted path data used below as a second, differential check.
"""

import numpy as np

from .constraint import assemble
from .errors import PoleError
from .graph import incidence, require_valid

POLE_GUARD = 1e-12


def _sines(graph, k):
    s = [np.sin(k * e.length) for e in graph.edges]
    for e, sv in zip(graph.edges, s):
        if abs(sv) < POLE_GUARD:
            raise PoleError("sin(k*rho) ~ 0 for edge of length %r at k=%r"
                            % (e.length, k))
    return s


def _lead_counts(graph):
    """Leads per vertex; ValueError for a graph that fails validate."""
    require_valid(graph)
    return [len(at.leads) for at in incidence(graph)]


def lambda_matrix(graph, k):
    """Dense DtN matrix L(k); raises PoleError within 1e-12 of an edge pole."""
    k = complex(k)
    q = _lead_counts(graph)
    s = _sines(graph, k)
    L = np.zeros((len(q), len(q)), dtype=complex)
    for e, edge in enumerate(graph.edges):
        L[edge.tail, edge.head] += k / s[e]
        L[edge.head, edge.tail] += k / s[e]
        c = np.cos(k * edge.length) / s[e]
        L[edge.tail, edge.tail] -= k * c
        L[edge.head, edge.head] -= k * c
    for v, qv in enumerate(q):
        L[v, v] += 1j * k * qv
    return L


def sigma_matrix(graph, k):
    """Closed form of (1/(2k)) * dL/dk."""
    k = complex(k)
    q = _lead_counts(graph)
    s = _sines(graph, k)
    S = np.zeros((len(q), len(q)), dtype=complex)
    for e, edge in enumerate(graph.edges):
        rho = edge.length
        c = np.cos(k * rho)
        off = 1.0 / s[e] - k * rho * c / s[e] ** 2
        S[edge.tail, edge.head] += off
        S[edge.head, edge.tail] += off
        diag = c / s[e] - k * rho / s[e] ** 2
        S[edge.tail, edge.tail] -= diag
        S[edge.head, edge.head] -= diag
    for v, qv in enumerate(q):
        S[v, v] += 1j * qv
    return S / (2.0 * k)


def delta(graph, k):
    """prod over edges of k * sin(k rho), the elimination Jacobian factor."""
    k = complex(k)
    out = 1.0 + 0.0j
    for e in graph.edges:
        out *= k * np.sin(k * e.length)
    return out


def verify_det_identity(graph, k, poly=None):
    """Relative mismatch between the two determinant routes at one point.

    The left side evaluates the exact symbolic expansion of det A; the right
    side goes through the vertex DtN matrix.  Both are compared in modulus
    only, the constant relating them being 2^E i^(E-V) / k^(E+V) up to the
    sign fixed by row/column order.  Pass a precomputed determinant
    polynomial to amortize the expansion over many sample points.
    """
    k = complex(k)
    if k.imag <= 0:
        raise ValueError("identity requires Im k > 0")
    if poly is None:
        poly = assemble(graph).determinant()
    E = len(graph.edges)
    V = graph.n_vertices
    lhs = abs(poly.eval(k))
    rhs = (2.0 ** E / abs(k) ** (E + V)) \
        * abs(delta(graph, k)) * abs(np.linalg.det(lambda_matrix(graph, k)))
    return abs(lhs - rhs) / max(lhs, 1e-300)


def verify_derivative_identity(graph, k):
    """Max entrywise gap between sigma_matrix and a central difference of L,
    with step 1e-5."""
    k = complex(k)
    h = 1e-5
    num = (lambda_matrix(graph, k + h) - lambda_matrix(graph, k - h)) / (2 * h)
    return float(np.max(np.abs(num / (2.0 * k) - sigma_matrix(graph, k))))
