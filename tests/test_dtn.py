import math

import numpy as np
import pytest

from qgraph.circle import build_graph
from qgraph.constraint import assemble
from qgraph.dtn import (delta, lambda_matrix, sigma_matrix,
                        verify_derivative_identity, verify_det_identity)
from qgraph.errors import PoleError
from qgraph.graph import MetricGraph, vertex_profile


def test_lambda_symmetric_and_sparse(graph_family):
    rng = np.random.default_rng(13)
    for g in graph_family[:25]:
        k = complex(rng.uniform(-4, 4), rng.uniform(0.4, 1.5))
        L = lambda_matrix(g, k)
        assert np.array_equal(L, L.T)
        joined = {(min(e.tail, e.head), max(e.tail, e.head)) for e in g.edges}
        for u in range(g.n_vertices):
            for v in range(u + 1, g.n_vertices):
                if (u, v) not in joined:
                    assert L[u, v] == 0


def test_lambda_reflection_conjugation(graph_family):
    rng = np.random.default_rng(14)
    for g in graph_family[:25]:
        k = complex(rng.uniform(-4, 4), rng.uniform(0.4, 1.5))
        L1 = lambda_matrix(g, -np.conj(k))
        L2 = np.conj(lambda_matrix(g, k))
        assert np.max(np.abs(L1 - L2)) <= 1e-12 * max(1.0, float(np.max(np.abs(L2))))


def test_lambda_circle_values_at_i():
    """Hand-computed entries for the symmetric circle at k = i: the diagonal
    is -1 - 2 coth(pi), the off-diagonal 2 / sinh(pi)."""
    L = lambda_matrix(build_graph(0.0), 1j)
    d = -1.0 - 2.0 / math.tanh(math.pi)
    o = 2.0 / math.sinh(math.pi)
    want = np.array([[d, o], [o, d]], dtype=complex)
    assert np.max(np.abs(L - want)) <= 1e-12


def test_delta_circle_at_i():
    assert abs(delta(build_graph(0.0), 1j) - math.sinh(math.pi) ** 2) <= 1e-9


def test_pole_guard():
    # sin(k rho) vanishes at k = 1 for an edge of length pi
    with pytest.raises(PoleError):
        lambda_matrix(build_graph(0.0), 1.0 + 0j)
    with pytest.raises(PoleError):
        sigma_matrix(build_graph(0.0), 2.0 + 0j)


def test_det_identity_requires_upper_half():
    g = build_graph(0.0)
    with pytest.raises(ValueError):
        verify_det_identity(g, 1.0 - 0.5j)
    with pytest.raises(ValueError):
        verify_det_identity(g, 2.0 + 0j)


def test_det_identity_on_family(graph_family):
    rng = np.random.default_rng(15)
    for g in graph_family:
        poly = assemble(g).determinant()
        for _ in range(2):
            k = complex(rng.uniform(-5, 5), rng.uniform(0.3, 2.0))
            assert verify_det_identity(g, k, poly) <= 1e-9


def test_derivative_identity_on_family(graph_family):
    rng = np.random.default_rng(16)
    for g in graph_family:
        for _ in range(2):
            k = complex(rng.uniform(-5, 5), rng.uniform(0.3, 2.0))
            assert verify_derivative_identity(g, k) <= 1e-6


def _log_derivative_gap(graph, poly, k):
    """Relative gap between p'/p of the expanded determinant and the
    logarithmic derivative of det A = C k^-(E+V) prod_e k sin(k rho_e) det L(k),
    whose last factor contributes tr(L^-1 L') with L' = 2k sigma_matrix."""
    p, dp = poly.eval_pair(k)
    lhs = dp / p
    n_edges, n_vertices = len(graph.edges), graph.n_vertices
    dL = 2.0 * k * sigma_matrix(graph, k)
    rhs = (-(n_edges + n_vertices) / k
           + sum(1.0 / k + e.length / np.tan(k * e.length) for e in graph.edges)
           + np.trace(np.linalg.solve(lambda_matrix(graph, k), dL)))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs))


def test_log_derivative_identity(graph_family):
    """p'/p from the exact expansion against the DtN route, on the family and
    on the circle at c = 0.3 and at the balanced c = 1."""
    rng = np.random.default_rng(17)
    worst = 0.0
    for g in graph_family + [build_graph(0.3), build_graph(1.0)]:
        poly = assemble(g).determinant()
        for _ in range(4):
            k = complex(rng.uniform(-5, 5), rng.uniform(0.3, 2.0))
            worst = max(worst, _log_derivative_gap(g, poly, k))
    assert worst <= 1e-10


def test_sigma_matches_lambda_derivative():
    g = MetricGraph(3, [(0, 1, 0.8), (1, 2, 1.3)], leads=[0, 2])
    h = 1e-5
    for k in (0.7 + 0.9j, -2.1 + 0.5j):
        num = (lambda_matrix(g, k + h) - lambda_matrix(g, k - h)) / (2 * h)
        gap = np.max(np.abs(num / (2 * k) - sigma_matrix(g, k)))
        assert gap <= 1e-7


def test_sigma_diagonal_asymptotics():
    """High on the imaginary axis sigma_vv * 2k/i approaches the total degree
    p + q at each vertex."""
    g = build_graph(0.0)
    S = sigma_matrix(g, 20j)
    for v in (0, 1):
        d = vertex_profile(g, v).d
        assert abs(S[v, v] * 2 * 20j / 1j - d) <= 1e-6
