"""Vertex-condition matrix of a graph with outgoing waves on its leads.

On each internal edge e of length rho, oriented tail -> head, the solution at
energy k^2 is written a_e * e^{ikx} + b_e * e^{-ikx} with x measured from the
tail; on each lead the outgoing wave is g_l * e^{ikx}; each vertex carries one
value z_v.  Continuity of the function at both endpoints and at every lead
base, plus a balance of derivatives at each vertex (the common factor ik is
divided out of the balance rows), gives a square homogeneous system

    A(k) nu = 0,   nu = (all z_v, all a_e, all b_e, all g_l).

Nontrivial solutions exist exactly where det A(k) = 0, and det A expands as an
exponential polynomial whose exponent vectors live in {-1, 0, 1}^edges over
the edge-length table: every matrix entry is a single monomial e^{+-ik rho}
or a constant.  The expansion interpolates det A on the grid of cube roots
of unity in the edge phases e^{ik rho_e} and rounds its integer coefficients
under an error certificate; it is refused above CAPACITY or EDGE_CAPACITY.

Row and column orders are fixed once and for all, so det A has one
well-defined sign.  Columns: vertex values, tail coefficients, head
coefficients, lead amplitudes, each block by id.  Rows: first, vertex by
vertex, the continuity rows, edge ends in edge order and then leads; last,
all balance rows, the one of vertex v being row 2E + L + v.
"""

import math

import numpy as np

from .errors import CapacityError
from .exppoly import ExpPolynomial
from .graph import incidence, require_valid

CAPACITY = 32  # matrix size bound of the expansion
EDGE_CAPACITY = 10  # bound on the edges that vary in a minor: 3^10 grid points
CERT_SLACK = 4.0  # tolerance constant of the rounding certificate
_EPS = np.finfo(float).eps
_CHUNK = 729  # matrices per batched determinant call, keeps memory flat


class ConstraintMatrix:
    """Square matrix of monomial entries, stored column-by-column.

    Each entry is (row, coef, delta) where delta is the exponent-vector shift
    of the monomial coef * e^{ik (delta . lengths)}; delta is None for
    constant entries.
    """

    def __init__(self, n, lengths, columns, row_labels, col_labels,
                 orientations=()):
        self.n = n
        self.lengths = tuple(lengths)
        self.columns = columns
        self.row_labels = tuple(row_labels)
        self.col_labels = tuple(col_labels)
        # effective (tail, head) per edge for this assembly; the tail endpoint
        # is the edge's coordinate origin
        self.orientations = tuple(orientations)

    def entry_terms(self):
        """{(row, col): (coef, delta)} over nonzero entries, delta None = constant."""
        out = {}
        for c, col in enumerate(self.columns):
            for r, coef, delta in col:
                out[(r, c)] = (coef, delta)
        return out

    def eval_matrix(self, k):
        """Dense complex matrix A(k)."""
        m = np.zeros((self.n, self.n), dtype=complex)
        for c, col in enumerate(self.columns):
            for r, coef, delta in col:
                sigma = sum(d * L for d, L in zip(delta or (), self.lengths))
                m[r, c] = coef * np.exp(1j * sigma * k)
        return m

    def determinant(self):
        """Exact expansion of det A as an ExpPolynomial."""
        return self.submatrix_determinant(range(self.n), range(self.n))

    def submatrix_determinant(self, rows, cols):
        """Exact expansion of the minor on (rows, cols).

        Take each z_e = e^{ik rho_e} as a variable.  If lo_e sums the lowest
        powers of z_e over the columns and N_e - 1 their spreads, the minor
        times prod z_e^-lo_e has degree < N_e in z_e (N_e <= 3 when assembled:
        z_e has power 0 or 1 in the tail column of e, 0 or -1 in its head
        column).  It is evaluated by batched LU on the grid of N_e-th roots of
        unity; an N_e-point DFT per axis gives the coefficients, rounded to
        the integers they are.  The entry coefficients are real integers, so
        the value at the grid point -t mod N is the conjugate of the value at
        t: LU runs on one point of each conjugate pair and on the
        self-conjugate points, (points + 1) / 2 of them on a 3^E grid.

        Certificate: on the grid every column keeps its norm, so their
        product H bounds the minor and its cofactors (Hadamard).  LU with
        partial pivoting returns det(M + dM)(1 + n eps), |dM_c| <= g n eps
        |M_c| for pivot growth g, so by multilinearity a value is off by
        <= H((1 + g n eps)^n - 1) ~ g n^2 eps H, and so is its conjugate,
        which is the value at the mirror point; the DFT averages these and
        adds ~log2(points) eps H.  CapacityError is raised unless
        bound = CERT_SLACK eps H (n^2 + log2(points) + 1), CERT_SLACK covering
        g and the constants, is < 1/4 before the evaluation and covers the
        observed max(|Re c - round(Re c)|, |Im c|) after it.  This error model
        trusts LAPACK's pivot growth; the observed check catches a breach.
        """
        rows, cols = list(rows), list(cols)
        if len(rows) != len(cols):
            raise ValueError("submatrix must be square, got %d rows and %d "
                             "columns" % (len(rows), len(cols)))
        n, m = len(rows), len(self.lengths)
        if n > CAPACITY:
            raise CapacityError("matrix size %d exceeds capacity %d" % (n, CAPACITY))
        if n == 0:
            return ExpPolynomial.constant(self.lengths, 1)
        rowpos = {r: i for i, r in enumerate(rows)}
        entries = [(rowpos[r], j, coef, delta or (0,) * m)
                   for j, c in enumerate(cols)
                   for r, coef, delta in self.columns[c] if r in rowpos]
        if len({e[1] for e in entries}) < n:  # an empty column
            return ExpPolynomial.zero(self.lengths)
        i, j, coef, power = map(np.array, zip(*entries))
        power = power.astype(int)  # float when there are no edges
        if not np.all(coef == np.rint(coef.real)):
            raise ValueError("entry coefficients must be integers")
        lo = sum(power[j == c].min(axis=0) for c in range(n))
        size = sum(power[j == c].max(axis=0) for c in range(n)) - lo + 1
        if np.count_nonzero(size > 1) > EDGE_CAPACITY:
            raise CapacityError("more than %d edges vary in the minor" % EDGE_CAPACITY)
        shape = tuple(size.tolist()) or (1,)  # no edges: one grid point
        points = math.prod(shape)
        hadamard = math.prod(np.sqrt(np.bincount(j, abs(coef) ** 2)).tolist())
        bound = CERT_SLACK * _EPS * hadamard * (n * n + math.log2(points) + 1)
        if not bound < 0.25:
            raise CapacityError("rounding bound %.3g is not below 1/4" % bound)
        # z_e^p at grid index t_e is unit[p t_e period / N_e mod period]
        period = math.lcm(*shape)
        unit = np.exp(2j * np.pi * np.arange(period) / period)
        step = period // size
        # mirror[t] is the flat index of -t mod N; LU runs on the points kept
        mirror = np.arange(points).reshape(shape)[
            np.ix_(*(-np.arange(s) % s for s in shape))].ravel()
        kept = np.flatnonzero(np.arange(points) <= mirror)
        values = np.empty(points, dtype=complex)
        for start in range(0, kept.size, _CHUNK):
            index = kept[start:start + _CHUNK]
            grid = np.array(np.unravel_index(index, shape))[:m]
            batch = np.zeros((len(index), n, n), dtype=complex)
            batch[:, i, j] = (coef[:, None] * unit[(power * step) @ grid % period]).T
            values[index] = np.linalg.det(batch) * unit[-(lo * step) @ grid % period]
        paired = kept[kept < mirror[kept]]
        values[mirror[paired]] = np.conj(values[paired])
        coefs = np.fft.fftn(values.reshape(shape)) / points
        rounded = np.rint(coefs.real)
        error = max(np.abs(coefs.real - rounded).max(), np.abs(coefs.imag).max())
        if not error <= bound:
            raise CapacityError("rounding error %.3g exceeds its bound %.3g"
                                % (error, bound))
        exponents = map(tuple, (lo + np.argwhere(rounded)[:, :m]).tolist())
        found = rounded[rounded != 0].astype(int).tolist()
        return ExpPolynomial(self.lengths, dict(zip(exponents, found)))


def _unit(m, e, s):
    v = [0] * m
    v[e] = s
    return tuple(v)


def assemble(graph, flip_edges=()):
    """Build the vertex-condition matrix of a validated graph.

    flip_edges: edge ids whose stored orientation is reversed for this
    assembly.  Flipping changes individual entries (and negates the
    determinant) but not the zero set.
    """
    require_valid(graph)
    flip = set(flip_edges)
    nv, ne, nl = graph.n_vertices, len(graph.edges), len(graph.leads)
    # effective orientation after flips
    oriented = [(e.head, e.tail) if i in flip else (e.tail, e.head)
                for i, e in enumerate(graph.edges)]
    # column blocks: vertex values, tail and head coefficients, lead amplitudes
    tail, head, lead = nv, nv + ne, nv + 2 * ne
    col_labels = ([("vertex", v) for v in range(nv)]
                  + [("tail", e) for e in range(ne)]
                  + [("head", e) for e in range(ne)]
                  + [("lead", l) for l in range(nl)])

    n = nv + 2 * ne + nl
    columns = [[] for _ in range(n)]
    row_labels = []
    for v, at in enumerate(incidence(graph)):
        balance = 2 * ne + nl + v  # derivative balance at v, ik divided out
        for e in at.ends:
            r = len(row_labels)
            if oriented[e][0] == v:
                # value at the tail endpoint: a + b = z_v
                columns[tail + e] += [(r, 1, None), (balance, 1, None)]
                columns[head + e] += [(r, 1, None), (balance, -1, None)]
                row_labels.append(("continuity_tail", e, v))
            else:
                # value at the head endpoint: a e^{ik rho} + b e^{-ik rho} = z_v
                up, down = _unit(ne, e, +1), _unit(ne, e, -1)
                columns[tail + e] += [(r, 1, up), (balance, -1, up)]
                columns[head + e] += [(r, 1, down), (balance, 1, down)]
                row_labels.append(("continuity_head", e, v))
            columns[v].append((r, -1, None))
        for l in at.leads:
            r = len(row_labels)
            columns[lead + l] += [(r, 1, None), (balance, 1, None)]
            columns[v].append((r, -1, None))
            row_labels.append(("continuity_lead", l, v))
    row_labels += [("kirchhoff", v) for v in range(nv)]
    assert len(row_labels) == n

    for col in columns:
        col.sort()
    return ConstraintMatrix(n, graph.lengths, columns, row_labels, col_labels,
                            orientations=oriented)


def leading_block_determinant(graph, v):
    """Determinant of the vertex block at v with all incident edges re-aimed
    into v.

    Rows: the lead continuity rows at v, the head continuity rows of edges
    incident to v, and the balance row of v.  Columns: the lead amplitudes at
    v, the tail coefficients of the incident edges, and the vertex value.
    Closed form: (q - p) * e^{ik * sum of incident edge lengths}, which is why
    a balanced vertex (q = p) suppresses the top exponential order of det A.
    """
    at = incidence(graph)[v]
    mat = assemble(graph, flip_edges=[e for e in at.ends if graph.edges[e].tail == v])
    rows = ([("continuity_lead", l, v) for l in at.leads]
            + [("continuity_head", e, v) for e in at.ends] + [("kirchhoff", v)])
    cols = ([("lead", l) for l in at.leads] + [("tail", e) for e in at.ends]
            + [("vertex", v)])
    return mat.submatrix_determinant(map(mat.row_labels.index, rows),
                                     map(mat.col_labels.index, cols))
