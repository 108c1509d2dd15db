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
or a constant.  The expansion first removes every constant +-1 entry by
exact integer elimination, which leaves a Schur complement of about E rows
whose entries are integer Laurent polynomials in the edge phases
z_e = e^{ik rho_e}.  It interpolates that on the grid of cube roots of unity
in the z_e and rounds the integer coefficients under an error certificate;
it is refused above CAPACITY or EDGE_CAPACITY.

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
# a grid keeping at most this many points takes LU on the whole minor, where
# eliminating costs more than the LU it saves: thread time on a 2-core x86_64
# host, with over without elimination, was 1.4-1.6 for E = 3 graphs (14 kept
# points), 0.95-1.2 for E = 4 (41) and 0.64-0.68 for E = 5 (122)
_DIRECT_POINTS = 64


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
        column).  Each column c is divided by the z^low_c of its lowest
        powers, which takes that factor out.  When the grid keeps more than
        _DIRECT_POINTS points, _eliminate then pivots out every constant +-1
        entry in integer arithmetic, leaving sign times the determinant of a
        Schur complement S of order n' (about E when assembled) whose entries
        are sums of monomials; on a smaller grid S is the minor itself.  S is
        evaluated by batched LU on the grid of N_e-th roots of unity, one
        unit-table lookup per monomial; an N_e-point DFT per axis gives the
        coefficients, rounded to the integers they are.  The coefficients are
        real integers, so the value at the grid point -t mod N is the
        conjugate of the value at t: LU runs on one point of each conjugate
        pair and on the self-conjugate points, (points + 1) / 2 of them on a
        3^E grid.  self.certificate then holds the sizes n and n', the grid
        points, the LU matrices, the bound and the observed error below.

        Certificate: on the grid |z_e| = 1, so an entry of S is at most the
        sum of its coefficients' moduli; the product H of the column norms
        of those sums bounds det S and its cofactors (Hadamard).  An entry
        of t monomials costs t - 1 roundings more than a single lookup, and
        LU with partial pivoting returns det(S + dS)(1 + n' eps), |dS_c| <=
        (g n' + t_c) eps |S_c| for pivot growth g and t_c such roundings in
        column c, so by multilinearity a value is off by <= H(prod_c (1 +
        (g n' + t_c) eps) - 1) ~ (g n'^2 + T) eps H, T being the monomials
        beyond the first of each entry, and so is its conjugate, which is
        the value at the mirror point; the DFT averages these and adds
        ~log2(points) eps H.  CapacityError is raised unless bound =
        CERT_SLACK eps H (n'^2 + T + log2(points) + 1), CERT_SLACK covering g
        and the constants, is < 1/4 before the evaluation and covers the
        observed max(|Re c - round(Re c)|, |Im c|) after it; LU on the whole
        minor has T = 0.  This error model trusts LAPACK's pivot growth; the
        observed check catches a breach.
        """
        rows, cols = list(rows), list(cols)
        if len(rows) != len(cols):
            raise ValueError("submatrix must be square, got %d rows and %d "
                             "columns" % (len(rows), len(cols)))
        n, m = len(rows), len(self.lengths)
        check_capacity(n)
        self.certificate = {"size": n, "reduced": n, "points": 0, "lu_matrices": 0,
                            "bound": 0.0, "error": 0.0}
        if n == 0:
            return ExpPolynomial.constant(self.lengths, 1)
        rowpos = {r: i for i, r in enumerate(rows)}
        zero = (0,) * m
        entries = [(rowpos[r], j, coef, delta or zero) for j, c in enumerate(cols)
                   for r, coef, delta in self.columns[c] if r in rowpos]
        i, j, coef, power = zip(*entries) if entries else ((),) * 4
        starts = [s for s in range(len(j)) if not s or j[s] != j[s - 1]]
        if len(starts) < n:  # an empty column
            return ExpPolynomial.zero(self.lengths)
        coef = np.array(coef)
        if not np.all(coef == np.rint(coef.real)):
            raise ValueError("entry coefficients must be integers")
        power = np.array(power, dtype=int).reshape(len(entries), m)
        low = np.minimum.reduceat(power, starts)
        lo, size = low.sum(axis=0), np.maximum.reduceat(power, starts).sum(axis=0) + 1
        size -= lo
        if np.count_nonzero(size > 1) > EDGE_CAPACITY:
            raise CapacityError("more than %d edges vary in the minor" % EDGE_CAPACITY)
        shape = tuple(size.tolist()) or (1,)  # no edges: one grid point
        points = math.prod(shape)
        # mirror[t] is the flat index of -t mod N; LU runs on the points kept
        mirror = np.arange(points).reshape(shape)[
            np.ix_(*(-np.arange(s) % s for s in shape))].ravel()
        kept = np.flatnonzero(np.arange(points) <= mirror)
        power -= low[np.array(j)]
        if len(kept) > _DIRECT_POINTS:
            sign, order, (i, j, coef, power, starts) = _eliminate(
                n, zip(i, j, coef.real.astype(int).tolist()), power, int(size.max(initial=1)))
        else:  # LU on the minor: each entry is one monomial
            sign, order, i, j, starts = 1, n, np.array(i), np.array(j), np.arange(len(j))
        sums = np.add.reduceat(abs(coef), starts) if coef.size else coef
        hadamard = math.prod(np.sqrt(np.bincount(j, sums ** 2)).tolist())
        bound = CERT_SLACK * _EPS * hadamard * (order * order + coef.size - len(starts)
                                                 + math.log2(points) + 1)
        if not bound < 0.25:
            raise CapacityError("rounding bound %.3g is not below 1/4" % bound)
        # z_e^p at grid index t_e is unit[p t_e period / N_e mod period]
        period = math.lcm(*shape)
        unit = np.exp(2j * np.pi * np.arange(period) / period)
        phase = power * (period // size)
        values = np.empty(points, dtype=complex)
        for start in range(0, kept.size, _CHUNK):
            index = kept[start:start + _CHUNK]
            grid = np.array(np.unravel_index(index, shape))[:m]
            batch = np.zeros((len(index), order, order), dtype=complex)
            if coef.size:
                terms = coef[:, None] * unit[phase @ grid % period]
                batch[:, i, j] = np.add.reduceat(terms, starts).T
            values[index] = np.linalg.det(batch)
        paired = kept[kept < mirror[kept]]
        values[mirror[paired]] = np.conj(values[paired])
        coefs = np.fft.fftn(values.reshape(shape)) / (sign * points)
        rounded = np.rint(coefs.real)
        error = max(np.abs(coefs.real - rounded).max(), np.abs(coefs.imag).max())
        self.certificate.update(reduced=order, points=points, lu_matrices=kept.size,
                                bound=float(bound), error=float(error))
        if not error <= bound:
            raise CapacityError("rounding error %.3g exceeds its bound %.3g"
                                % (error, bound))
        exponents = map(tuple, (lo + np.argwhere(rounded)[:, :m]).tolist())
        found = rounded[rounded != 0].astype(int).tolist()
        return ExpPolynomial(self.lengths, dict(zip(exponents, found)))


def check_capacity(n):
    """Refuse a matrix of size n above CAPACITY."""
    if n > CAPACITY:
        raise CapacityError("matrix size %d exceeds capacity %d" % (n, CAPACITY))


def matrix_size(graph):
    """Size V + 2E + L of the vertex-condition matrix of graph."""
    return graph.n_vertices + 2 * len(graph.edges) + len(graph.leads)


def _eliminate(n, entries, power, size):
    """Remove every constant +-1 entry of an n-square minor by exact elimination.

    entries gives (row, col, coef) of each nonzero entry coef z^power[q] of
    the minor, with powers >= 0 and every minor of degree < size in each z_e.
    A row is held as {col: polynomial}, a polynomial as {key: coef}, the
    integer key packing the exponent vector in digits below 2 size, so that
    adding keys multiplies monomials.  The pivot is the constant +-1 entry of
    least fill, the Markowitz cost (r - 1)(c - 1) for r and c entries in its
    row and column, ties going to the first row, then column.  Every entry of
    the Schur complement on +-1 pivots is a minor, and an update adds the
    product of two, all in integer arithmetic.  The minor's determinant is
    sign times that of the Schur complement left, returned as its order and
    the arrays (row, col, coef, power, starts) of its monomials, grouped by
    entry in row-major order, starts[q] being the first monomial of entry q.
    """
    m, bits = power.shape[1], (2 * size - 2).bit_length()
    big = np.int64 if bits * m < 63 else object
    shifts = np.array([bits * e for e in range(m)], dtype=big)
    keys = (power.astype(big) << shifts).sum(axis=1).tolist()
    rows = [{} for _ in range(n)]
    held = [set() for _ in range(n)]  # the rows with an entry in each column
    units = set()  # (row, col) of the constant +-1 entries
    for (r, c, a), key in zip(entries, keys):
        rows[r][c] = {key: a}
        held[c].add(r)
        if not key and a * a == 1:
            units.add((r, c))
    live_rows, live_cols, sign = list(range(n)), list(range(n)), 1
    while units:
        _, r, c = min([((len(rows[i]) - 1) * (len(held[j]) - 1), i, j) for i, j in units])
        top, below = rows[r], held[c]
        pivot = top.pop(c)[0]
        below.discard(r)
        for j in top:
            held[j].discard(r)
            units.discard((r, j))
        units.discard((r, c))
        spot, col = live_rows.index(r), live_cols.index(c)
        sign *= -pivot if (spot + col) % 2 else pivot
        del live_rows[spot], live_cols[col]
        for i in below:
            units.discard((i, c))
            row = rows[i]
            factor = [(k, a * pivot) for k, a in row.pop(c).items()]
            for j, q in top.items():
                entry = row.get(j)
                if entry is None:
                    entry = row[j] = {}
                    held[j].add(i)
                for k1, a1 in factor:
                    for k2, a2 in q.items():
                        k = k1 + k2
                        a = entry.get(k, 0) - a1 * a2
                        if a:
                            entry[k] = a
                        else:
                            del entry[k]
                if not entry:
                    del row[j]
                    held[j].discard(i)
                    units.discard((i, j))
                elif len(entry) == 1 and entry.get(0) in (1, -1):
                    units.add((i, j))
                else:
                    units.discard((i, j))
    spots = {c: b for b, c in enumerate(live_cols)}
    places, keys, coefs, starts = [], [], [], []
    for a, r in enumerate(live_rows):
        for c, poly in sorted(rows[r].items()):
            places.append((a, spots[c]))
            starts.append(len(keys))
            keys += poly
            coefs += poly.values()
    power = (np.array(keys, dtype=big).reshape(-1, 1) >> shifts) & ((1 << bits) - 1)
    i, j = np.array(places, dtype=int).reshape(-1, 2).T
    return sign, len(live_rows), (i, j, np.array(coefs, dtype=float),
                                  power.astype(int).reshape(len(coefs), m), starts)


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

    n = matrix_size(graph)
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
