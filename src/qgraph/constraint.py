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
or a constant.  The expansion is exact, in integer arithmetic throughout: it
first removes every constant +-1 entry by elimination, which leaves a Schur
complement of about E + 1 rows whose entries are integer polynomials in the
edge phases z_e = e^{ik rho_e}, then sums that complement's permutations
column by column over row bitmasks.  It is refused above CAPACITY or
EDGE_CAPACITY.

Row and column orders are fixed once and for all, so det A has one
well-defined sign.  Columns: vertex values, tail coefficients, head
coefficients, lead amplitudes, each block by id.  Rows: first, vertex by
vertex, the continuity rows, edge ends in edge order and then leads; last,
all balance rows, the one of vertex v being row 2E + L + v.
"""

import math

from .errors import CapacityError
from .exppoly import ExpPolynomial
from .graph import incidence, require_valid

CAPACITY = 32  # matrix size bound of the expansion
# bound on the edges that vary in a minor, a bound on the work of the
# elimination and of the DP on the Schur complement it leaves (about E + 1
# rows when assembled): of 260 seeded multigraphs with 10 edges and up to 32
# rows, 100 with edges flipped, none took over 0.29 s of thread time on a
# 2-core x86_64 host
EDGE_CAPACITY = 10


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
        import numpy as np
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
        column).  Each column is divided by the z-monomial of its lowest
        powers, which takes that factor out, and _eliminate pivots out every
        constant +-1 entry in integer arithmetic, leaving sign times the
        determinant of a Schur complement of order n' (about E + 1 when
        assembled) whose entries are integer polynomials.  _expand sums its
        permutations column by column over row bitmasks, all in integer
        arithmetic, so the coefficients are exact.  self.sizes then holds the
        orders n and n'.  The terms come out sorted by exponent vector.
        """
        rows, cols = list(rows), list(cols)
        if len(rows) != len(cols):
            raise ValueError("submatrix must be square, got %d rows and %d "
                             "columns" % (len(rows), len(cols)))
        n, m = len(rows), len(self.lengths)
        check_capacity(n)
        self.sizes = {"size": n, "reduced": n}
        rowpos = {r: i for i, r in enumerate(rows)}
        zero = (0,) * m
        minor = [[(rowpos[r], coef, delta or zero) for r, coef, delta in self.columns[c]
                  if r in rowpos] for c in cols]
        if not all(minor):  # an empty column
            return ExpPolynomial.zero(self.lengths)
        if not all(math.isfinite(a.real) and a == round(a.real)
                   for col in minor for _, a, _ in col):
            raise ValueError("entry coefficients must be integers")
        low = [list(map(min, zip(*(p for _, _, p in col)))) for col in minor]
        high = [list(map(max, zip(*(p for _, _, p in col)))) for col in minor]
        lo = [sum(c[e] for c in low) for e in range(m)]
        size = [sum(c[e] for c in high) - lo[e] + 1 for e in range(m)]
        if sum(s > 1 for s in size) > EDGE_CAPACITY:
            raise CapacityError("more than %d edges vary in the minor" % EDGE_CAPACITY)
        # key k stands for t^k under z_e -> t^(2^(bits e)), a ring map, so
        # adding keys multiplies monomials; every minor has z_e-degree below
        # N_e <= 2^bits, so its keys are distinct and decode digit by digit
        bits = (max(size, default=1) - 1).bit_length()
        shifts = [bits * e for e in range(m)]
        entries = [(i, j, int(a.real), sum((p - b) << s for p, b, s in zip(power, low[j], shifts)))
                   for j, col in enumerate(minor) for i, a, power in col if a]
        sign, schur, order = _eliminate(n, entries)
        self.sizes["reduced"] = len(order)
        digit = (1 << bits) - 1
        found = sorted((tuple(b + (key >> s & digit) for b, s in zip(lo, shifts)), sign * a)
                       for key, a in _expand(schur, order).items())
        return ExpPolynomial(self.lengths, dict(found))


def check_capacity(n):
    """Refuse a matrix of size n above CAPACITY."""
    if n > CAPACITY:
        raise CapacityError("matrix size %d exceeds capacity %d" % (n, CAPACITY))


def matrix_size(graph):
    """Size V + 2E + L of the vertex-condition matrix of graph."""
    return graph.n_vertices + 2 * len(graph.edges) + len(graph.leads)


def _eliminate(n, entries):
    """Remove every constant +-1 entry of an n-square minor by exact elimination.

    entries gives (row, col, coef, key) of each nonzero entry coef z^key of
    the minor, the integer key packing an exponent vector as in
    submatrix_determinant.  A row is held as {col: polynomial}, a polynomial
    as {key: coef}.  The pivot is the constant +-1 entry of least fill, the
    Markowitz cost (r - 1)(c - 1) for r and c entries in its row and column,
    ties going to the first row, then column.  Every entry of the Schur
    complement on +-1 pivots is a minor, and an update adds the product of
    two, all in integer arithmetic.  Returns sign, the rows left and the
    columns left, both in their order in the minor, whose determinant is
    sign times that of the Schur complement they hold.
    """
    rows = [{} for _ in range(n)]
    held = [set() for _ in range(n)]  # the rows with an entry in each column
    units = set()  # (row, col) of the constant +-1 entries
    for r, c, a, key in entries:
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
    return sign, [rows[r] for r in live_rows], live_cols


def _expand(rows, cols):
    """Determinant of the matrix rows[a][cols[b]], as {key: coef}.

    Column by column, a state maps the bitmask of the rows used so far to
    the minor on them and the columns done, a polynomial; placing row a in
    the next column multiplies its term by the entry and by (-1)^(the used
    rows below a).
    """
    states = {0: {0: 1}}
    for c in cols:
        support = [(1 << a, -2 << a, row[c]) for a, row in enumerate(rows) if c in row]
        new = {}
        for mask, poly in states.items():
            for bit, below, entry in support:
                if mask & bit:
                    continue
                target = new.setdefault(mask | bit, {})
                odd = (mask & below).bit_count() & 1
                for k1, a1 in poly.items():
                    if odd:
                        a1 = -a1
                    for k2, a2 in entry.items():
                        k = k1 + k2
                        target[k] = target.get(k, 0) + a1 * a2
        states = {}
        for mask, poly in new.items():
            poly = {k: a for k, a in poly.items() if a}
            if poly:
                states[mask] = poly
    return states.get((1 << len(rows)) - 1, {})


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
