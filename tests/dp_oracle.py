"""Small-graph oracle for the determinant expansion: the column-by-column
dynamic program over row bitmasks that qgraph used before it switched to
interpolation on the edge-phase torus.

Its cost grows with the number of row subsets, so it is only fit for the
small graphs of the test suite.  All coefficient arithmetic is integer, so
its result is exact and independent of the floating-point kernel it checks.
"""

from qgraph.exppoly import ExpPolynomial


def dp_submatrix_determinant(mat, rows, cols):
    """Exact expansion of the minor of the ConstraintMatrix mat on (rows,
    cols).

    The state after j columns maps a row bitmask of popcount j to the
    accumulated polynomial.  Placing row r on the next column multiplies the
    sign by (-1)^(number of already-used rows above r).
    """
    rows = list(rows)
    cols = list(cols)
    assert len(rows) == len(cols), "submatrix must be square"
    n = len(rows)
    m = len(mat.lengths)
    zero_vec = (0,) * m
    if n == 0:
        return ExpPolynomial.constant(mat.lengths, 1)
    rowpos = {r: i for i, r in enumerate(rows)}
    states = {0: {zero_vec: 1}}
    for c in cols:
        support = [(rowpos[r], coef, delta) for r, coef, delta in mat.columns[c]
                   if r in rowpos]
        new = {}
        for mask, terms in states.items():
            for i, coef, delta in support:
                bit = 1 << i
                if mask & bit:
                    continue
                sign = -1 if ((mask >> (i + 1)).bit_count() & 1) else 1
                sc = sign * coef
                target = new.setdefault(mask | bit, {})
                if delta is None:
                    for vec, a in terms.items():
                        target[vec] = target.get(vec, 0) + sc * a
                else:
                    for vec, a in terms.items():
                        nv = tuple(x + y for x, y in zip(vec, delta))
                        target[nv] = target.get(nv, 0) + sc * a
        states = new
        if not states:
            break
    full = (1 << n) - 1
    return ExpPolynomial(mat.lengths, states.get(full, {}))


def dp_determinant(mat):
    return dp_submatrix_determinant(mat, range(mat.n), range(mat.n))
