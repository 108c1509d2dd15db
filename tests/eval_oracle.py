"""The per-term evaluation loops, kept as a test oracle.

These are ExpPolynomial.eval and eval_pair, and rootfind's noise floor, as
they ran before the array path became one term-stacked kernel: a loop over
the terms in dump order (the noise floor: in ``terms`` order) with a few
numpy calls per term.  The kernel must return the same values, bit for bit.
"""

import numpy as np


def _table(p):
    return tuple((p.terms[vec], p.sigma_of(vec)) for vec in sorted(p.terms))


def eval(p, k):
    """Evaluate at a complex point or ndarray of points.

    Terms are accumulated in the fixed dump order with Kahan compensation
    so the result is independent of dict insertion history.
    """
    karr = np.asarray(k, dtype=complex)
    total = np.zeros(karr.shape, dtype=complex)
    comp = np.zeros(karr.shape, dtype=complex)
    for a, s in _table(p):
        term = a * np.exp(1j * s * karr)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    if karr.shape == ():
        return complex(total)
    return total


def eval_pair(p, k):
    """(p(k), p'(k)) from one exp(i*sigma*k) per term."""
    karr = np.asarray(k, dtype=complex)
    total = np.zeros(karr.shape, dtype=complex)
    comp = np.zeros(karr.shape, dtype=complex)
    dtotal = np.zeros(karr.shape, dtype=complex)
    dcomp = np.zeros(karr.shape, dtype=complex)
    for a, s in _table(p):
        e = np.exp(1j * s * karr)
        y = a * e - comp
        t = total + y
        comp = (t - total) - y
        total = t
        y = (a * (1j * s)) * e - dcomp
        t = dtotal + y
        dcomp = (t - dtotal) - y
        dtotal = t
    if karr.shape == ():
        return complex(total), complex(dtotal)
    return total, dtotal


def noise_floor(p, cells):
    """Magnitude below which evaluations of p on each cell are dominated by
    floating-point error: eps times the sum of the individual term sizes.
    """
    y0 = np.array([cell[2] for cell in cells], dtype=float)
    y1 = np.array([cell[3] for cell in cells], dtype=float)
    m = np.zeros(len(cells))
    for vec, a in p.terms.items():
        s = p.sigma_of(vec)
        m += abs(a) * np.maximum(np.exp(-s * y0), np.exp(-s * y1))
    return 2.2e-16 * m
