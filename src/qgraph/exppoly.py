"""Exponential polynomials with frequencies taken from a shared length table.

An exponential polynomial here is a finite sum

    p(k) = sum_r a_r * exp(i * k * sigma_r),

where every frequency sigma_r is an integer combination n . lengths of a fixed
table of positive reals (the edge lengths of a graph).  Terms are stored as a
dict mapping the integer exponent vector to its coefficient, so frequencies are
never rounded: two terms collide exactly when their integer vectors are equal.

Coefficients are kept as Python ints while they stay integral (the determinant
expansion of a constraint matrix is integer in the half-length variables) and
become complex as soon as any operand does.
"""

import functools
import math

import numpy as np

# relative threshold below which a complex coefficient is treated as a
# cancellation artifact and dropped
PRUNE_REL = 1e-14

# term x point entries in one block of the array kernel: bounds its transient
# arrays (about 1.5 MiB for value and derivative) whatever the point count
_BLOCK_ENTRIES = 1 << 15

# a block of at most this many lanes (rows x points) is summed lane by lane in
# Python complex arithmetic: about 0.16 us per lane and term, against about
# 1.7 us per term for the four ufunc calls of the stacked sum up to 16 lanes
# (84 terms, 2-core x86_64 host), so the crossover is near 10 lanes
_LANE_LIMIT = 8


def _block_sums(isig, coef, kb):
    """The (rows, points) Kahan sums of one block of ExpPolynomial._array_sums.

    The terms coef * exp(isig k) are formed in numpy.  Each step
    y = term - comp, t = total + y, comp = (t - total) - y, total = t then
    runs either per lane on Python complex values, for a block of at most
    _LANE_LIMIT lanes, or on the stacked (rows, points) accumulators.  Both
    do only complex adds and subtracts, componentwise IEEE double operations,
    so they give the same bits.  The stacked sum holds y in comp's buffer and
    t - total in total's, each after its old value was last read; its
    transient arrays are freed on return, before the next block's are made.
    """
    terms = coef * np.exp(np.multiply.outer(isig, kb))[:, None, :]
    shape = (coef.shape[1], kb.size)
    lanes = shape[0] * shape[1]
    if lanes <= _LANE_LIMIT:
        sums = [_lane_sum(lane) for lane in terms.reshape(isig.size, lanes).T.tolist()]
        return np.array(sums, dtype=complex).reshape(shape)
    total = np.zeros(shape, dtype=complex)
    comp = np.zeros(shape, dtype=complex)
    t = np.empty(shape, dtype=complex)
    for term in terms:
        np.subtract(term, comp, out=comp)
        np.add(total, comp, out=t)
        np.subtract(t, total, out=total)
        np.subtract(total, comp, out=comp)
        total, t = t, total
    return total


def _lane_sum(terms):
    """The Kahan sum of one lane's terms, in order, as _block_sums runs it."""
    total = comp = 0j
    for term in terms:
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


class ExpPolynomial:
    """Sum of terms a * exp(i*k*(n . lengths)) keyed by integer vector n.

    A polynomial is a value: ``terms`` is frozen after ``__init__``.  The
    first evaluation caches the term table in dump order and the kernel's
    arrays, so building a polynomial does not pay for them.  Build a new
    polynomial instead of editing ``terms``.
    """

    def __init__(self, lengths, terms=None):
        self.lengths = tuple(float(x) for x in lengths)
        m = len(self.lengths)
        self.terms = {}
        if terms:
            for vec, a in terms.items():
                vec = tuple(int(n) for n in vec)
                if len(vec) != m:
                    raise ValueError("exponent vector %r does not match a table of "
                                     "%d lengths" % (vec, m))
                if a != 0:
                    self.terms[vec] = self.terms.get(vec, 0) + a
        self._prune()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def zero(cls, lengths):
        return cls(lengths, {})

    @classmethod
    def constant(cls, lengths, a):
        return cls(lengths, {(0,) * len(tuple(lengths)): a})

    @classmethod
    def monomial(cls, lengths, vec, a=1):
        return cls(lengths, {tuple(vec): a})

    # -- ring operations ------------------------------------------------------

    def _check_table(self, other):
        if self.lengths != other.lengths:
            raise ValueError("length tables differ: %r and %r"
                             % (self.lengths, other.lengths))

    def __add__(self, other):
        if not isinstance(other, ExpPolynomial):
            return NotImplemented
        self._check_table(other)
        out = dict(self.terms)
        for vec, a in other.terms.items():
            out[vec] = out.get(vec, 0) + a
        return ExpPolynomial(self.lengths, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return ExpPolynomial(self.lengths, {v: -a for v, a in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ExpPolynomial):
            self._check_table(other)
            out = {}
            for v1, a1 in self.terms.items():
                for v2, a2 in other.terms.items():
                    v = tuple(x + y for x, y in zip(v1, v2))
                    out[v] = out.get(v, 0) + a1 * a2
            return ExpPolynomial(self.lengths, out)
        if isinstance(other, (int, float, complex)):
            return ExpPolynomial(self.lengths, {v: a * other for v, a in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def _prune(self):
        # exact-zero integers are already skipped on insert; the relative
        # threshold only applies once inexact coefficients are involved
        if not self.terms:
            return
        self.terms = {v: a for v, a in self.terms.items() if a != 0}
        if not self.terms:
            return
        if any(isinstance(a, (float, complex)) for a in self.terms.values()):
            top = max(abs(a) for a in self.terms.values())
            self.terms = {v: a for v, a in self.terms.items() if abs(a) > PRUNE_REL * top}

    # -- analytic queries -----------------------------------------------------

    def sigma_of(self, vec):
        """Real frequency n . lengths of one exponent vector."""
        return sum(n * L for n, L in zip(vec, self.lengths))

    def is_zero(self):
        return not self.terms

    @functools.cached_property
    def _table(self):
        """(coefficient, frequency) of every term, in dump order."""
        return tuple((self.terms[vec], self.sigma_of(vec)) for vec in sorted(self.terms))

    @functools.cached_property
    def _stack(self):
        """The array kernel's operands, in dump order: the factors i*sigma,
        shape (terms,), and the coefficients [a, a * (i sigma)] of the value
        and derivative terms, shape (terms, 2, 1)."""
        isig = [1j * s for _, s in self._table]
        coef = np.array([[a, a * w] for (a, _), w in zip(self._table, isig)], dtype=complex)
        return np.array(isig, dtype=complex), coef.reshape(-1, 2, 1)

    @functools.cached_property
    def size_table(self):
        """(sigma_r, |a_r|) as float arrays in ``terms`` order, so that
        a sum over them runs in the order of a loop over ``terms``; the size
        of term r at k is |a_r| e^{-sigma_r Im k}."""
        sigmas = [self.sigma_of(vec) for vec in self.terms]
        return (np.array(sigmas, dtype=float),
                np.array([abs(a) for a in self.terms.values()], dtype=float))

    @functools.cached_property
    def origin_order(self):
        """(m, c_m): the order m of the zero of p at k = 0 and its Taylor
        coefficient c_m = sum_r a_r sigma_r^m, p(k) being
        sum_j c_j (i k)^j / j!.

        Exact: every length and every part of a coefficient is an integer
        times a power of two (float.as_integer_ratio), so over common
        denominators each c_j is a Gaussian integer, summed in Python ints;
        only c_m is rounded, once.  (0, 0j) when p vanishes identically
        (its terms cancel frequency by frequency) or a coefficient is not
        finite.
        """
        lens = [L.as_integer_ratio() for L in self.lengths]
        dl = max((d for _, d in lens), default=1)
        ls = [n * (dl // d) for n, d in lens]
        parts = []
        for vec, a in self.terms.items():
            if isinstance(a, int):
                re, im = (a, 1), (0, 1)
            else:
                a = complex(a)
                if not (math.isfinite(a.real) and math.isfinite(a.imag)):
                    return 0, 0j
                re, im = a.real.as_integer_ratio(), a.imag.as_integer_ratio()
            parts.append((sum(n * L for n, L in zip(vec, ls)), re, im))
        da = max((max(re[1], im[1]) for _, re, im in parts), default=1)
        sig = [s for s, _, _ in parts]
        # a_r sigma_r^m, times da dl^m
        re = [n * (da // d) for _, (n, d), _ in parts]
        im = [n * (da // d) for _, _, (n, d) in parts]
        # the sums vanish for every m below the count of distinct
        # frequencies only when every frequency's coefficients cancel
        for m in range(len(set(sig))):
            sr, si = sum(re), sum(im)
            if sr or si:
                den = da * dl ** m
                return m, complex(sr / den, si / den)
            re = [a * s for a, s in zip(re, sig)]
            im = [a * s for a, s in zip(im, sig)]
        return 0, 0j

    def _scalar_pair(self, karr):
        """(p, p') at a 0-d point by a loop over the terms."""
        total = comp = dtotal = dcomp = np.zeros((), dtype=complex)
        for a, s in self._table:
            e = np.exp(1j * s * karr)
            y = a * e - comp
            t = total + y
            comp = (t - total) - y
            total = t
            y = (a * (1j * s)) * e - dcomp
            t = dtotal + y
            dcomp = (t - dtotal) - y
            dtotal = t
        return complex(total), complex(dtotal)

    def _array_sums(self, karr, rows):
        """The first `rows` of [p, p'] at every point of karr, as a (rows,
        points) array, by the term-stacked kernel.

        Points go in blocks of at most _BLOCK_ENTRIES // terms.  A block
        takes one exp over its (terms, points) phases and one product with
        the coefficients; then the term rows are added in dump order with
        Kahan compensation, value and derivative together: lane by lane in
        Python for a block of at most _LANE_LIMIT lanes (rows x points),
        else in one (rows, points) accumulator.
        """
        flat = karr.ravel()
        isig, coef = self._stack
        coef = coef[:, :rows]
        step = max(1, _BLOCK_ENTRIES // max(1, isig.size))
        blocks = [_block_sums(isig, coef, flat[lo:lo + step])
                  for lo in range(0, max(1, flat.size), step)]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)

    def eval(self, k):
        """Evaluate at a complex point or ndarray of points.

        Terms are accumulated in the fixed dump order with Kahan compensation
        so the result is independent of dict insertion history.
        """
        karr = np.asarray(k, dtype=complex)
        if karr.shape == ():
            return self._scalar_pair(karr)[0]
        return self._array_sums(karr, 1)[0].reshape(karr.shape)

    def eval_derivative(self, k):
        """Evaluate dp/dk; each term picks up a factor i*sigma."""
        return self.eval_pair(k)[1]

    def eval_pair(self, k):
        """(p(k), p'(k)) from one exp(i*sigma*k) per term.

        Each sum runs in the same order and with the same compensation as
        eval, so p is bit-identical to eval(k) and p' to a separate sum of
        the derivative terms a * (i sigma) * exp(i sigma k).
        """
        karr = np.asarray(k, dtype=complex)
        if karr.shape == ():
            return self._scalar_pair(karr)
        vals = self._array_sums(karr, 2)
        return vals[0].reshape(karr.shape), vals[1].reshape(karr.shape)

    def sigma_range(self):
        """(smallest, largest) frequency present in the sum."""
        if not self.terms:
            raise ValueError("zero polynomial has no frequencies")
        sigmas = [s for _, s in self._table]
        return min(sigmas), max(sigmas)

    def extreme_coefficients(self):
        """Coefficients at the all-minus-one and all-plus-one exponent
        vectors, zero when absent.

        For the determinant of a graph matrix these are the weights of
        e^{-ik vol} and e^{+ik vol}; the latter vanishing is exactly the
        balanced-vertex (non-Weyl) situation.
        """
        m = len(self.lengths)
        return self.terms.get((-1,) * m, 0), self.terms.get((1,) * m, 0)

    # -- serialization --------------------------------------------------------

    def dump(self):
        """Stable text form: one `n_1 ... n_m : re(a) im(a)` line per term,
        sorted lexicographically by exponent vector."""
        lines = []
        for vec in sorted(self.terms):
            a = complex(self.terms[vec])
            head = " ".join(str(n) for n in vec)
            lines.append("%s : %r %r" % (head, a.real, a.imag))
        return "\n".join(lines)

    def __eq__(self, other):
        return (isinstance(other, ExpPolynomial)
                and self.lengths == other.lengths
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.lengths, frozenset(self.terms.items())))

    def __repr__(self):
        return "ExpPolynomial(lengths=%r, terms=%r)" % (self.lengths, self.terms)

