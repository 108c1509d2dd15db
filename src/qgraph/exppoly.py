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

Building, multiplying and dumping a polynomial is plain Python; numpy loads
on the first evaluation (eval, eval_pair, size_table, strip_bound), so a
process that only expands and prints a determinant never imports it.
"""

import cmath
import functools
import math

from .errors import NonConvergenceError

# relative threshold below which a complex coefficient is treated as a
# cancellation artifact and dropped
PRUNE_REL = 1e-14

# term x point entries in one block of the array kernel: bounds its transient
# arrays (about 1.5 MiB for value and derivative) whatever the point count
_BLOCK_ENTRIES = 1 << 15

# a block of at most this many lanes (rows x points) is summed lane by lane in
# Python complex arithmetic: about 0.14-0.16 us per lane and term, against
# about 1.8-1.9 us per term for the four ufunc calls of the stacked sum at 16
# lanes (11 and 84 terms, thread time, 2-core x86_64 host), so the crossover
# is near 12 lanes before the lane path's fixed list conversions
_LANE_LIMIT = 8


def _block_sums(np, isig, coef, kb):
    """The (rows, points) Kahan sums of one block of ExpPolynomial._sums,
    which passes the numpy module it imported once per evaluation as np.

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
    for term in terms:  # out goes positionally, which numpy parses faster
        np.subtract(term, comp, comp)
        np.add(total, comp, t)
        np.subtract(t, total, total)
        np.subtract(total, comp, comp)
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
        if not all(map(math.isfinite, self.lengths)):
            raise ValueError("lengths must be finite, got %r" % (self.lengths,))
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
            for v, a in self.terms.items():
                if isinstance(a, (float, complex)) and not cmath.isfinite(a):
                    raise ValueError("coefficient %r at %r is not finite" % (a, v))
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
        import numpy as np
        isig = [1j * s for _, s in self._table]
        coef = np.array([[a, a * w] for (a, _), w in zip(self._table, isig)], dtype=complex)
        return np.array(isig, dtype=complex), coef.reshape(-1, 2, 1)

    @functools.cached_property
    def size_table(self):
        """(sigma_r, |a_r|) as float arrays in ``terms`` order, so that
        a sum over them runs in the order of a loop over ``terms``; the size
        of term r at k is |a_r| e^{-sigma_r Im k}."""
        import numpy as np
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
        (its terms cancel frequency by frequency).
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

    @functools.cached_property
    def strip_bound(self):
        """Height K of a horizontal strip |Im k| <= K certain to hold every
        zero.

        Terms are grouped by their (rounded) real frequency; outside the strip
        the extreme-frequency group dominates the sum of all the others in
        modulus, so p cannot vanish there.  The changeover height is found by
        bisection on the dominance inequality, separately below and above the
        real axis.  Cached like origin_order, so every radius counted on one
        polynomial shares it; the zero polynomial raises ValueError.
        """
        if self.is_zero():
            raise ValueError("zero polynomial")
        import numpy as np
        groups = {}
        for vec, a in self.terms.items():
            groups.setdefault(round(self.sigma_of(vec), 12), []).append(a)
        sums = {s: abs(sum(parts)) for s, parts in groups.items()}
        top = max(sums.values())
        sums = {s: m for s, m in sums.items() if m > 1e-14 * top}
        if len(sums) == 1:
            return 0.0
        sigmas = sorted(sums)

        def changeover(pairs):
            # pairs: [(gap<0 ... ), ...] dominance margin as a function of t
            ext_m = pairs[0][1]
            gaps, sizes = np.array(pairs[1:]).T

            def dominated(t):
                # accumulate adds left to right, where np.sum would add
                # pairwise: K keeps the bits of a plain loop over pairs
                return ext_m > np.add.accumulate(sizes * np.exp(gaps * t))[-1]

            hi = 1.0
            while not dominated(hi):
                hi *= 2.0
                if hi > 1e6:
                    raise NonConvergenceError("no dominance height below 1e6")
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if dominated(mid):
                    hi = mid
                else:
                    lo = mid
                if hi - lo <= 1e-12 * max(1.0, hi):
                    break
            return hi

        s_hi = sigmas[-1]
        below = [(0.0, sums[s_hi])] + [(s - s_hi, sums[s]) for s in sigmas[:-1]]
        s_lo = sigmas[0]
        above = [(0.0, sums[s_lo])] + [(s_lo - s, sums[s]) for s in sigmas[1:]]
        return max(changeover(below), changeover(above))

    def _sums(self, k, rows):
        """The first `rows` of [p, p'] at k, by the term-stacked kernel: each
        an ndarray shaped like k, or a Python complex for a single point.

        Points go in blocks of at most _BLOCK_ENTRIES // terms.  A block
        takes one exp over its (terms, points) phases and one product with
        the coefficients; then the term rows are added in dump order with
        Kahan compensation, value and derivative together: lane by lane in
        Python for a block of at most _LANE_LIMIT lanes (rows x points),
        else in one (rows, points) accumulator.  A single point is a block
        of one point, so it gets the bits of the same point in an array.
        """
        import numpy as np
        karr = np.asarray(k, dtype=complex)
        flat = karr.ravel()
        isig, coef = self._stack
        coef = coef[:, :rows]
        step = max(1, _BLOCK_ENTRIES // max(1, isig.size))
        blocks = [_block_sums(np, isig, coef, flat[lo:lo + step])
                  for lo in range(0, max(1, flat.size), step)]
        vals = blocks[0] if len(blocks) == 1 else np.concatenate(blocks, axis=1)
        if karr.shape == ():
            return [complex(v[0]) for v in vals]
        return [v.reshape(karr.shape) for v in vals]

    def eval(self, k):
        """Evaluate at a complex point or ndarray of points.

        Terms are accumulated in the fixed dump order with Kahan compensation
        so the result is independent of dict insertion history.  A single
        point gives a Python complex with the bits of the same point inside
        an array.
        """
        return self._sums(k, 1)[0]

    def eval_derivative(self, k):
        """Evaluate dp/dk; each term picks up a factor i*sigma."""
        return self.eval_pair(k)[1]

    def eval_pair(self, k):
        """(p(k), p'(k)) from one exp(i*sigma*k) per term.

        Each sum runs in the same order and with the same compensation as
        eval, so p is bit-identical to eval(k) and p' to a separate sum of
        the derivative terms a * (i sigma) * exp(i sigma k).  As in eval, a
        single point gives a pair of Python complex values.
        """
        return tuple(self._sums(k, 2))

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

