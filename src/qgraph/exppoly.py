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

import numpy as np

# relative threshold below which a complex coefficient is treated as a
# cancellation artifact and dropped
PRUNE_REL = 1e-14


class ExpPolynomial:
    """Sum of terms a * exp(i*k*(n . lengths)) keyed by integer vector n.

    A polynomial is a value: ``terms`` is frozen after ``__init__``, which
    caches the (coefficient, frequency) table in dump order that every
    evaluation walks.  Build a new polynomial instead of editing ``terms``.
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
        self._table = tuple((self.terms[vec], self.sigma_of(vec))
                            for vec in sorted(self.terms))

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

    def eval(self, k):
        """Evaluate at a complex point or ndarray of points.

        Terms are accumulated in the fixed dump order with Neumaier
        compensation so the result is independent of dict insertion history.
        """
        karr = np.asarray(k, dtype=complex)
        total = np.zeros(karr.shape, dtype=complex)
        comp = np.zeros(karr.shape, dtype=complex)
        for a, s in self._table:
            term = a * np.exp(1j * s * karr)
            y = term - comp
            t = total + y
            comp = (t - total) - y
            total = t
        if karr.shape == ():
            return complex(total)
        return total

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
        total = np.zeros(karr.shape, dtype=complex)
        comp = np.zeros(karr.shape, dtype=complex)
        dtotal = np.zeros(karr.shape, dtype=complex)
        dcomp = np.zeros(karr.shape, dtype=complex)
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
        if karr.shape == ():
            return complex(total), complex(dtotal)
        return total, dtotal

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

