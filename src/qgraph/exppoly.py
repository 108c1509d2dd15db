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

import numpy as np

# relative threshold below which a complex coefficient is treated as a
# cancellation artifact and dropped
PRUNE_REL = 1e-14

# term x point entries in one block of the array kernel: bounds its transient
# arrays (about 1.5 MiB for value and derivative) whatever the point count
_BLOCK_ENTRIES = 1 << 15


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
        Kahan compensation, value and derivative together in one (rows,
        points) accumulator.
        """
        flat = karr.ravel()
        isig, coef = self._stack
        coef = coef[:, :rows]
        step = max(1, _BLOCK_ENTRIES // max(1, isig.size))
        blocks = []
        for lo in range(0, max(1, flat.size), step):
            kb = flat[lo:lo + step]
            terms = coef * np.exp(np.multiply.outer(isig, kb))[:, None, :]
            shape = (rows, kb.size)
            total = np.zeros(shape, dtype=complex)
            comp = np.zeros(shape, dtype=complex)
            y = np.empty(shape, dtype=complex)
            t = np.empty(shape, dtype=complex)
            for term in terms:
                np.subtract(term, comp, out=y)
                np.add(total, y, out=t)
                np.subtract(t, total, out=comp)
                np.subtract(comp, y, out=comp)
                total, t = t, total
            blocks.append(total)
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

