import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eval_oracle as oracle
from qgraph import exppoly
from qgraph.exppoly import ExpPolynomial

LOG3_OVER_PI = math.log(3.0) / math.pi


def _random_poly(rng, lengths, max_terms=5):
    terms = {}
    for _ in range(int(rng.integers(1, max_terms + 1))):
        vec = tuple(int(n) for n in rng.integers(-2, 3, size=len(lengths)))
        terms[vec] = complex(rng.normal(), rng.normal())
    return ExpPolynomial(lengths, terms)


def test_constructors():
    z = ExpPolynomial.zero((1.0, 2.0))
    assert z.is_zero()
    c = ExpPolynomial.constant((1.0, 2.0), 5)
    assert c.terms == {(0, 0): 5}
    m = ExpPolynomial.monomial((1.0,), (3,), a=-2)
    assert m.terms == {(3,): -2}
    assert m.sigma_of((3,)) == 3.0


def test_ring_laws_pointwise():
    """Associativity, commutativity, distributivity, checked by evaluation."""
    rng = np.random.default_rng(3)
    lengths = (0.7, 1.3)
    for _ in range(30):
        a = _random_poly(rng, lengths)
        b = _random_poly(rng, lengths)
        c = _random_poly(rng, lengths)
        k = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        ref = max(abs(a.eval(k)) * abs(b.eval(k)) + abs(c.eval(k)), 1.0)
        assert abs(((a + b) + c).eval(k) - (a + (b + c)).eval(k)) <= 1e-12 * ref
        assert abs((a * b).eval(k) - (b * a).eval(k)) <= 1e-12 * ref
        assert abs((a * (b + c)).eval(k) - (a * b + a * c).eval(k)) <= 1e-12 * ref
        assert abs((a * b).eval(k) - a.eval(k) * b.eval(k)) <= 1e-12 * ref


def test_exact_cancellation():
    rng = np.random.default_rng(4)
    for _ in range(20):
        p = _random_poly(rng, (1.0, 0.5))
        assert (p - p).is_zero()
        assert (p + (-p)).is_zero()


def test_integer_coefficients_stay_integer():
    p = ExpPolynomial((1.0,), {(1,): 2, (0,): -3})
    q = ExpPolynomial((1.0,), {(-1,): 5, (1,): 1})
    out = p * q + p
    assert all(isinstance(a, int) for a in out.terms.values())


def test_scalar_multiplication():
    p = ExpPolynomial((1.0,), {(1,): 2, (0,): -3})
    assert (3 * p).terms == {(1,): 6, (0,): -9}
    assert (p * 0).is_zero()


def test_table_mismatch_rejected():
    p = ExpPolynomial((1.0,), {(1,): 1})
    q = ExpPolynomial((2.0,), {(1,): 1})
    with pytest.raises(ValueError):
        p + q
    with pytest.raises(ValueError):
        p * q
    with pytest.raises(ValueError, match="does not match"):
        ExpPolynomial((1.0,), {(1, 2): 1})


def test_eval_vectorized_matches_scalar():
    """A single point goes through the array kernel, so it gets the bits of
    the same point inside an array."""
    rng = np.random.default_rng(5)
    p = _random_poly(rng, (0.9, 1.7))
    ks = rng.uniform(-3, 3, 8) + 1j * rng.uniform(-1, 1, 8)
    vec = p.eval(ks)
    dvec = p.eval_derivative(ks)
    for i, k in enumerate(ks):
        assert _same_bits(p.eval(complex(k)), vec[i])
        assert _same_bits(p.eval_derivative(complex(k)), dvec[i])


def _derivative_reference(p, k):
    """dp/dk as a separate compensated sum with its own exp per term."""
    karr = np.asarray(k, dtype=complex)
    total = np.zeros(karr.shape, dtype=complex)
    comp = np.zeros(karr.shape, dtype=complex)
    for vec in sorted(p.terms):
        sigma = p.sigma_of(vec)
        term = p.terms[vec] * (1j * sigma) * np.exp(1j * sigma * karr)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def test_eval_pair_bit_equal_to_eval_and_derivative():
    """One shared exp per term gives exactly the separate sums, for integer
    and complex coefficients, on arrays and on scalars."""
    rng = np.random.default_rng(10)
    polys = [_random_poly(rng, (0.9, 1.7), max_terms=8) for _ in range(5)]
    polys.append(ExpPolynomial((1.0, 2.0), {(1, 1): 2, (-1, 0): -3, (0, 0): 7}))
    ks = rng.uniform(-30, 30, 400) + 1j * rng.uniform(-2, 2, 400)
    for p in polys:
        v, d = p.eval_pair(ks)
        assert np.array_equal(v, p.eval(ks))
        assert np.array_equal(d, _derivative_reference(p, ks))
        assert np.array_equal(d, p.eval_derivative(ks))
        for k in ks[:20].tolist():
            assert _same_bits(p.eval_pair(k), _oracle_at(oracle.eval_pair, p, k))
            assert _same_bits(p.eval_pair(k), (p.eval(k), p.eval_derivative(k)))
            assert type(p.eval_pair(k)[1]) is complex
    assert ExpPolynomial.zero((1.0,)).eval_pair(2.0) == (0j, 0j)


def test_eval_order_independent_and_accurate():
    """Same terms inserted in different orders give the bitwise same value,
    and the compensated sum tracks an fsum reference."""
    rng = np.random.default_rng(9)
    items = []
    for _ in range(40):
        vec = (int(rng.integers(-2, 3)), int(rng.integers(-2, 3)))
        items.append((vec, complex(rng.normal(), rng.normal())))
    terms = {}
    for vec, a in items:
        terms[vec] = terms.get(vec, 0) + a
    p = ExpPolynomial((0.8, 1.9), terms)
    q = ExpPolynomial((0.8, 1.9), dict(reversed(list(terms.items()))))
    for _ in range(10):
        k = complex(rng.uniform(-3, 3), rng.uniform(-1, 1))
        assert p.eval(k) == q.eval(k)
        parts = [a * np.exp(1j * p.sigma_of(v) * k) for v, a in p.terms.items()]
        ref = complex(math.fsum(x.real for x in parts),
                      math.fsum(x.imag for x in parts))
        assert abs(p.eval(k) - ref) <= 1e-15 * sum(abs(x) for x in parts)


def test_eval_against_product_form():
    """(i/2)(e^{ik pi} + 3)(1 - e^{-ik pi}) expanded by hand; the first table
    entry is degenerate at zero length, so those exponents are constants."""
    p = ExpPolynomial((0.0, math.pi),
                      {(1, 0): 0.5j, (-1, 0): 0.5j, (0, 1): 0.5j, (0, -1): -1.5j})
    rng = np.random.default_rng(6)
    for _ in range(20):
        k = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        want = 0.5j * (np.exp(1j * k * np.pi) + 3) * (1 - np.exp(-1j * k * np.pi))
        got = p.eval(k)
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
    # the product form has an explicit deep zero
    k0 = 1.0 - 1j * LOG3_OVER_PI
    assert abs(p.eval(k0)) <= 1e-12


def test_degenerate_table_collapses():
    """Over the table (pi, pi) the sum collapses to 2i e^{-ik pi}."""
    p = ExpPolynomial((math.pi, math.pi),
                      {(1, 0): 0.5j, (-1, 0): 0.5j, (0, 1): -0.5j, (0, -1): 1.5j})
    assert abs(p.eval(7.0) - (-2j)) <= 1e-12
    rng = np.random.default_rng(7)
    for _ in range(10):
        k = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
        want = 2j * np.exp(-1j * k * np.pi)
        assert abs(p.eval(k) - want) <= 1e-12 * max(1.0, abs(want))


def test_derivative_matches_finite_difference():
    rng = np.random.default_rng(8)
    h = 1e-6
    for _ in range(20):
        p = _random_poly(rng, (0.8, 1.4))
        k = float(rng.uniform(-3, 3))
        fd = (p.eval(k + h) - p.eval(k - h)) / (2 * h)
        scale = sum(abs(a) * (1 + abs(p.sigma_of(v))) for v, a in p.terms.items())
        assert abs(fd - p.eval_derivative(k)) <= 1e-6 * max(1.0, scale)


def test_sigma_range():
    p = ExpPolynomial((1.0, 2.0), {(1, 1): 1, (-1, 0): 2, (0, 0): 3})
    lo, hi = p.sigma_range()
    assert lo == -1.0 and hi == 3.0
    with pytest.raises(ValueError):
        ExpPolynomial.zero((1.0,)).sigma_range()


def test_non_finite_input_rejected():
    """A NaN or infinite coefficient, or a length that is not finite, is an
    error, not a term that pruning drops."""
    nan, inf = math.nan, math.inf
    for terms in ({(0,): nan, (1,): 1.0}, {(1,): 1.0, (0,): inf},
                  {(1,): 1.0, (0,): nan}, {(0,): complex(1.0, inf)}, {(2,): -inf}):
        with pytest.raises(ValueError, match="is not finite"):
            ExpPolynomial((1.0,), terms)
    p = ExpPolynomial((1.0,), {(1,): 1e308})
    with pytest.raises(ValueError, match="is not finite"):
        p * 10.0
    for length in (inf, -inf, nan):
        with pytest.raises(ValueError, match="lengths must be finite"):
            ExpPolynomial((1.0, length), {(1, 0): 1})


def test_origin_order_is_exact():
    """(e^{i L k} - 1)^m = (i L k)^m + ... has order m and c_m = m! L^m at
    k = 0, rounded once from the exact value even when L is not dyadic; a
    sum whose terms cancel frequency by frequency vanishes identically."""
    from fractions import Fraction
    for L in (1.0, 0.1, math.pi):
        step = ExpPolynomial((L,), {(1,): 1, (0,): -1})
        p = step
        for m in range(1, 6):
            assert p.origin_order == (m, complex(math.factorial(m) * Fraction(L) ** m)), (L, m)
            p = p * step
    # complex coefficients: 1j (e^{ik} - 1) / 4 has c_1 = 1j / 4
    q = ExpPolynomial((1.0,), {(1,): 0.25j, (0,): -0.25j})
    assert q.origin_order == (1, 0.25j)
    assert ExpPolynomial((1.0, 2.0), {(2, 0): 1, (0, 1): -1}).origin_order == (0, 0j)
    assert ExpPolynomial((1.0,), {(0,): 3}).origin_order == (0, 3 + 0j)


def test_extreme_coefficients():
    p = ExpPolynomial((1.0, 2.0), {(1, 1): 2, (-1, -1): 5, (0, 1): 7})
    assert p.extreme_coefficients() == (5, 2)
    q = ExpPolynomial((1.0, 2.0), {(1, 0): 3})
    assert q.extreme_coefficients() == (0, 0)


def test_prune_exact_and_relative():
    assert ExpPolynomial((1.0,), {(1,): 0}).is_zero()
    # relative threshold only kicks in once coefficients are inexact
    p = ExpPolynomial((1.0,), {(0,): 1.0, (1,): 1e-20})
    assert set(p.terms) == {(0,)}
    q = ExpPolynomial((1.0,), {(0,): 10**20, (1,): 1})
    assert set(q.terms) == {(0,), (1,)}


def test_dump_format_and_order():
    p = ExpPolynomial((1.0, 2.0), {(0, 1): 2, (-1, 1): -1, (1, 0): 1j})
    lines = p.dump().split("\n")
    assert lines == ["-1 1 : -1.0 0.0", "0 1 : 2.0 0.0", "1 0 : 0.0 1.0"]
    # dump is insertion-order independent
    q = ExpPolynomial((1.0, 2.0), {(1, 0): 1j, (-1, 1): -1, (0, 1): 2})
    assert q.dump() == p.dump()


def test_equality_and_hash():
    p = ExpPolynomial((1.0,), {(1,): 2})
    q = ExpPolynomial((1.0,), {(1,): 2})
    assert p == q and hash(p) == hash(q)
    assert p != ExpPolynomial((2.0,), {(1,): 2})
    assert p != ExpPolynomial((1.0,), {(1,): 3})


# -- the term-stacked kernel against the per-term loop ------------------------

def _same_bits(got, want):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


# Below this many points the per-term eval loop computed a * exp(...) as
# written.  From 256 KiB of complex values up, numpy evaluates the product
# in place on the exp temporary, as exp(...) * a, and its complex multiply
# is not bitwise commutative, so there the old eval differed in the last
# bit from the old eval_pair.  The kernel always computes a * exp(...).
ELIDED_POINTS = (256 * 1024) // 16


def _oracle_at(f, p, k):
    """The oracle f at a single point k, evaluated as a one-point array and
    shaped like the scalar result.  The oracle's own scalar path runs numpy
    scalar arithmetic, whose complex products can differ in the last bit
    from its array loops; the kernel takes a single point as an array."""
    return np.asarray(f(p, np.array([k])))[..., 0]


def _assert_matches_oracle(p, ks):
    """eval, eval_pair and eval_derivative equal the per-term loop bit for
    bit, on the points' own shape."""
    v, d = p.eval_pair(ks)
    want_v, want_d = oracle.eval_pair(p, ks)
    assert _same_bits(v, want_v)
    assert _same_bits(d, want_d)
    assert _same_bits(p.eval(ks), want_v)
    if np.size(ks) < ELIDED_POINTS:
        assert _same_bits(p.eval(ks), oracle.eval(p, ks))
    assert _same_bits(p.eval_derivative(ks), want_d)


def _points(rng, n, re=45.0, im=3.0):
    return rng.uniform(-re, re, n) + 1j * rng.uniform(-im, im, n)


def test_kernel_matches_oracle_on_bench_polynomials(bench_polys):
    rng = np.random.default_rng(11)
    for p in bench_polys:
        block = max(1, exppoly._BLOCK_ENTRIES // len(p.terms))
        # a block of at most _LANE_LIMIT lanes is summed lane by lane: eval
        # has one lane a point, eval_pair two
        lanes = exppoly._LANE_LIMIT
        for n in (0, 1, 2, 16, lanes // 2, lanes // 2 + 1, lanes, lanes + 1,
                  block - 1, block, block + 1, 2 * block + 3):
            _assert_matches_oracle(p, _points(rng, n))
        _assert_matches_oracle(p, _points(rng, 2 * block + 2).reshape(2, -1))
        _assert_matches_oracle(p, _points(rng, 12).reshape(3, 4))
        for k in _points(rng, 5).tolist():
            assert _same_bits(p.eval_pair(k), _oracle_at(oracle.eval_pair, p, k))
            assert _same_bits(p.eval(k), _oracle_at(oracle.eval, p, k))
            assert type(p.eval(k)) is complex


def test_kernel_peak_does_not_grow_with_blocks(bench_polys):
    """A block's transient arrays are freed before the next block's are
    made: past one block, eval_pair's peak grows only by the finished
    blocks' (value, derivative) sums, 32 bytes a point."""
    rng = np.random.default_rng(13)
    for p in (bench_polys[0], bench_polys[-2]):
        block = max(1, exppoly._BLOCK_ENTRIES // len(p.terms))
        peaks = []
        for n in (block, 4 * block):
            ks = _points(rng, n)
            p.eval_pair(ks[:1])
            tracemalloc.start()
            try:
                p.eval_pair(ks)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 3 * 32 * block + 4096


def _coefficients():
    big = st.integers(2**53 + 1, 2**70)
    return st.one_of(st.integers(-40, 40), big, big.map(lambda n: -n),
                     st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                        allow_infinity=False))


@st.composite
def _polys(draw):
    m = draw(st.integers(1, 3))
    reach = {1: 45, 2: 6, 3: 3}[m]
    lengths = draw(st.lists(st.floats(0.3, 2.0), min_size=m, max_size=m))
    vecs = draw(st.lists(st.tuples(*[st.integers(-reach, reach)] * m),
                         min_size=1, max_size=90, unique=True))
    coefs = draw(st.lists(_coefficients(), min_size=len(vecs), max_size=len(vecs)))
    return ExpPolynomial(lengths, dict(zip(vecs, coefs)))


@settings(max_examples=60, deadline=None)
@given(_polys(), st.integers(0, 2**32 - 1), st.integers(0, 40))
def test_kernel_matches_oracle_on_drawn_polynomials(p, seed, n):
    """Integer coefficients, integers above 2^53 (rounded on conversion) and
    complex ones, 1 to 90 terms, in any insertion order."""
    rng = np.random.default_rng(seed)
    ks = _points(rng, n, re=20.0, im=2.0)
    _assert_matches_oracle(p, ks)
    _assert_matches_oracle(p, np.concatenate([ks, ks]).reshape(2, n))
    for k in ks[:3].tolist():
        assert _same_bits(p.eval_pair(k), _oracle_at(oracle.eval_pair, p, k))
    if p.terms:
        block = max(1, exppoly._BLOCK_ENTRIES // len(p.terms))
        _assert_matches_oracle(p, _points(rng, block + 1, re=20.0, im=2.0))


def test_kernel_arrays_are_built_on_first_evaluation():
    q = ExpPolynomial((1.0, 2.0), {(1, 1): 2, (-1, 0): -3})
    p = q * ExpPolynomial((1.0, 2.0), {(0, 1): 1j})
    assert not {"_table", "_stack", "size_table"} & set(vars(p))
    p.eval_pair(np.array([0.5, 1.5j]))
    assert {"_table", "_stack"} <= set(vars(p))
    assert ExpPolynomial.zero((1.0,)).eval(np.ones((2, 3))).shape == (2, 3)
    assert ExpPolynomial.zero((1.0,)).eval_pair(np.ones(0))[1].shape == (0,)
