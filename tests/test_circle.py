import math
from fractions import Fraction

import numpy as np
import pytest

from qgraph import circle
from qgraph.graph import classify_weyl, validate
from qgraph.rootfind import find_roots

LOG3_OVER_PI = math.log(3.0) / math.pi


def test_params_and_build():
    p = circle.params(0.5)
    assert p.rho1 == 0.5 * math.pi and p.rho2 == 1.5 * math.pi
    g = circle.build_graph(0.5)
    assert validate(g).ok
    assert g.lengths == (p.rho1, p.rho2)
    assert [l.vertex for l in g.leads] == [0, 1]
    cls = classify_weyl(g)
    assert cls.is_weyl and cls.volume == 2 * math.pi


def test_build_at_zero_is_symmetric():
    g = circle.build_graph(0.0)
    assert g.lengths == (math.pi, math.pi)


def test_build_at_one_is_balanced():
    g = circle.build_graph(1.0)
    assert validate(g).ok
    assert g.lengths == (math.pi, math.pi)
    assert [l.vertex for l in g.leads] == [1, 1]
    cls = classify_weyl(g)
    assert not cls.is_weyl
    assert cls.balanced_vertices == (1,)
    assert cls.volume == 2 * math.pi


def test_params_rejects_outside_range():
    with pytest.raises(ValueError):
        circle.params(-0.1)
    with pytest.raises(ValueError):
        circle.params(1.1)


def test_parity_components_pointwise():
    rng = np.random.default_rng(21)
    for _ in range(20):
        k = complex(rng.uniform(-4, 4), rng.uniform(-2, 2))
        c = float(rng.uniform(0, 1))
        fe = 1j * np.cos(k * c * np.pi) + 1j * np.cos(k * np.pi) + 2 * np.sin(k * np.pi)
        fo = 1j * np.cos(k * c * np.pi) - 1j * np.cos(k * np.pi) - 2 * np.sin(k * np.pi)
        assert abs(circle.f_even(k, c) - fe) <= 1e-12 * max(1.0, abs(fe))
        assert abs(circle.f_odd(k, c) - fo) <= 1e-12 * max(1.0, abs(fo))
        # exact polynomial forms agree with the trigonometric ones
        assert abs(circle.f_even_poly(c).eval(k) - fe) <= 1e-12 * max(1.0, abs(fe))
        assert abs(circle.f_odd_poly(c).eval(k) - fo) <= 1e-12 * max(1.0, abs(fo))


def test_parity_component_special_values():
    # the odd component at full collapse is -2 sin(k pi)
    rng = np.random.default_rng(22)
    for _ in range(10):
        k = complex(rng.uniform(-4, 4), rng.uniform(-1, 1))
        want = -2 * np.sin(k * np.pi)
        assert abs(circle.f_odd(k, 1.0) - want) <= 1e-12 * max(1.0, abs(want))
        want = 2j * np.exp(-1j * k * np.pi)
        assert abs(circle.f_even(k, 1.0) - want) <= 1e-12 * max(1.0, abs(want))
    # starting resonance of every curve at c = 0
    assert abs(circle.f_odd(1.0 - 1j * LOG3_OVER_PI, 0.0)) <= 1e-12
    assert abs(circle.f_even(2.0 - 1j * LOG3_OVER_PI, 0.0)) <= 1e-12


def test_det_poly_pinned_at_third():
    p = circle.det_poly(1.0 / 3.0)
    assert p.terms == {(1, 1): 1, (-1, 1): -1, (0, 0): -8,
                       (1, -1): -1, (-1, -1): 9}


def test_det_poly_pinned_at_one():
    p = circle.det_poly(1.0)
    assert p.terms == {(-1, -1): 8, (0, 0): -8}
    lo, hi = p.sigma_range()
    assert lo == -2 * math.pi and hi == 0.0


def test_factorization_report():
    for c in (0.0, 0.25, 1.0 / 3.0, 0.5, 0.75):
        rep = circle.verify_factorization(c)
        assert rep.max_residual <= 1e-9
        assert rep.sign in (-1, 1)
        assert rep.samples == 50 and rep.seed == 0
    with pytest.raises(ValueError):
        circle.verify_factorization(1.0)


def test_full_collapse_zero_set_is_integer_lattice():
    roots = find_roots(circle.det_poly(1.0), (-5.4, 5.4, -0.5, 0.5))
    got = sorted(round(r.k.real) for r in roots)
    assert got == list(range(-5, 6))
    assert max(abs(r.k - round(r.k.real)) for r in roots) <= 1e-9


def test_crossing_values_odd():
    vals = circle.crossing_values("odd", 7)
    at7 = [cv for cv in vals if cv.k == 7]
    assert [cv.c for cv in at7] == [Fraction(1, 7), Fraction(3, 7),
                                    Fraction(5, 7), Fraction(1)]
    # boundary value c = 1 is present at every k
    assert all(any(cv.k == k and cv.c == 1 for cv in vals)
               for k in range(1, 8))


def test_crossing_values_even():
    vals = circle.crossing_values("even", 4)
    assert vals == [circle.CrossingValue(k=1, c=Fraction(0)),
                    circle.CrossingValue(k=2, c=Fraction(1, 2)),
                    circle.CrossingValue(k=3, c=Fraction(0)),
                    circle.CrossingValue(k=3, c=Fraction(2, 3)),
                    circle.CrossingValue(k=4, c=Fraction(1, 4)),
                    circle.CrossingValue(k=4, c=Fraction(3, 4))]


def test_crossing_values_are_roots():
    for parity in ("even", "odd"):
        f = circle.f_even if parity == "even" else circle.f_odd
        for cv in circle.crossing_values(parity, 9):
            if cv.c == 1:
                continue
            assert abs(f(float(cv.k), float(cv.c))) <= 1e-12


def test_crossing_values_rejects_bad_args():
    with pytest.raises(ValueError):
        circle.crossing_values("both", 3)
    with pytest.raises(ValueError):
        circle.crossing_values("odd", 0)


def test_trace_odd_curve():
    grid = [j / 200 for j in range(200)]
    curve = circle.trace_curve("odd", 7, grid)
    assert curve.parity == "odd" and curve.n == 7
    assert not curve.diverged
    assert [cr.c for cr in curve.crossings] == [1 / 7, 3 / 7, 5 / 7]
    assert all(cr.k == 7.0 for cr in curve.crossings)
    # odd curves stay in a bounded box around their index
    bound = (2 * 7 + 1) / (2 * math.sqrt(3))
    for c, k in curve.samples:
        assert abs(k.real - 7) < 0.5
        assert -1e-9 <= -k.imag <= bound + 1e-9


def test_trace_odd_small_indices():
    for n in (1, 3):
        curve = circle.trace_curve("odd", n, [j / 100 for j in range(100)])
        assert not curve.diverged
        bound = (2 * n + 1) / (2 * math.sqrt(3))
        for c, k in curve.samples:
            assert abs(k.real - n) < 0.5
            assert -1e-9 <= -k.imag <= bound + 1e-9
        want = [float(Fraction(n - 2 * m, n)) for m in range(n // 2, 0, -1)]
        assert [cr.c for cr in curve.crossings] == pytest.approx(want, abs=1e-9)


def test_trace_even_curve_dives():
    grid = [j / 200 for j in range(200)]
    curve = circle.trace_curve("even", 4, grid)
    assert curve.diverged
    assert curve.last_c < 1.0
    assert [cr.c for cr in curve.crossings] == [0.25, 0.75]
    assert all(cr.k == 4.0 for cr in curve.crossings)
    # the depth stays inside the component's strip at each sampled c
    for c, k in curve.samples:
        assert abs(k.real - 4) < 0.5
        if c <= 0.99:
            assert -k.imag <= LOG3_OVER_PI / (1 - c) + 1e-6
    # the extension pushes to rounding distance from c = 1 and well below
    # any depth the odd curves reach
    assert curve.last_c > 1.0 - 1e-9
    deepest = max(-k.imag for _, k in curve.samples)
    assert deepest > 3.0


def test_trace_even_touch_detection_on_coarse_grid():
    curve = circle.trace_curve("even", 4, [j / 40 for j in range(40)])
    assert [cr.c for cr in curve.crossings] == [0.25, 0.75]


@pytest.mark.parametrize("steps", [50, 97, 200, 400, 1000])
def test_touches_match_minimisation_oracle(steps, monkeypatch):
    """The closed-form touch candidates give exactly the curves that bounded
    minimisation of the depth gave, on every curve of index up to 20/21."""
    pytest.importorskip("scipy.optimize")
    from touch_oracle import _detect_touches as oracle_touches

    grid = [j / steps for j in range(steps)]
    curves = ([("even", n) for n in range(2, 21, 2)]
              + [("odd", n) for n in range(1, 22, 2)])
    got = [circle.trace_curve(parity, n, grid) for parity, n in curves]
    monkeypatch.setattr(circle, "_detect_touches", oracle_touches)
    want = [circle.trace_curve(parity, n, grid) for parity, n in curves]
    assert got == want
    assert sum(len(curve.crossings) for curve in got) > 0


def test_trace_rejects_mismatched_parity():
    with pytest.raises(ValueError):
        circle.trace_curve("even", 7, [0.0, 0.5])
    with pytest.raises(ValueError):
        circle.trace_curve("odd", 4, [0.0, 0.5])
    with pytest.raises(ValueError):
        circle.trace_curve("odd", 3, [0.5, 0.25])
    with pytest.raises(ValueError):
        circle.trace_curve("odd", 3, [0.5, 1.0])


def test_half_line_lower_bound():
    """|f| >= e^{-y pi} on vertical half-lines through half-integers."""
    worst = np.inf
    for c in (0.0, 0.25, 0.5, 0.75, 1.0):
        for n in range(-10, 11):
            y = np.linspace(0.0, 5.0, 26)
            ks = (n + 0.5) - 1j * y
            for f in (circle.f_even, circle.f_odd):
                ratio = np.abs(f(ks, c)) * np.exp(y * np.pi)
                worst = min(worst, float(ratio.min()))
    assert worst >= 1.0


def test_odd_component_nonzero_in_lower_cone():
    """f_odd stays away from zero once the depth exceeds |Re|/sqrt(3)."""
    m = np.inf
    for c in (0.0, 0.5, 1.0):
        for x in np.linspace(-10, 10, 81):
            for dy in (0.05, 0.5, 2.0):
                y = abs(x) / math.sqrt(3) + dy
                m = min(m, abs(circle.f_odd(x - 1j * y, c)))
    assert m >= 0.25


def test_real_root_at_even_touch_parameter():
    """At the touch parameter c = 1/4 the full determinant has a real zero at
    k = 4 (an embedded eigenvalue of the leaded graph)."""
    roots = find_roots(circle.det_poly(0.25), (3.6, 4.4, -0.6, 0.3))
    real = [r for r in roots if abs(r.k.imag) <= 1e-9]
    assert any(abs(r.k - 4.0) <= 1e-9 for r in real)


def test_divergence_height_override():
    curve = circle.trace_curve("even", 2, [j / 50 for j in range(50)],
                               divergence_height=3.0)
    assert curve.diverged
    assert max(-k.imag for _, k in curve.samples) > 3.0
