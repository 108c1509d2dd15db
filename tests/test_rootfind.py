import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eval_oracle
import rootfind_oracle as oracle
from qgraph.circle import crossing_values, det_poly, f_even_poly, f_odd_poly
from qgraph.constraint import assemble
from qgraph.errors import BoundaryZeroSuspected, NonConvergenceError
from qgraph.exppoly import ExpPolynomial
from qgraph import rootfind
from qgraph.rootfind import (RootStats, count_in_disc, find_roots, strip_bound,
                             weyl_coefficient, winding_number, winding_numbers)

LOG3_OVER_PI = math.log(3.0) / math.pi


def sin_pi_poly():
    # sin(pi k) = (e^{i pi k} - e^{-i pi k}) / 2i
    return ExpPolynomial((math.pi,), {(1,): -0.5j, (-1,): 0.5j})


def test_winding_examples():
    mono = ExpPolynomial((1.0,), {(1,): 1.0})
    assert winding_number(mono, (-1, 1, -1, 1)) == 0       # e^{ik} never vanishes
    assert winding_number(sin_pi_poly(), (0.6, 1.4, -0.4, 0.4)) == 1
    assert winding_number(sin_pi_poly(), (0.6, 2.4, -0.4, 0.4)) == 2
    # one deep zero of the symmetric-circle even component
    assert winding_number(f_even_poly(0.0), (-0.4, 0.4, -0.6, -0.1)) == 1


def test_winding_counts_multiplicity():
    sq = sin_pi_poly() * sin_pi_poly()
    assert winding_number(sq, (0.6, 1.4, -0.4, 0.4)) == 2


def test_winding_boundary_zero_detected():
    with pytest.raises(BoundaryZeroSuspected):
        winding_number(sin_pi_poly(), (-0.5, 0.5, -0.5, 0.0))


def test_winding_rejects_empty_rect():
    with pytest.raises(ValueError):
        winding_number(sin_pi_poly(), (1.0, 0.5, 0.0, 1.0))


def test_find_roots_deep_zero():
    rs = find_roots(f_odd_poly(0.0), (0.5, 1.5, -1.0, -0.05))
    assert len(rs) == 1
    r = rs[0]
    assert r.multiplicity == 1 and r.refined
    assert abs(r.k - (1.0 - 1j * LOG3_OVER_PI)) <= 1e-10
    assert r.residual <= 1e-12


def test_find_roots_real_line():
    rs = find_roots(sin_pi_poly(), (-2.5, 2.5, -1.0, 1.0))
    assert [round(r.k.real) for r in rs] == [-2, -1, 0, 1, 2]
    assert max(abs(r.k - round(r.k.real)) for r in rs) <= 1e-10
    assert all(r.multiplicity == 1 for r in rs)


def test_find_roots_embedded_eigenvalue():
    # the odd component at c = 1/7 has a genuine real zero at k = 7
    rs = find_roots(f_odd_poly(1.0 / 7.0), (6.5, 7.5, -1.0, 0.3))
    assert len(rs) == 1
    assert abs(rs[0].k - 7.0) <= 1e-10
    assert abs(rs[0].k.imag) <= 1e-10


def test_find_roots_double_zeros_cluster():
    sq = sin_pi_poly() * sin_pi_poly()
    rs = find_roots(sq, (-2.5, 2.5, -1.0, 1.0))
    assert [r.multiplicity for r in rs] == [2, 2, 2, 2, 2]
    assert all(not r.refined for r in rs)
    # double roots resolve to about sqrt(eps), not to the simple-root tol
    assert max(abs(r.k - round(r.k.real)) for r in rs) <= 1e-6


def test_find_roots_empty_region():
    assert find_roots(f_odd_poly(0.0), (0.2, 0.8, -0.2, -0.05)) == []


def test_find_roots_rejects_zero_poly():
    with pytest.raises(ValueError):
        find_roots(ExpPolynomial.zero((1.0,)), (0, 1, 0, 1))


def test_strip_bound_odd_component():
    """The odd-component strip height never undercuts the known depth
    log(3)/pi of the starting resonances."""
    for c in (0.0, 0.25, 0.5, 0.75):
        K = strip_bound(f_odd_poly(c))
        assert K >= LOG3_OVER_PI - 1e-12
        assert K <= 1.0


def test_strip_bound_degenerate_cases():
    # all zeros of 1 + e^{2 pi i k} are real, and the bound sees that
    p = ExpPolynomial((2 * math.pi,), {(0,): 1, (1,): 1})
    assert strip_bound(p) <= 1e-9
    # single-term polynomials have no zeros at all
    assert strip_bound(ExpPolynomial((1.0,), {(2,): 3.0})) == 0.0


def test_strip_bound_even_component_near_collapse():
    """At c = 0.9 the even-component dominance changeover sits near 0.53;
    the bound must hold every root found in a sample window."""
    K = strip_bound(f_even_poly(0.9))
    assert 0.4 <= K <= 0.6
    roots = find_roots(f_even_poly(0.9), (-5.5, 5.5, -K - 0.5, 0.3))
    assert roots
    assert all(-K - 1e-9 <= r.k.imag <= K + 1e-9 for r in roots)


def test_strip_bound_contains_roots(graph_family):
    rng = np.random.default_rng(17)
    for i in rng.choice(len(graph_family), size=6, replace=False):
        p = assemble(graph_family[int(i)]).determinant()
        K = strip_bound(p)
        roots = find_roots(p, (-4.0, 4.0, -K - 0.5, K + 0.5))
        assert all(abs(r.k.imag) <= K + 1e-9 for r in roots)


def test_strip_bound_is_computed_once_per_polynomial(monkeypatch):
    """count_in_disc looks strip_bound up by name at every radius, and the
    bisection runs on the first call only: its K is kept on the polynomial,
    with the bits of a fresh computation."""
    seen = []

    def spy(p):
        seen.append("strip_bound" in p.__dict__)
        return strip_bound(p)

    monkeypatch.setattr(rootfind, "strip_bound", spy)
    p = det_poly(0.37)
    reps = [rootfind.count_in_disc(p, R) for R in (2.0, 3.0, 4.0)]
    assert seen == [False, True, True]
    assert {r.strip_bound for r in reps} == {strip_bound(det_poly(0.37))}
    with pytest.raises(ValueError, match="zero polynomial"):
        strip_bound(ExpPolynomial((1.0,), {}))


def test_count_in_disc_origin_flag():
    rep = count_in_disc(det_poly(0.0), 5.5)
    assert rep.count == 21
    assert rep.origin_zero
    assert rep.R == 5.5
    assert rep.count == sum(r.multiplicity for r in rep.roots)
    assert all(1e-9 < abs(r.k) <= 5.5 + 1e-9 for r in rep.roots)
    assert rep.strip_bound >= LOG3_OVER_PI - 1e-12


def test_count_linear_growth():
    counts = {R: count_in_disc(det_poly(0.0), R).count for R in (10, 15, 20)}
    assert counts == {10: 39, 15: 59, 20: 79}
    W = 2 * math.pi
    for R, n in counts.items():
        assert abs(n - (2 / math.pi) * W * R) <= 6


def test_count_non_weyl_rate():
    counts = {R: count_in_disc(det_poly(1.0), R).count for R in (10, 15, 20)}
    assert counts == {10: 20, 15: 30, 20: 40}
    for R, n in counts.items():
        assert abs(n - (2 / math.pi) * math.pi * R) <= 6


def test_weyl_coefficient_symbolic():
    assert weyl_coefficient(det_poly(0.0)) == 2 * math.pi
    assert weyl_coefficient(det_poly(1.0)) == math.pi
    p = ExpPolynomial((1.0, 2.0), {(1, 1): 1, (-1, -1): 1, (0, 0): -2})
    assert weyl_coefficient(p) == 3.0


def test_weyl_coefficient_empirical():
    W0 = weyl_coefficient(det_poly(0.0), radii=[10, 15, 20])
    assert abs(W0 - 2 * math.pi) <= 1e-9
    W1 = weyl_coefficient(det_poly(1.0), radii=[10, 15, 20])
    assert abs(W1 - math.pi) <= 1e-9


def test_root_symmetry_under_reflection():
    """Resonances come in pairs k, -conj(k)."""
    for c in (0.0, 1 / 3):
        roots = find_roots(det_poly(c), (-4.6, 4.6, -1.0, 0.1))
        ks = sorted((round(r.k.real, 7), round(r.k.imag, 7)) for r in roots)
        mirrored = sorted((round(-r.k.real, 7), round(r.k.imag, 7)) for r in roots)
        assert ks == mirrored


def test_argument_checks_raise_value_error():
    # real exceptions, not asserts, so they hold under python -O too
    p = det_poly(0.0)
    for radius in (-3.0, 0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="radius must be positive and finite"):
            count_in_disc(p, radius)
    for radii in ([10.0], [5.0, 5.0], [5, 5.0, 5.0]):
        with pytest.raises(ValueError, match="two radii"):
            weyl_coefficient(p, radii=radii)


def test_find_roots_rejects_bad_region_and_tol():
    p = det_poly(0.0)
    inf, nan = float("inf"), float("nan")
    for region in ((-1.0, inf, -1.0, 0.1), (-inf, 1.0, -1.0, 0.1),
                   (-1.0, 1.0, nan, 0.1), (-1.0, 1.0, -1.0, inf)):
        with pytest.raises(ValueError, match="not finite"):
            find_roots(p, region)
    for tol in (0.0, -1e-8, nan, inf):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            find_roots(p, (-1.0, 1.0, -1.0, 0.1), tol=tol)


# -- the batched root finder against the per-cell oracle ----------------------

def _same_resonances(p, region):
    """find_roots and the per-cell oracle agree bit for bit: the reprs carry
    every float exactly and the type of every field, and a failure must be
    the same NonConvergenceError.  Returns the resonances, or None on a
    failure."""
    try:
        want = oracle.find_roots(p, region)
    except NonConvergenceError as exc:
        with pytest.raises(NonConvergenceError) as got:
            find_roots(p, region)
        assert str(got.value) == str(exc)
        return None
    got = find_roots(p, region)
    assert got == want
    assert repr(got) == repr(want)
    return got


ORACLE_FIXTURES = [
    (sin_pi_poly(), (-2.5, 2.5, -1.0, 1.0)),
    (sin_pi_poly() * sin_pi_poly(), (-2.5, 2.5, -1.0, 1.0)),
    (f_odd_poly(0.0), (0.5, 1.5, -1.0, -0.05)),
    (f_odd_poly(0.0), (0.2, 0.8, -0.2, -0.05)),
    (f_odd_poly(1.0 / 7.0), (6.5, 7.5, -1.0, 0.3)),
    (f_even_poly(0.9), (-5.5, 5.5, -strip_bound(f_even_poly(0.9)) - 0.5, 0.3)),
    (det_poly(0.0), (-2.5, 2.5, -1.0, 0.1)),
    (det_poly(1 / 3), (-4.6, 4.6, -1.0, 0.1)),
    # at R = 80 a level holds 16 cells to split for real, all in one call
    (det_poly(0.75), (-80.5, 80.5, -strip_bound(det_poly(0.75)) - 0.5,
                      strip_bound(det_poly(0.75)) + 0.5)),
]


@pytest.mark.parametrize("p, region", ORACLE_FIXTURES)
def test_find_roots_matches_oracle_on_fixtures(p, region):
    _same_resonances(p, region)


@pytest.mark.parametrize("c", [0.0, 1 / 3, 0.5, 1.0, "crossing"])
def test_find_roots_matches_oracle_on_circle(c):
    if c == "crossing":
        # zeros on the real axis, which is the first horizontal cut
        c = float(crossing_values("odd", 5)[-2].c)      # 3/5
    p = det_poly(c)
    K = strip_bound(p)
    assert _same_resonances(p, (-10.5, 10.5, -K - 0.5, K + 0.5))


def test_find_roots_matches_oracle_on_graph_family(graph_family):
    # a window clear of k = 0 for every graph, and the multiple zeros at
    # k = 0 (deep subdivision down to the noise floor) for the first few
    found = 0
    for i, g in enumerate(graph_family):
        p = assemble(g).determinant()
        K = strip_bound(p)
        found += len(_same_resonances(p, (0.25, 2.25, -K - 0.5, 0.5)) or ())
        if i < 4:
            found += len(_same_resonances(p, (-1.0, 1.0, -1.0, 0.5)) or ())
    assert found > 50


def _rectangles():
    # sides drawn from a coarse grid hit the integer zeros of sin(pi k) and
    # the real axis now and then; finer values keep clear of them
    coord = st.one_of(st.integers(-3, 3).map(float),
                      st.floats(-3.0, 3.0, allow_nan=False).map(lambda x: round(x, 3)))

    def ordered(pair):
        lo, hi = sorted(pair)
        return (lo, hi + 0.25) if hi - lo < 0.25 else (lo, hi)

    sides = st.tuples(coord, coord).map(ordered)
    return st.tuples(sides, sides).map(lambda xy: (xy[0][0], xy[0][1], xy[1][0], xy[1][1]))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["sin", "sin2", "det"]), st.lists(_rectangles(), min_size=1, max_size=6))
def test_batched_winding_matches_per_rectangle(name, rects):
    p = {"sin": sin_pi_poly(), "sin2": sin_pi_poly() * sin_pi_poly(),
         "det": det_poly(0.3)}[name]
    batched = winding_numbers(p, rects)
    assert len(batched) == len(rects)
    for rect, w in zip(rects, batched):
        for single in (winding_number, oracle.winding_number):
            try:
                want = single(p, rect)
            except BoundaryZeroSuspected as exc:
                assert isinstance(w, BoundaryZeroSuspected)
                assert str(w) == str(exc)
            else:
                assert w == want and type(w) is int


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["sin", "sin2", "det"]), st.lists(_rectangles(), min_size=1, max_size=4),
       st.integers(0, 8), st.integers(16, 400))
# on the edge of both budgets: sin(pi k)^2 settles on the first rectangle in
# exactly 7 rounds and 129 points, det_poly(0.3) on (-2, 2, -0.2, 0.02) in
# exactly 3 rounds and 100 points
@example("sin2", [(-1.3, 1.7, -0.003, 0.9)], 7, 129)
@example("sin2", [(-1.3, 1.7, -0.003, 0.9)], 6, 129)
@example("sin2", [(-1.3, 1.7, -0.003, 0.9)], 7, 128)
@example("det", [(-1.3, 1.7, -0.003, 0.9), (-2.0, 2.0, -0.2, 0.02)], 3, 100)
@example("det", [(-1.3, 1.7, -0.003, 0.9), (-2.0, 2.0, -0.2, 0.02)], 6, 99)
def test_batched_winding_budgets_match_per_rectangle(name, rects, max_rounds, max_points):
    """Small round and point budgets: every rectangle gets the per-rectangle
    oracle's verdict and message, "phase did not settle" and "refinement
    exploded" included."""
    p = {"sin": sin_pi_poly(), "sin2": sin_pi_poly() * sin_pi_poly(),
         "det": det_poly(0.3)}[name]
    batched = winding_numbers(p, rects, max_rounds=max_rounds, max_points=max_points)
    for rect, w in zip(rects, batched):
        try:
            want = oracle.winding_number(p, rect, max_rounds=max_rounds, max_points=max_points)
        except BoundaryZeroSuspected as exc:
            assert isinstance(w, BoundaryZeroSuspected)
            assert str(w) == str(exc)
        else:
            assert w == want and type(w) is int


def test_batched_winding_many_boundaries_match_per_rectangle():
    """One worklist shared by 120 boundaries of mixed sizes, some through
    zeros of sin(pi k) and some cut short by max_rounds: every entry gets the
    per-rectangle oracle's verdict and message."""
    rng = np.random.default_rng(9)
    rects = []
    for i in range(120):
        w, h = (10.0 ** rng.uniform(-3.0, 0.7, 2)).tolist()
        x0 = float(rng.uniform(-3.0, 3.0))
        if i % 4 == 0:
            # a corner on an integer zero
            x0, y0 = float(rng.integers(-3, 3)), 0.0
        elif i % 4 == 1:
            # the bottom side along the real axis, through a zero when the
            # rectangle is wide enough
            y0 = 0.0
        elif i % 4 == 2:
            # across the real axis, around the zeros it is wide enough for
            y0 = -float(rng.uniform(0.0, h))
        else:
            y0 = float(rng.uniform(-1.0, 1.0))
        rects.append((x0, x0 + w, y0, y0 + h))
    seen = {}
    for p in (sin_pi_poly(), sin_pi_poly() * sin_pi_poly()):
        for max_rounds in (1, 3, 48):
            batched = winding_numbers(p, rects, max_rounds=max_rounds)
            assert len(batched) == len(rects)
            kinds = seen.setdefault(max_rounds, set())
            for rect, w in zip(rects, batched):
                try:
                    want = oracle.winding_number(p, rect, max_rounds=max_rounds)
                except BoundaryZeroSuspected as exc:
                    assert isinstance(w, BoundaryZeroSuspected)
                    assert str(w) == str(exc)
                    kinds.add(str(exc).split(" on ")[0])
                else:
                    assert w == want and type(w) is int
                    kinds.add(w)
    # every budget mixes settled boundaries with both kinds of suspicion
    for kinds in seen.values():
        assert {0, "|p| ~ 0", "phase did not settle"} <= kinds
    assert {1, 2, 3} <= seen[3] & seen[48]


def test_batched_winding_flags_boundary_zeros():
    # sin(pi k) vanishes at 0 and 1, both on the bottom side of the first
    # rectangle and at a corner of the second; the third is clear of zeros
    ws = winding_numbers(sin_pi_poly(), [(-0.5, 1.5, 0.0, 0.5), (1.0, 1.5, -0.5, 0.5),
                                         (0.5, 1.5, -0.5, 0.5)])
    assert isinstance(ws[0], BoundaryZeroSuspected)
    assert isinstance(ws[1], BoundaryZeroSuspected)
    assert ws[2] == 1
    assert winding_numbers(sin_pi_poly(), []) == []
    with pytest.raises(ValueError, match="empty rectangle"):
        winding_numbers(sin_pi_poly(), [(0.5, 1.5, -0.5, 0.5), (1.0, 1.0, 0.0, 1.0)])


def _written_out_fresh_sides(p, rects, nseg):
    """Reference for the initial grid of the rectangles' sides, evaluated:
    each sample interpolated as x + i y between its side's corners, and t
    read from it as x, y, -x or -y.  Returns (off, data) of _Lines."""
    x0, x1, y0, y1 = np.array(rects, dtype=float).reshape(-1, 4).T
    ax = np.array([x0, x1, x1, x0]).T.ravel()
    ay = np.array([y0, y0, y1, y1]).T.ravel()
    bx = np.array([x1, x1, x0, x0]).T.ravel()
    by = np.array([y0, y1, y1, y0]).T.ravel()
    vertical = np.tile([False, True, False, True], len(rects))
    nseg = nseg.astype(np.intp)
    off = np.concatenate([[0], np.cumsum(nseg + 1)])
    side = np.repeat(np.arange(nseg.size), nseg + 1)
    j = np.arange(off[-1]) - off[side]
    f = j / nseg[side]
    x = ax[side] + (bx - ax)[side] * f
    y = ay[side] + (by - ay)[side] * f
    end = off[1:] - 1
    x[end] = bx
    y[end] = by
    head = j < nseg[side]
    vals = rootfind._samples(p, x[head] + 1j * y[head])
    first = np.cumsum(nseg) - nseg
    src = first[side] + j
    src[end] = first[side[end] - side[end] % 4 + (side[end] + 1) % 4]
    data = np.empty((4, off[-1]))
    data[0] = np.tile([1.0, 1.0, -1.0, -1.0], len(rects))[side] * np.where(vertical[side], y, x)
    data[1:] = np.take(vals, src, axis=1)
    return off, data


def test_fresh_sides_keep_the_written_out_samples():
    """Every sample of a fresh side is placed at base + t unit; the t row
    and the evaluated rows keep the bits of the written-out x + i y
    interpolation.  The cases are those of signed zeros, where
    arctan2(+-0, x < 0) = +-pi would turn a flipped sign into a phase:
    corners at +-0.0, the symmetric count_in_disc rectangle, whose top and
    left sides have samples on x = 0 and y = 0, and the four cells of its
    first cut, with corners on x = 0."""
    signed = ExpPolynomial((1.0,), {(1,): -1.0, (0,): -1.0, (-1,): -1.0})  # -1 - 2 cos k
    zeros = {False: 0, True: 0}
    for p in (det_poly(1 / 3), signed, sin_pi_poly()):
        R, K = 10.0, strip_bound(p)
        disc = (-R - 0.5, R + 0.5, -K - 0.5, K + 0.5)
        rects = [(-0.0, 1.0, -0.0, 1.0), (-1.0, -0.0, -1.0, -0.0), (0.0, 1.0, 0.0, 1.0),
                 (-1.0, 0.0, -1.0, 0.0), (-1.0, -0.0, -2.0, -1.0), (-0.0, 2.0, 1.0, 2.0),
                 disc, *rootfind._quad(disc, 0.0, 0.0)]
        x0, x1, y0, y1 = np.array(rects).T
        nseg = rootfind._side_segments(p, np.array([x1 - x0, y1 - y0, x1 - x0, y1 - y0]).T)
        want_off, want = _written_out_fresh_sides(p, rects, nseg.ravel())
        _, ((off, data, _), _, _) = rootfind._windings(p, rects, 0, rootfind._MAX_POINTS,
                                                        RootStats())
        assert off.tolist() == want_off.tolist()
        for row, (got_row, want_row) in enumerate(zip(data, want)):
            assert got_row.tobytes() == want_row.tobytes(), row
        for sign in zeros:
            zeros[sign] += int(np.sum((data[0] == 0) & (np.signbit(data[0]) == sign)))
    assert zeros[False] > 0 and zeros[True] > 0


class _StoreSides:
    """Reference for _sides: the store of refined sides that cells once
    pointed into by (store, slot), as rootfind kept it.  Four sides per
    boundary, slot by slot; side s holds samples off[s]:off[s + 1], the
    columns of data."""

    def __init__(self, refined, bside, bsign):
        off, data, inserted = refined
        if inserted:
            root = np.concatenate([r for r, _ in inserted])
            mids = np.concatenate([m for _, m in inserted], axis=1)
            order = np.lexsort((mids[0], root))
            n = data.shape[1]
            shift = np.zeros(n + 1, dtype=np.intp)
            np.cumsum(np.bincount(root, minlength=n), out=shift[1:])
            src = np.empty(n + root.size, dtype=np.intp)
            at = root[order] + 1 + np.arange(root.size)
            src[at] = np.arange(n, n + root.size)
            old = np.ones(src.size, dtype=bool)
            old[at] = False
            src[old] = np.arange(n)
            data = np.take(np.concatenate([data, np.take(mids, order, axis=1)], axis=1), src,
                           axis=1)
            off = off + shift[off]
        es = bside.ravel()
        lens = (off[1:] - off[:-1])[es]
        self.off = np.concatenate([[0], np.cumsum(lens)])
        back = bsign.ravel() < 0
        step = np.where(back, -1, 1)
        src = np.repeat(np.where(back, off[es + 1] - 1, off[es]) - self.off[:-1] * step, lens)
        step = np.repeat(step, lens)
        src += np.arange(src.size) * step
        self.data = np.take(data, src, axis=1)
        self.data[0] *= step


def _store_take(off, data, cells):
    """The sides of the given slots of a _StoreSides: (side lengths, data)."""
    bounds = off[4 * np.asarray(cells)[:, None] + np.arange(5)]
    starts, stops = bounds[:, 0], bounds[:, 4]
    lens = stops - starts
    cols = np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)
    return np.diff(bounds, axis=1).ravel(), np.take(data, cols, axis=1)


def _store_gather(sides):
    """Reference for _gather on (store, slot) pairs: runs of one store are
    taken together, and cum is summed over the whole batch."""
    lens, cols = [], []
    start = 0
    for k in range(1, len(sides) + 1):
        if k == len(sides) or sides[k][0] is not sides[start][0]:
            store = sides[start][0]
            n, d = _store_take(store.off, store.data, [slot for _, slot in sides[start:k]])
            lens.append(n)
            cols.append(d)
            start = k
    lens = np.concatenate(lens)
    off = np.concatenate([[0], np.cumsum(lens)])
    data = np.empty((5, off[-1]))
    np.concatenate(cols, axis=1, out=data[:4])
    d = (np.diff(data[1]) + np.pi) % (2 * np.pi) - np.pi
    d[off[1:-1] - 1] = 0.0
    cum = data[4]
    cum[0] = 0.0
    np.cumsum(d, out=cum[1:])
    cum -= np.repeat(cum[off[:-1]], lens)
    return off, data


def test_own_sides_match_the_store_and_slot_reference(monkeypatch):
    """_sides gives every boundary exactly the lengths and columns of its
    slot in the (store, slot) reference, for the fresh sides of one
    _windings call and the children of one _quadrisect call, both with
    midpoints inserted.  _gather gives the reference's (off, data), cum
    included, bit for bit, on the whole fresh batch, on a reordered subset
    of the children and on a list that mixes cells of both."""
    p = det_poly(0.37)
    rects = [(x, x + 2.0, -1.0, 0.5) for x in range(-10, 10, 2)]
    _, fresh = rootfind._windings(p, rects, rootfind._MAX_ROUNDS, rootfind._MAX_POINTS,
                                  RootStats())
    quadrisect = rootfind._quadrisect
    calls = []

    def recorded(p, quads, parents, stats):
        ws, children = quadrisect(p, quads, parents, stats)
        calls.append(children)
        return ws, children
    monkeypatch.setattr(rootfind, "_quadrisect", recorded)
    count_in_disc(p, 10.0)
    split = max(calls, key=lambda children: len(children[1]))
    stores, owns = [], []
    for args in (fresh, split):
        assert args[0][2], "no midpoint inserted"
        store, own = _StoreSides(*args), rootfind._sides(*args)
        assert len(own) == len(args[1]) >= 8
        for slot, (lens, data) in enumerate(own):
            want_lens, want = _store_take(store.off, store.data, [slot])
            assert lens.tolist() == want_lens.tolist(), slot
            assert data.dtype == want.dtype and data.tobytes() == want.tobytes(), slot
        stores.append(store)
        owns.append(own)
    selections = [[(0, i) for i in range(len(owns[0]))],
                  [(1, 5), (1, 0), (1, 3), (1, 2)],
                  [(0, 3), (1, 1), (1, 6), (0, 0), (1, 0), (0, 7)]]
    for chosen in selections:
        off, data = rootfind._gather([owns[b][i] for b, i in chosen])
        want_off, want = _store_gather([(stores[b], i) for b, i in chosen])
        assert off.tolist() == want_off.tolist()
        assert data.tobytes() == want.tobytes()


# -- work counters ------------------------------------------------------------

def test_root_stats_deterministic_and_inert():
    p = det_poly(1 / 3)
    plain = count_in_disc(p, 10.0)
    runs = []
    for _ in range(2):
        stats = RootStats()
        assert count_in_disc(p, 10.0, stats=stats) == plain
        runs.append(stats)
    assert runs[0] == runs[1]
    s = runs[0]
    # a split decided by a located zero winds no child
    assert s.boundaries == 1 + 4 * sum(s.split_attempts)
    assert s.guided > 0 and s.guide_steps >= s.guided
    # the outer boundary evaluates at least 16 samples and every split at
    # least the centre and 3 inner samples per cross; a split cell below
    # the outer one holds two sides that were crosses, of at least 5
    # samples each, and two halves of at least 2, and at most 4 of its cuts
    # miss those samples
    assert s.points >= 16 + 13 * sum(s.split_attempts) and s.rounds > 0
    assert s.reused >= 10 * sum(s.split_attempts)
    assert s.split_attempts[0] > 0 and s.outer_growths == 0
    assert s.newton_iterations > 0 and s.noise_clusters == 0


def test_root_stats_count_retries_growth_and_clusters():
    # the real-axis zeros of sin(pi k) sit on the outer boundary and on the
    # first horizontal cut of the double-root search; the double roots end
    # as noise-floor clusters after Newton gives up on their cells
    s = RootStats()
    find_roots(sin_pi_poly(), (-2.0, 2.0, 0.0, 1.0), stats=s)
    assert s.outer_growths >= 1
    s = RootStats()
    roots = find_roots(sin_pi_poly() * sin_pi_poly(), (-2.5, 2.5, -1.0, 1.0), stats=s)
    assert s.noise_clusters == len(roots) == 5
    assert sum(s.split_attempts[1:]) >= 1


# the work of count_in_disc when every split winds its four children, as
# before winding-one cells were split by their located zero; the first cut
# through k = 0, where p is exactly 0, is skipped all the same
WOUND = {
    "c=0.3": RootStats(boundaries=537, points=6939, rounds=1022, split_attempts=[133, 1] + [0] * 8,
                       newton_iterations=1234, newton_failures=66, evaluations=142,
                       reused=11471),
    "c=3/5": RootStats(boundaries=489, points=6418, rounds=782, split_attempts=[121, 1] + [0] * 8,
                       newton_iterations=1289, newton_failures=79, evaluations=108,
                       reused=10803),
    "c=1": RootStats(boundaries=185, points=4237, rounds=228, split_attempts=[45, 1] + [0] * 8,
                     newton_iterations=326, newton_failures=6, evaluations=68, reused=8362),
    "E5V4L2b": RootStats(boundaries=229, points=2560, rounds=431, split_attempts=[54, 3] + [0] * 8,
                         newton_iterations=413, newton_failures=12, noise_clusters=2,
                         evaluations=386, reused=3957),
}


@pytest.mark.parametrize("case, want", [
    ("c=0.3", dataclasses.replace(WOUND["c=0.3"], boundaries=29, points=2312, rounds=108,
                                  split_attempts=[6, 1] + [0] * 8, evaluations=113,
                                  reused=2864, guided=127, guide_steps=395)),
    ("c=3/5", dataclasses.replace(WOUND["c=3/5"], boundaries=29, points=2358, rounds=84,
                                  split_attempts=[6, 1] + [0] * 8, evaluations=95,
                                  reused=2964, guided=115, guide_steps=376)),
    ("c=1", dataclasses.replace(WOUND["c=1"], boundaries=29, points=2783, rounds=36,
                                split_attempts=[6, 1] + [0] * 8, evaluations=62,
                                reused=3976, guided=39, guide_steps=167)),
    ("E5V4L2b", dataclasses.replace(WOUND["E5V4L2b"], boundaries=59, points=1550, rounds=293,
                                    split_attempts=[11, 3] + [0] * 8, evaluations=329,
                                    reused=1578, guided=25, guide_steps=125, origin_guided=18,
                                    resampled=2)),
])
def test_root_stats_pinned(case, want, bench_graphs):
    """The work of count_in_disc is pinned: every boundary, evaluated and
    inherited sample, round, split, evaluation pass and located zero, on
    the circle at R = 20 (a crossing c among them) and on a graph of the
    benchmark pool at R = 8, whose zero of order 2 at k = 0 splits cells
    too.  Against winding every child, splits by located zeros (one to
    eight) or by k = 0 leave the Newton and cluster counters as they were,
    and the evaluation passes move by the polishes they add and the
    splits they empty."""
    stats = RootStats()
    count_in_disc(*_pinned_case(case, bench_graphs), stats=stats)
    assert stats == want


def _decline(p, cells, stats):
    """A locator that finds no zero, whatever a cell's winding."""
    return [()] * len(cells)


def _no_origin_order(monkeypatch):
    """Turn the split by k = 0 off: every polynomial's cached order at the
    origin reads 0."""
    monkeypatch.setattr(ExpPolynomial, "origin_order", property(lambda self: (0, 0j)))


@pytest.mark.parametrize("case", list(WOUND))
def test_root_stats_without_a_located_zero(case, bench_graphs, monkeypatch):
    """With the locator declining every cell and the order at k = 0 read
    as 0, every split winds its children, and the work is exactly what it
    was before cells were split by a zero."""
    monkeypatch.setattr(rootfind, "_locate", _decline)
    _no_origin_order(monkeypatch)
    stats = RootStats()
    count_in_disc(*_pinned_case(case, bench_graphs), stats=stats)
    assert stats == WOUND[case]


SAME_ANSWER_CASES = [("c=0.3", 20.0), ("c=0.3", 40.0), ("c=3/5", 20.0), ("c=3/5", 40.0),
                     ("c=1", 20.0), ("c=1", 40.0), ("E5V4L2b", 8.0)]
# the benchmark pool's graphs whose zero at k = 0 has order 2, their cycle
# rank; the seventh, E6V6L2b, has a simple zero there
ORIGIN_POOL = ["E5V4L2b", "E5V4L1b", "E6V5L2b", "E7V6L2b", "E7V6L1", "E6V5L1b"]


@pytest.mark.parametrize("case, radius", SAME_ANSWER_CASES)
def test_located_zeros_give_the_same_answer(case, radius, bench_graphs, monkeypatch):
    """Splitting winding-one cells by their located zero gives the repr
    and the Newton and cluster counters of winding every child, with
    less work."""
    p, _ = _pinned_case(case, bench_graphs)
    runs = []
    for locate in (_decline, rootfind._locate):
        monkeypatch.setattr(rootfind, "_locate", locate)
        stats = RootStats()
        runs.append((repr(count_in_disc(p, radius, stats=stats)), stats))
    (wound, s0), (located, s1) = runs
    assert located == wound
    for name in ("newton_iterations", "newton_failures", "noise_clusters", "outer_growths"):
        assert getattr(s1, name) == getattr(s0, name), name
    assert s0.guided == 0 < s1.guided
    assert s1.boundaries < s0.boundaries and s1.points < s0.points
    assert sum(s1.split_attempts) + s1.guided >= sum(s0.split_attempts)


def _send_back(monkeypatch):
    """Make _pick decline every cell that an earlier pick returned, that
    is every cell without sides: each is sampled afresh and split for real.
    Returns a list that gets, per cell sent back, whether its zero is
    k = 0."""
    pick = rootfind._pick
    picked = set()
    sent_back = []

    def first_pick_only(rect, zeros, origin):
        if rect in picked:
            sent_back.append(origin is not None and zeros == (0j,))
            return None
        kids = pick(rect, zeros, origin)
        picked.update(kid.rect for kid in kids or ())
        return kids
    monkeypatch.setattr(rootfind, "_pick", first_pick_only)
    return sent_back


@pytest.mark.parametrize("case, radius", SAME_ANSWER_CASES
                         + [(case, 8.0) for case in ORIGIN_POOL if case != "E5V4L2b"])
def test_chains_sent_back_give_the_same_answer(case, radius, bench_graphs, monkeypatch):
    """When every cell without sides finds its zero, located or k = 0, at a
    cut, each such cell is sampled afresh and split for real, and the repr
    is still that of winding every child."""
    p, _ = _pinned_case(case, bench_graphs)
    want = repr(count_in_disc(p, radius))
    sent_back = _send_back(monkeypatch)
    stats = RootStats()
    assert repr(count_in_disc(p, radius, stats=stats)) == want
    assert stats.resampled == len(sent_back)
    assert stats.guide_fallbacks == sent_back.count(False)
    # at c = 1 every cell without sides settles by its centre Newton
    assert sent_back or case == "c=1"
    if case in ORIGIN_POOL:
        assert any(sent_back)


@pytest.mark.parametrize("case", ["c=0.3", "c=3/5", "c=1", "E5V4L2b"])
def test_located_child_is_the_wound_child(case, bench_graphs, monkeypatch):
    """Every child picked by located zeros (one to eight) winds, when
    winding_numbers samples the four children of the midpoint split
    afresh, as many times as the located zeros it holds, which is the
    winding it is given; the other children wind zero."""
    p, radius = _pinned_case(case, bench_graphs)
    pick = rootfind._pick
    checked = []

    def wound(rect, zeros, origin):
        kids = pick(rect, zeros, origin)
        if kids is not None and zeros != (0j,):
            quad = rootfind._quad(rect, 0.0, 0.0)
            held = [sum(c[0] < k.real < c[1] and c[2] < k.imag < c[3] for k in zeros)
                    for c in quad]
            assert winding_numbers(p, list(quad)) == held, (rect, zeros)
            assert [(kid.rect, kid.w) for kid in kids] == [
                (c, w) for c, w in zip(quad, held) if w], (rect, zeros)
            checked.append(len(zeros))
        return kids
    monkeypatch.setattr(rootfind, "_pick", wound)
    stats = RootStats()
    count_in_disc(p, radius, stats=stats)
    assert len(checked) == stats.guided > 0
    assert checked.count(2) > 0 and checked.count(1) > 0
    if case in ("c=0.3", "c=3/5"):
        assert sum(n >= 3 for n in checked) > 0


def _exp_product(a):
    """prod_j (e^{ik} - a_j), whose simple zeros are the -i ln a_j (mod 2 pi)."""
    e = ExpPolynomial.monomial((1.0,), (1,))
    p = ExpPolynomial.constant((1.0,), 1.0)
    for aj in a:
        p = p * (e - ExpPolynomial.constant((1.0,), aj))
    return p


@pytest.mark.parametrize("gap", [1e-2, 1e-9])
def test_close_pair_is_split_by_its_zeros_or_refused(gap, monkeypatch):
    """p = (e^{ik} - a)(e^{ik} - b) has the simple zeros -i ln a and
    -i ln b, about |a - b| apart.  At 1e-2, the winding-two outer cell that
    holds both is split by its two located zeros.  At 1e-9 the pair sits
    in the evaluation noise of a double zero: every pair is refused,
    counted, and its cell split for real.  Either way the repr is that of
    winding every child."""
    a = cmath.exp(1j * complex(0.4, 0.3))
    b = a + gap * cmath.exp(0.7j)
    p = _exp_product([a, b])
    region = (-1.0, 2.0, -1.0, 1.0)
    stats = RootStats()
    located = repr(find_roots(p, region, stats=stats))
    monkeypatch.setattr(rootfind, "_locate", _decline)
    assert located == repr(find_roots(p, region))
    if gap == 1e-2:
        assert stats.pairs_refused == 0 and stats.guided > 0
    else:
        assert stats.pairs_refused > 0 and stats.guided == 0


FIVE = [cmath.exp(1j * k) for k in (0.1 + 0.2j, 0.9 - 0.3j, 1.3 + 0.5j, -0.4 - 0.6j, 0.2 + 0.7j)]


@pytest.mark.parametrize("gap", [None, 1e-9])
def test_five_zeros_are_split_by_their_zeros_or_refused(gap, monkeypatch):
    """p = prod_(j <= 5) (e^{ik} - a_j) has five simple zeros in the
    region, whose outer cell winds five times and is split by its five
    located zeros.  With a_2 moved to 1e-9 from a_1 the outer cell is
    refused, counted and split for real.  Either way the repr is that of
    winding every child."""
    a = list(FIVE)
    if gap is not None:
        a[1] = a[0] + gap * cmath.exp(0.7j)
    p = _exp_product(a)
    region = (-1.0, 2.0, -1.0, 1.0)
    pick = rootfind._pick
    picked = []

    def recorded(rect, zeros, origin):
        kids = pick(rect, zeros, origin)
        picked.append((rect, len(zeros), kids is not None))
        return kids
    with monkeypatch.context() as m:
        m.setattr(rootfind, "_pick", recorded)
        stats = RootStats()
        located = repr(find_roots(p, region, stats=stats))
    monkeypatch.setattr(rootfind, "_locate", _decline)
    assert located == repr(find_roots(p, region))
    if gap is None:
        assert picked[0] == (region, 5, True)
        assert stats.pairs_refused == 0 and sum(stats.split_attempts) == 0
    else:
        assert region not in [rect for rect, _, _ in picked]
        assert stats.pairs_refused > 0 and stats.split_attempts[0] > 0


def test_newton_gives_up_on_a_non_finite_iterate():
    """A Newton run from nan gives up after its first step, while the run
    beside it converges as it does alone."""
    p = det_poly(0.3)
    cell = (-1.0, 1.0, -1.0, 1.0)
    alone = rootfind._newton(p, [cell], [0.2 + 0.1j])
    roots, slopes, steps, passes = rootfind._newton(p, [cell, cell], [complex(math.nan), 0.2 + 0.1j])
    assert roots[0] is None and slopes[0] is None
    assert (roots[1:], slopes[1:]) == alone[:2]
    assert steps == alone[2] + 1 and passes == alone[3]


@pytest.mark.parametrize("w", range(1, 9))
def test_moment_roots_give_back_the_zeros(w):
    """From the power sums s_1..s_w of w points, _moment_roots gives the
    points back to rounding; for one point it gives s_1 itself, bit for
    bit, so a winding-one cell starts Newton at c + s_1."""
    rng = np.random.default_rng(w)
    zs = rng.uniform(-0.5, 0.5, (20, w)) + 1j * rng.uniform(-0.5, 0.5, (20, w))
    s = np.array([(zs ** j).sum(axis=1) for j in range(1, w + 1)])
    roots = rootfind._moment_roots(s)
    if w == 1:
        assert roots[:, 0].tolist() == s[0].tolist()
    for got, want in zip(roots.tolist(), zs.tolist()):
        assert max(min(abs(g - z) for g in got) for z in want) < 1e-9
        assert max(min(abs(g - z) for z in want) for g in got) < 1e-9


SAME_COUNTERS =("newton_iterations", "newton_failures", "noise_clusters", "outer_growths")


def _answer(p, radius, stats):
    """repr(count_in_disc(...)), or the text of its NonConvergenceError."""
    try:
        return repr(count_in_disc(p, radius, stats=stats))
    except NonConvergenceError as e:
        return "NonConvergenceError: %s" % e


def _with_and_without_origin(p, radius, monkeypatch):
    """(answer, RootStats) of count_in_disc with the split by k = 0, and
    then without it."""
    runs = []
    for off in (False, True):
        with monkeypatch.context() as m:
            if off:
                _no_origin_order(m)
            stats = RootStats()
            runs.append((_answer(p, radius, stats), stats))
    return runs


@pytest.mark.parametrize("case", ORIGIN_POOL)
def test_origin_splits_give_the_same_answer(case, bench_graphs, monkeypatch):
    """Splitting cells by the zero of order 2 at k = 0 gives the repr and
    the Newton and cluster counters of winding every child, with less
    work."""
    p = assemble(bench_graphs[case]).determinant()
    (guided, s1), (wound, s0) = _with_and_without_origin(p, 8.0, monkeypatch)
    assert guided == wound
    for name in SAME_COUNTERS:
        assert getattr(s1, name) == getattr(s0, name), name
    assert s0.origin_guided == 0 < s1.origin_guided
    assert s1.boundaries < s0.boundaries and s1.points < s0.points
    assert sum(s1.split_attempts) + s1.origin_guided >= sum(s0.split_attempts)


def test_origin_splits_give_the_same_answer_on_the_family(graph_family, monkeypatch):
    """The same on every family graph whose zero at k = 0 has order 2 or
    more, at R = 6, errors included: graph 16 names the same cell near
    k = -5.504 either way."""
    checked = []
    for i, g in enumerate(graph_family):
        p = assemble(g).determinant()
        if p.origin_order[0] < 2:
            continue
        (guided, s1), (wound, s0) = _with_and_without_origin(p, 6.0, monkeypatch)
        assert guided == wound, i
        for name in SAME_COUNTERS:
            assert getattr(s1, name) == getattr(s0, name), (i, name)
        assert s0.origin_guided == 0
        checked.append((i, s1.origin_guided, guided))
    assert sum(n > 0 for _, n, _ in checked) >= 10
    answers = {i: answer for i, _, answer in checked}
    assert answers[16].startswith("NonConvergenceError: zero count not conserved "
                                  "when splitting (-5.504")


@pytest.mark.parametrize("case", ORIGIN_POOL)
def test_origin_child_is_the_wound_child(case, bench_graphs, monkeypatch):
    """Every child picked by k = 0 is the one child of the midpoint split
    that winding_numbers, sampling all four afresh, gives the order m0 of
    the zero there; the other three wind zero."""
    p = assemble(bench_graphs[case]).determinant()
    m0 = p.origin_order[0]
    pick = rootfind._pick
    checked = []

    def wound(rect, zeros, origin):
        kids = pick(rect, zeros, origin)
        if kids is not None and zeros == (0j,):
            quad = rootfind._quad(rect, 0.0, 0.0)
            ws = winding_numbers(p, list(quad))
            (kid,) = kids
            assert kid.w == m0 and ws == [m0 * (c == kid.rect) for c in quad], (rect, ws)
            checked.append(kid)
        return kids
    monkeypatch.setattr(rootfind, "_pick", wound)
    stats = RootStats()
    count_in_disc(p, 8.0, stats=stats)
    assert len(checked) == stats.origin_guided > 0


def _level_by_level(p, cell, origin, tol, stats):
    """A _descend that walks nothing: the lone cell's child goes to the
    next level, which probes it and picks its child, one level per cell."""
    return 0, cell, [cell]


def _passes_saved(p, radius, monkeypatch):
    """(answer, evaluation passes saved) of count_in_disc with the one-pass
    descent of the last k = 0 chain against one level per cell, after
    checking that the answer and every other counter are the same."""
    runs = []
    for off in (False, True):
        with monkeypatch.context() as m:
            if off:
                m.setattr(rootfind, "_descend", _level_by_level)
            stats = RootStats()
            runs.append((_answer(p, radius, stats), stats))
    (answer, s1), (stepped, s0) = runs
    assert answer == stepped
    assert dataclasses.replace(s1, evaluations=s0.evaluations) == s0
    assert s1.evaluations <= s0.evaluations
    return answer, s0.evaluations - s1.evaluations


@pytest.mark.parametrize("case", ORIGIN_POOL)
def test_one_pass_descent_gives_the_same_answer(case, bench_graphs, monkeypatch):
    """Walking the last chain of cells split by k = 0 down in one probe
    pass gives the repr and every counter of one level per cell, with
    fewer evaluation passes."""
    p = assemble(bench_graphs[case]).determinant()
    assert _passes_saved(p, 8.0, monkeypatch)[1] > 0


def test_one_pass_descent_gives_the_same_answer_on_the_family(graph_family, monkeypatch):
    """The same on every family graph whose zero at k = 0 has order 2 or
    more, at R = 6, errors included: graph 16 still names the cell near
    k = -5.504, which a descent past the other cells' splits would not."""
    saved = {}
    for i, g in enumerate(graph_family):
        p = assemble(g).determinant()
        if p.origin_order[0] >= 2:
            saved[i] = _passes_saved(p, 6.0, monkeypatch)
    assert sum(n > 0 for _, n in saved.values()) >= 10
    assert saved[16][0].startswith("NonConvergenceError: zero count not conserved "
                                   "when splitting (-5.504")


def _recorded_cuts(monkeypatch):
    """Make _quadrisect record the cut point of every cell it splits, in
    order; returns the list."""
    quadrisect = rootfind._quadrisect
    cuts = []

    def recorded(p, quads, parents, stats):
        cuts.extend(complex(q[3][0], q[3][2]) for q in quads)
        return quadrisect(p, quads, parents, stats)
    monkeypatch.setattr(rootfind, "_quadrisect", recorded)
    return cuts


def test_no_cut_through_an_exact_zero(monkeypatch):
    """count_in_disc searches a rectangle symmetric about 0, whose midpoint
    cut would pass through k = 0, where det_poly(0.3) evaluates to exactly
    0.  That cell starts at its first retry, so no quadrisection cuts at
    0j, and the attempt it skips is not counted."""
    p = det_poly(0.3)
    assert p.eval(0j) == 0
    cuts = _recorded_cuts(monkeypatch)
    stats = RootStats()
    rep = count_in_disc(p, 10.0, stats=stats)
    assert 0j not in cuts and len(cuts) == sum(stats.split_attempts)
    K = rep.strip_bound
    outer = (-10.5, 10.5, -K - 0.5, K + 0.5)
    assert stats.outer_growths == 0
    assert cuts[0] == complex(*rootfind._quad(outer, *rootfind._JITTER[1])[3][::2])


def test_cut_through_zero_runs_where_p_is_not_zero(monkeypatch):
    """Where p(0) != 0, a rectangle symmetric about 0 is still cut at 0j
    first: p = (e^{ik} - a)(e^{ik} - b), zeros 0.4 + 0.3i and -0.6 - 0.2i,
    with the locator declining so that the outer cell is split for real."""
    p = _exp_product([cmath.exp(1j * complex(0.4, 0.3)), cmath.exp(1j * complex(-0.6, -0.2))])
    assert p.eval(0j) != 0
    monkeypatch.setattr(rootfind, "_locate", _decline)
    cuts = _recorded_cuts(monkeypatch)
    stats = RootStats()
    roots = find_roots(p, (-1.0, 1.0, -1.0, 1.0), stats=stats)
    assert cuts[0] == 0j and stats.split_attempts[0] >= 1
    assert [round(r.k.real, 9) + 1j * round(r.k.imag, 9) for r in roots] == [-0.6 - 0.2j,
                                                                              0.4 + 0.3j]


def test_level_mixing_a_cut_through_zero(monkeypatch):
    """In one _split, the cell cut through k = 0 (det_poly(0.3) is exactly
    0 there) starts at attempt 1 while the other runs attempt 0, and each
    gets the children it gets when split alone."""
    p = det_poly(0.3)
    rects = [(-1.0, 1.0, -0.5, 0.5), (1.5, 3.5, -0.7, 0.3)]
    ws, sides = rootfind._windings(p, rects, rootfind._MAX_ROUNDS, rootfind._MAX_POINTS,
                                   RootStats())
    assert ws == [4, 4]
    cells = [rootfind._Cell(rect, w, s, ()) for rect, w, s in zip(rects, ws, rootfind._sides(*sides))]
    cuts = _recorded_cuts(monkeypatch)
    stats = RootStats()
    both = rootfind._split(p, cells, stats)
    assert stats.split_attempts[:2] == [1, 1]
    assert cuts == [complex(*rootfind._quad(rects[1], 0.0, 0.0)[3][::2]),
                    complex(*rootfind._quad(rects[0], *rootfind._JITTER[1])[3][::2])]
    alone = [rootfind._split(p, [cell], RootStats())[0] for cell in cells]
    assert ([[(kid.rect, kid.w) for kid in kids] for kids in both]
            == [[(kid.rect, kid.w) for kid in kids] for kids in alone])


@pytest.mark.parametrize("sent_back", [False, True], ids=["picked", "sent-back"])
@pytest.mark.parametrize("case", ["c=0.3", "c=3/5", "c=1", *ORIGIN_POOL])
def test_frontier_cells_have_sides_or_a_zero(case, sent_back, bench_graphs, monkeypatch):
    """Every cell of every level's frontier has sides and no zeros, or a
    tuple of the known zeros it holds (1 to 8 located zeros, as many as it
    winds, or (0j,) for k = 0) and no sides, also when cells without sides
    are sent back to a real split (see _send_back), whose children start
    with no zeros."""
    p, radius = _pinned_case(case, bench_graphs)
    if sent_back:
        sent = _send_back(monkeypatch)
    settle = rootfind._settle
    zeros = []

    def checked(p, frontier, tol, stats):
        for cell in frontier:
            assert type(cell.zeros) is tuple, cell
            assert (cell.sides is None) == (cell.zeros != ()), cell
            assert all(type(k) is complex for k in cell.zeros), cell
            assert cell.zeros in ((), (0j,)) or len(cell.zeros) == cell.w, cell
            zeros.append(cell.zeros)
        return settle(p, frontier, tol, stats)
    monkeypatch.setattr(rootfind, "_settle", checked)
    count_in_disc(p, radius)
    assert () in zeros and any(len(ks) == 1 and ks != (0j,) for ks in zeros)
    if case in ORIGIN_POOL:
        assert (0j,) in zeros
    if case in ("c=0.3", "c=3/5"):
        assert any(len(ks) == 2 for ks in zeros)
    if sent_back:
        assert sent or case == "c=1"


def test_pick_matches_the_picks_it_replaces():
    """_pick returns the child, or None, of the two picks it replaces
    (rootfind_oracle._pick for a located zero, rootfind_oracle._origin_pick
    for k = 0), on seeded cells from 1e-9 to 3 wide, and on the same cells
    centred on 0, whose cuts are 0.0: located zeros anywhere in them, on,
    next to and either side of the margins, also on tiny cells where the
    1e-12 floor is the margin; and k = 0 strictly inside, with orders 2 and
    4 and radii r0 that put the cuts on, inside and outside the margin."""
    rng = np.random.default_rng(20261019)
    got = {"located": [], "origin": []}
    floors = exact = 0
    for x0, x1, y0, y1 in _cells(rng, 300):
        w, h = x1 - x0, y1 - y0
        for rect in ((x0, x1, y0, y1), (-0.5 * w, 0.5 * w, -0.5 * h, 0.5 * h)):
            xc, yc = rootfind._quad(rect, 0.0, 0.0)[0][1::2]
            ks = [complex(rng.uniform(rect[0], rect[1]), rng.uniform(rect[2], rect[3]))
                  for _ in range(3)]
            for k in list(ks):
                floor = 1e-12 * max(1.0, abs(k))
                gap_x, gap_y = max(1e-6 * w, floor), max(1e-6 * h, floor)
                for sign in (-1.0, 1.0):
                    for x in (xc + sign * gap_x, xc + 0.5 * sign * gap_x, xc + 2.0 * sign * gap_x):
                        ks += [complex(x, k.imag), complex(np.nextafter(x, sign * math.inf), k.imag)]
                    for y in (yc + sign * gap_y, yc + 0.5 * sign * gap_y, yc + 2.0 * sign * gap_y):
                        ks += [complex(k.real, y), complex(k.real, np.nextafter(y, sign * math.inf))]
            for k in ks:
                floor = 1e-12 * max(1.0, abs(k))
                floors += floor > 1e-6 * min(w, h)
                exact += abs(k.real - xc) == max(1e-6 * w, floor)
                want = oracle._pick(rect, k)
                for origin in (None, (2, 1e-3), (4, 1e-3)):
                    kids = rootfind._pick(rect, (k,), origin)
                    assert kids == (want and [rootfind._Cell(want, 1, None, (k,))]), (rect, k)
                got["located"].append(want)
        # the cell moved to hold k = 0 strictly inside
        u, v = rng.uniform(0.05, 0.95, 2)
        rect = (-u * w, (1.0 - u) * w, -v * h, (1.0 - v) * h)
        if not (rect[0] < 0.0 < rect[1] and rect[2] < 0.0 < rect[3]):
            continue
        xc, yc = rootfind._quad(rect, 0.0, 0.0)[0][1::2]
        for m in (2, 4):
            for r0 in (0.0, 1e-300, 1e-12 * math.hypot(w, h), rng.uniform(0.0, 0.6) * min(w, h),
                       abs(xc) / 2, abs(yc) / 2, np.nextafter(min(abs(xc), abs(yc)) / 2, 0.0)):
                want = oracle._origin_pick(rect, (m, r0))
                kids = rootfind._pick(rect, (0j,), (m, r0))
                assert kids == (want and [rootfind._Cell(want, m, None, (0j,))]), (rect, m, r0)
                got["origin"].append(want)
    for kind, picks in got.items():
        assert any(kid is None for kid in picks) and any(kid is not None for kid in picks), kind
    assert floors > 0 and exact > 0


def test_fresh_winding_that_disagrees_is_an_error(bench_graphs, monkeypatch):
    """A cell without sides that is split for real is sampled afresh, and
    its fresh winding must be the one it was split off with; if not, the
    search stops with a NonConvergenceError, which python -O keeps."""
    p = assemble(bench_graphs["E5V4L2b"]).determinant()
    windings = rootfind._windings
    calls = []

    def off_by_one(p, rects, *args, **kwargs):
        # the first call is the outer rectangle's, the later ones resample
        out, sides = windings(p, rects, *args, **kwargs)
        calls.append(rects)
        if len(calls) > 1:
            out = [w + 1 for w in out]
        return out, sides
    monkeypatch.setattr(rootfind, "_windings", off_by_one)
    with pytest.raises(NonConvergenceError, match=r"winds 3 when sampled afresh, not 2$"):
        count_in_disc(p, 8.0)
    assert len(calls) == 2


# the order of the zero at k = 0, by test id
ORIGIN_ORDERS = {**dict.fromkeys(ORIGIN_POOL, 2), "E6V6L2b": 1, "E6V3L1-rank4": 4,
                 "circle c=0.3": 1, "circle c=1": 1, "sin(pi k)^2": 2}


@pytest.mark.parametrize("case", list(ORIGIN_ORDERS))
def test_origin_order_by_high_precision_evaluation(case, bench_graphs):
    """The exact order m and coefficient c_m at k = 0 agree with p(eps) /
    eps^m -> c_m i^m / m!, p summed term by term at 50 digits with
    mpmath: a lower order would make the quotient blow up, a higher one
    c_m vanish."""
    mpmath = pytest.importorskip("mpmath")
    if case.startswith("circle"):
        p = det_poly(float(case.rpartition("=")[2]))
    elif case == "sin(pi k)^2":
        p = sin_pi_poly() * sin_pi_poly()
    else:
        p = assemble(bench_graphs[case]).determinant()
    m, c = p.origin_order
    assert m == ORIGIN_ORDERS[case]
    with mpmath.workdps(50):
        eps = mpmath.mpf(2) ** -30
        lengths = [mpmath.mpf(L) for L in p.lengths]
        value = mpmath.fsum(mpmath.mpc(complex(a)) * mpmath.expj(eps * mpmath.fsum(
            n * L for n, L in zip(vec, lengths))) for vec, a in p.terms.items())
        got = complex(value / eps ** m)
    want = c * 1j ** m / math.factorial(m)
    assert abs(got - want) <= 1e-6 * abs(want), (got, want)


def _pinned_case(case, bench_graphs):
    """(p, radius) of a case of test_root_stats_pinned."""
    if case.startswith("c="):
        c = {"c=0.3": 0.3, "c=3/5": crossing_values("odd", 5)[-2].c, "c=1": 1.0}[case]
        return det_poly(float(c)), 20.0
    return assemble(bench_graphs[case]).determinant(), 8.0


# the circle at R = 40, at a crossing c and at a small c, by test id
AT_R40 = {"c=1/3 R=40": 1 / 3, "c=0.05 R=40": 0.05}


@pytest.mark.parametrize("case", ["c=0.3", "c=3/5", "c=1", "E5V4L2b", *AT_R40,
                                  "E6V5L2b", "E7V6L1"])
def test_inherited_windings_match_fresh_sampling(case, bench_graphs, monkeypatch):
    """Every child winding that a split computes on sides inherited from
    its parent and shared with its siblings is the int, or the suspicion,
    that winding_numbers gives on the same rectangle sampled afresh.  An
    inherited half may hold fewer segments than a fresh side of its length,
    so this checks that a winding does not depend on how densely its sides
    are sampled."""
    if case in AT_R40:
        p, radius = det_poly(AT_R40[case]), 40.0
    else:
        p, radius = _pinned_case(case, bench_graphs)
    quadrisect = rootfind._quadrisect
    compared = []

    def checked(p, quads, parents, stats):
        ws, children = quadrisect(p, quads, parents, stats)
        kids = [kid for kids in quads for kid in kids]
        for kid, w, fresh in zip(kids, ws, winding_numbers(p, kids)):
            if isinstance(fresh, BoundaryZeroSuspected):
                assert isinstance(w, BoundaryZeroSuspected), kid
                assert str(w) == str(fresh)
            else:
                assert w == fresh and type(w) is int, kid
            compared.append(w)
        return ws, children
    monkeypatch.setattr(rootfind, "_quadrisect", checked)
    stats = RootStats()
    count_in_disc(p, radius, stats=stats)
    assert len(compared) == stats.boundaries - 1 - stats.outer_growths - stats.resampled
    assert stats.reused > stats.points


def test_huge_rectangle_is_refused_without_sampling():
    """A boundary whose initial grid alone exceeds max_points is suspected
    before anything is allocated: a side of 1e19 would take some 4e19
    samples (its segment count used to wrap to a negative number, which
    left the side with 4 segments)."""
    stats = RootStats()
    tracemalloc.start()
    try:
        ws = winding_numbers(sin_pi_poly(), [(0.5, 1e19, -1.0, 1.0), (0.6, 1.4, -0.4, 0.4)],
                             stats=stats)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert isinstance(ws[0], BoundaryZeroSuspected)
    assert str(ws[0]) == "refinement exploded on (0.5, 1e+19, -1.0, 1.0)"
    assert ws[1] == 1
    assert stats.boundaries == 2 and stats.points < 100
    assert peak < 1 << 20
    with pytest.raises(BoundaryZeroSuspected, match="refinement exploded"):
        winding_number(sin_pi_poly(), (0.5, 1e19, -1.0, 1.0))
    # 16 initial samples: within a budget of 16, over one of 15
    assert winding_numbers(sin_pi_poly(), [(0.6, 1.4, -0.4, 0.4)], max_points=16) == [1]
    ws = winding_numbers(sin_pi_poly(), [(0.6, 1.4, -0.4, 0.4)], max_points=15)
    assert str(ws[0]) == "refinement exploded on (0.6, 1.4, -0.4, 0.4)"


def test_jitter_table_is_the_seeded_draw():
    """The written-out retry offsets are the seed-1729 draw they replace, bit
    for bit, so every retry sequence, and every root, is what it was."""
    want = np.random.default_rng(1729).uniform(-1.0, 1.0, size=(16, 2))
    got = np.array(rootfind._JITTER)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_cells_hold_plain_floats():
    """Cells below a grown outer rectangle or a re-placed cut hold Python
    floats, as every other cell does."""
    s = RootStats()
    roots = find_roots(sin_pi_poly(), (-2.0, 2.0, 0.0, 1.0), stats=s)
    assert s.outer_growths >= 1
    s = RootStats()
    roots += find_roots(sin_pi_poly() * sin_pi_poly(), (-2.5, 2.5, -1.0, 1.0), stats=s)
    assert sum(s.split_attempts[1:]) >= 1
    for r in roots:
        assert [type(v) for v in r.cell] == [float] * 4, r
        assert type(r.k) is complex and type(r.residual) is float, r
    assert all(type(v) is float for row in rootfind._JITTER for v in row)


def test_found_cells_share_equal_corners():
    """The cells of the resonances found hold one float object per nonzero
    corner value, so that results kept in bulk stay small; a zero corner
    keeps its sign."""
    roots = count_in_disc(det_poly(0.3), 20.0).roots
    corners = [v for r in roots for v in r.cell if v]
    assert len({id(v) for v in corners}) == len(set(corners)) < len(corners) / 2
    # zeros at 0.5 - 0.2i and 1.5 - 0.2i, in a region whose left side is at
    # -0.0 and whose top side is at 0.0
    e = ExpPolynomial.monomial((1.0,), (1,))
    p = ExpPolynomial.constant((1.0,), 1.0)
    for x in (0.5, 1.5):
        p = p * (e - ExpPolynomial.constant((1.0,), cmath.exp(1j * complex(x, -0.2))))
    (left, x1, y0, top), _ = [r.cell for r in find_roots(p, (-0.0, 2.0, -1.0, 0.0))]
    assert (left, x1, y0, top) == (0.0, 1.0, -0.5, 0.0)
    assert math.copysign(1.0, left) == -1.0 and math.copysign(1.0, top) == 1.0


def test_root_stats_count_every_evaluation_pass(monkeypatch):
    """evaluations is the number of array evaluations the search runs, none
    of them on zero points."""
    calls = []
    for name in ("eval", "eval_pair"):
        method = getattr(ExpPolynomial, name)

        def counted(self, k, _method=method):
            calls.append(np.size(k))
            return _method(self, k)
        monkeypatch.setattr(ExpPolynomial, name, counted)
    for p, radius in ((det_poly(1 / 3), 10.0), (sin_pi_poly() * sin_pi_poly(), 2.5)):
        del calls[:]
        stats = RootStats()
        count_in_disc(p, radius, stats=stats)
        assert stats.evaluations == len(calls) > 0
        assert min(calls) > 0


def _cells(rng, n):
    x0 = rng.uniform(-8.0, 8.0, n)
    y0 = rng.uniform(-3.0, 3.0, n)
    w = 10.0 ** rng.uniform(-9.0, 0.5, (2, n))
    return list(zip(x0.tolist(), (x0 + w[0]).tolist(), y0.tolist(), (y0 + w[1]).tolist()))


def test_noise_floor_matches_the_per_term_loop(bench_polys):
    """One exponential pass, summed in terms order, gives the per-term
    loop's floor bit for bit, also when terms is not in dump order."""
    rng = np.random.default_rng(12)
    polys = list(bench_polys)
    for _ in range(4):
        vecs = {tuple(int(n) for n in rng.integers(-3, 4, 3)) for _ in range(40)}
        terms = {v: complex(*rng.normal(size=2)) if rng.random() < 0.5
                 else int(rng.integers(1, 2**62)) * 2**10 for v in vecs}
        polys.append(ExpPolynomial((0.6, 1.1, 1.7), terms))
    for p in polys:
        for n in (1, 7, 64):
            cells = _cells(rng, n)
            got = rootfind._noise_floor(p, cells)
            want = eval_oracle.noise_floor(p, cells)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
