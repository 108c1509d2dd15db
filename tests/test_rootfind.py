import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
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


def test_find_roots_thread_env_agrees(monkeypatch):
    region = (-2.5, 2.5, -1.0, 0.1)
    base = find_roots(det_poly(0.0), region)
    monkeypatch.setenv("QGRAPH_THREADS", "0")
    threaded = find_roots(det_poly(0.0), region)
    assert threaded == base
    monkeypatch.setenv("QGRAPH_THREADS", "-2")
    with pytest.raises(ValueError):
        find_roots(det_poly(0.0), region)


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
    with pytest.raises(ValueError, match="two radii"):
        weyl_coefficient(p, radii=[10.0])


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
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            count_in_disc(p, 5.0, tol=tol)


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


# -- work counters ------------------------------------------------------------

def test_root_stats_deterministic_and_inert(monkeypatch):
    p = det_poly(1 / 3)
    plain = count_in_disc(p, 10.0)
    runs = []
    for threads in ("1", "1", "4"):
        monkeypatch.setenv("QGRAPH_THREADS", threads)
        stats = RootStats()
        assert count_in_disc(p, 10.0, stats=stats) == plain
        runs.append(stats)
    assert runs[0] == runs[1] == runs[2]
    s = runs[0]
    assert s.boundaries == 1 + 4 * sum(s.split_attempts)
    assert s.points >= 16 * s.boundaries and s.rounds > 0
    assert s.split_attempts[0] > 0 and s.outer_growths == 0
    assert s.newton_iterations > 0 and s.noise_clusters == 0


def test_root_stats_add_loses_no_update_across_threads():
    # more threads than cores and frequent switches, as when QGRAPH_THREADS
    # workers count into one RootStats
    stats = RootStats()

    def work():
        for _ in range(20000):
            stats.add(points=1, rounds=2)
            stats.add_split_attempt(1, 1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert (stats.points, stats.rounds, stats.split_attempts[1]) == (160000, 320000, 160000)


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


def test_jitter_table_is_the_seeded_draw():
    """The written-out retry offsets are the seed-1729 draw they replace, so
    every retry sequence, and every root, is what it was."""
    want = np.random.default_rng(1729).uniform(-1.0, 1.0, size=(16, 2))
    assert rootfind._JITTER.dtype == want.dtype
    assert np.array_equal(rootfind._JITTER, want)


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
