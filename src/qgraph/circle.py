"""Circle of circumference 2*pi with two leads, as a one-parameter family.

The two lead feet split the circle into arcs of length (1-c)*pi and (1+c)*pi,
c in [0, 1].  At c = 0 the feet are antipodal; as c grows one arc contracts
until at c = 1 both leads sit at the same point and the circle hangs there as
a loop of length 2*pi (modeled tadpole-free as two pi-edges to a spare
degree-2 vertex, which leaves the resonances unchanged).

The determinant of the vertex-condition matrix factors, up to a constant
sign, into the two parity components

    f_even(k, c) = i cos(k c pi) + i cos(k pi) + 2 sin(k pi)
    f_odd(k, c)  = i cos(k c pi) - i cos(k pi) - 2 sin(k pi)

(det A = s * 4 * f_even * f_odd), splitting the resonances into curves k_n(c)
that start at c = 0 from n - i log(3)/pi, n matching the parity.  Odd-parity
curves stay bounded and end on the real axis at c = 1; even-parity curves
touch the real axis finitely often and then dive to -i*infinity, which is the
transition from Weyl counting (every c < 1) to non-Weyl counting (c = 1).

A curve touching the real axis means a genuine embedded eigenvalue at an
integer k; the touch parameters are rational with small denominator and come
from the closed formulas in crossing_values.
"""

import math
from collections import namedtuple
from fractions import Fraction

import numpy as np

from .constraint import assemble
from .errors import NonConvergenceError
from .exppoly import ExpPolynomial
from .graph import MetricGraph

CircleParams = namedtuple("CircleParams", "c rho1 rho2")
CrossingValue = namedtuple("CrossingValue", "k c")
Crossing = namedtuple("Crossing", "c k")
ResonanceCurve = namedtuple("ResonanceCurve", "parity n samples crossings diverged last_c")

DIVERGENCE_HEIGHT = 10.0
STEP_UNDERFLOW = 1e-13     # continuation step is gone at this gap to c = 1
TOUCH_SCAN_HEIGHT = 1e-3   # a sample this close to the axis may be a touch
TOUCH_IM_TOL = 1e-8
MIN_REFINE_STEP = 1e-5


def params(c):
    c = float(c)
    if not 0.0 <= c <= 1.0:
        raise ValueError("surgery parameter must lie in [0, 1], got %r" % c)
    return CircleParams(c=c, rho1=(1.0 - c) * math.pi, rho2=(1.0 + c) * math.pi)


def build_graph(c):
    """Two-lead circle at parameter c (accepts a float or CircleParams).

    Vertices are named v1, v2 with one lead each; both arcs run from v2 to
    v1.  At c = 1 the short arc has contracted and v2 carries both leads
    (balanced: two edges, two leads); v1 survives as the spare degree-2
    vertex splitting the 2*pi loop into the two pi-edges.
    """
    p = c if isinstance(c, CircleParams) else params(c)
    if p.c == 1.0:
        return MetricGraph(2, [(0, 1, math.pi), (0, 1, math.pi)],
                           leads=[1, 1], vertex_names=["v1", "v2"])
    return MetricGraph(2, [(1, 0, p.rho1), (1, 0, p.rho2)],
                       leads=[0, 1], vertex_names=["v1", "v2"])


def det_poly(c):
    """Exact determinant expansion of the vertex-condition matrix at c."""
    return assemble(build_graph(c)).determinant()


# -- parity components, scalar and exact forms --------------------------------

def f_even(k, c):
    k = np.asarray(k, dtype=complex) if np.ndim(k) else complex(k)
    return 1j * np.cos(k * c * np.pi) + 1j * np.cos(k * np.pi) + 2 * np.sin(k * np.pi)


def f_odd(k, c):
    k = np.asarray(k, dtype=complex) if np.ndim(k) else complex(k)
    return 1j * np.cos(k * c * np.pi) - 1j * np.cos(k * np.pi) - 2 * np.sin(k * np.pi)


def _f_even_dk(k, c):
    return (-1j * c * np.pi * np.sin(k * c * np.pi)
            - 1j * np.pi * np.sin(k * np.pi) + 2 * np.pi * np.cos(k * np.pi))


def _f_odd_dk(k, c):
    return (-1j * c * np.pi * np.sin(k * c * np.pi)
            + 1j * np.pi * np.sin(k * np.pi) - 2 * np.pi * np.cos(k * np.pi))


def f_even_poly(c):
    """f_even(., c) as an ExpPolynomial over the table (c*pi, pi)."""
    c = float(c)
    return ExpPolynomial((c * math.pi, math.pi),
                         {(1, 0): 0.5j, (-1, 0): 0.5j, (0, 1): -0.5j, (0, -1): 1.5j})


def f_odd_poly(c):
    c = float(c)
    return ExpPolynomial((c * math.pi, math.pi),
                         {(1, 0): 0.5j, (-1, 0): 0.5j, (0, 1): 0.5j, (0, -1): -1.5j})


FactorizationReport = namedtuple("FactorizationReport",
                                 "c samples seed sign max_residual")


def verify_factorization(c, n_samples=50, seed=0):
    """Compare det A(k, c) against s * 4 * f_even * f_odd at random points.

    The constant s is calibrated to +-1 at the first sample; the report
    carries the largest relative mismatch over the batch.
    """
    c = float(c)
    if not 0.0 <= c < 1.0:
        raise ValueError("factorization needs c in [0, 1), got %r" % c)
    poly = det_poly(c)
    rng = np.random.default_rng(seed)
    ks = rng.uniform(-5, 5, n_samples) + 1j * rng.uniform(-2, 2, n_samples)
    det_vals = poly.eval(ks)
    fac_vals = 4.0 * f_even(ks, c) * f_odd(ks, c)
    ratio = det_vals[0] / fac_vals[0]
    sign = 1 if ratio.real > 0 else -1
    num = np.abs(det_vals - sign * fac_vals)
    den = np.maximum(np.abs(det_vals), np.abs(fac_vals))
    worst = float(np.max(num / np.maximum(den, 1e-300)))
    return FactorizationReport(c=c, samples=n_samples, seed=seed,
                               sign=sign, max_residual=worst)


# -- real-axis crossings ------------------------------------------------------

def crossing_values(parity, k_max):
    """All pairs (k, c), k <= k_max, with the parity component zero at the
    real integer k.

    Closed-form families over integer pairs m >= n >= 1:
      odd:  k = m + n,     c = (m - n) / (m + n),
            plus the n = 0 limit, the boundary value c = 1 at every k;
      even: k = m + n - 1, c = (m - n) / (m + n - 1).
    c comes back as a Fraction, the list deduplicated and sorted by (k, c).
    Every entry satisfies f_parity(k, c) = 0 to 1e-12.
    """
    k_max = int(k_max)
    if k_max < 1:
        raise ValueError("k_max must be at least 1, got %r" % k_max)
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd', got %r" % (parity,))
    found = set()
    if parity == "odd":
        for k in range(1, k_max + 1):
            found.add(CrossingValue(k=k, c=Fraction(1)))
            for n in range(1, k // 2 + 1):
                found.add(CrossingValue(k=k, c=Fraction(k - 2 * n, k)))
    else:
        for k in range(1, k_max + 1):
            for n in range(1, (k + 1) // 2 + 1):
                found.add(CrossingValue(k=k, c=Fraction(k + 1 - 2 * n, k)))
    out = sorted(found)
    f = f_even if parity == "even" else f_odd
    for r in out:
        assert abs(f(float(r.k), float(r.c))) < 1e-12, \
            "crossing formula and parity component disagree at %r" % (r,)
    return out


# -- curve continuation -------------------------------------------------------

def _corrector(f, df, k, c, tol=1e-12):
    prev = None
    for _ in range(60):
        d = df(k, c)
        if d == 0:
            return None
        step = f(k, c) / d
        k = k - step
        s = abs(step)
        if s <= tol * max(1.0, abs(k)):
            return k
        if prev is not None and s >= 0.5 * prev and s <= 1e-6 * max(1.0, abs(k)):
            # stalled on the rounding floor of f; deep on the even dive
            # |df| shrinks with the gap to c = 1 and the floor rises well
            # above tol, so take the iterate as converged
            return k
        prev = s
    return None


def trace_curve(parity, n, c_grid, divergence_height=DIVERGENCE_HEIGHT):
    """Follow the resonance curve k_n(c) of one parity component.

    Starts from the closed-form root n - i log(3)/pi at c = 0 and continues
    it by secant prediction plus Newton correction over the increasing grid
    (all values in [0, 1)); segments where the corrector fails are bisected
    down to steps of 1e-5 before giving up.  Samples with Im k near zero are
    checked for tangential touches of the real axis against the closed-form
    candidates of crossing_values in the grid interval around them: a
    candidate at which the corrector lands within 1e-8 of the real axis is
    recorded as a crossing at its exact rational c (see _detect_touches).

    Even-parity curves sink for good once the short arc gets small: after the
    grid is exhausted the tracer keeps halving the distance to c = 1 and sets
    the diverged flag once -Im k exceeds divergence_height, or once the
    continuation stalls at rounding distance from c = 1 (step underflow below
    1e-13, or corrector loss inside gap 1e-9 where the Newton residual is
    dominated by rounding in exp(pi * |Im k|)) with the curve still sinking.
    Odd curves are bounded and are never extended.
    """
    if parity not in ("even", "odd"):
        raise ValueError("parity must be 'even' or 'odd', got %r" % (parity,))
    n = int(n)
    if not (n >= 1 and n % 2 == (0 if parity == "even" else 1)):
        raise ValueError("curve index %d does not match parity %r" % (n, parity))
    grid = [float(c) for c in c_grid]
    if not (grid and all(0.0 <= c < 1.0 for c in grid)):
        raise ValueError("grid must be non-empty and lie in [0, 1)")
    if not all(b > a for a, b in zip(grid, grid[1:])):
        raise ValueError("grid must increase")
    f = f_even if parity == "even" else f_odd
    df = _f_even_dk if parity == "even" else _f_odd_dk

    k0 = n - 1j * math.log(3.0) / math.pi
    if grid[0] != 0.0:
        k0 = _corrector(f, df, k0, grid[0])
        if k0 is None:
            raise NonConvergenceError("no starting root at c = %r" % grid[0])
    samples = [(grid[0], k0)]

    def advance(c_next):
        c_prev, k_prev = samples[-1]
        if len(samples) >= 2:
            c_pp, k_pp = samples[-2]
            k_guess = k_prev + (k_prev - k_pp) * (c_next - c_prev) / (c_prev - c_pp)
        else:
            k_guess = k_prev
        k_new = _corrector(f, df, k_guess, c_next)
        if k_new is not None and abs(k_new - k_prev) < 0.5:
            samples.append((c_next, k_new))
            return
        if c_next - c_prev <= MIN_REFINE_STEP:
            raise NonConvergenceError("curve lost near c = %r" % c_next)
        advance(0.5 * (c_prev + c_next))
        advance(c_next)

    for c in grid[1:]:
        advance(c)

    diverged = False
    if parity == "even":
        c = samples[-1][0]
        for _ in range(80):
            if -samples[-1][1].imag > divergence_height:
                diverged = True
                break
            gap = 1.0 - c
            if gap < STEP_UNDERFLOW:
                diverged = True
                break
            c = 1.0 - 0.5 * gap
            try:
                advance(c)
            except NonConvergenceError:
                # This close to c = 1 the curve only sinks and |f| at the
                # root is below the rounding noise of the exponentially
                # large terms, so the corrector cannot be expected to
                # settle; treat the stall like the step underflow above.
                sinking = (len(samples) >= 2
                           and samples[-1][1].imag < samples[-2][1].imag)
                if gap < 1e-9 and sinking:
                    diverged = True
                    break
                raise

    crossings = _detect_touches(f, df, samples, parity)
    return ResonanceCurve(parity=parity, n=n, samples=tuple(samples),
                          crossings=tuple(crossings), diverged=diverged,
                          last_c=samples[-1][0])


def _detect_touches(f, df, samples, parity):
    """Touches of the real axis along the traced samples, as Crossings.

    A sample is a scan hit when it lies within TOUCH_SCAN_HEIGHT of the real
    axis at a local minimum of the depth -Im k, and at least 1e-4 in c away
    from the last touch.  No search in c is needed to confirm a hit: for real
    k the 2 sin(k pi) part of the parity component is real and the
    i (cos(k c pi) +- cos(k pi)) part is imaginary, so both vanish at a touch.
    The first forces an integer k, and the second then puts c on an entry of
    crossing_values.  So the candidates at a hit are the closed-form
    crossings (k_int, c) with k_int the integer nearest the sample and c in
    the grid interval around it; the first candidate at which the corrector,
    started from the sample, converges within TOUCH_IM_TOL of the real axis
    near k_int is the touch.
    """
    cs = [c for c, _ in samples]
    ys = [-k.imag for _, k in samples]
    touches = []
    for j in range(1, len(samples) - 1):
        if ys[j] > TOUCH_SCAN_HEIGHT:
            continue
        if not (ys[j] <= ys[j - 1] and ys[j] <= ys[j + 1]):
            continue
        if touches and abs(cs[j] - touches[-1].c) < 1e-4:
            continue
        k_seed = samples[j][1]
        k_int = round(k_seed.real)
        for cand in crossing_values(parity, max(k_int, 1)):
            if cand.k != k_int or not cs[j - 1] <= cand.c <= cs[j + 1]:
                continue
            k_star = _corrector(f, df, k_seed, float(cand.c))
            if (k_star is not None and abs(k_star.imag) <= TOUCH_IM_TOL
                    and round(k_star.real) == k_int):
                touches.append(Crossing(c=float(cand.c), k=float(k_int)))
                break
    return touches
