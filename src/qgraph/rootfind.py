"""Zero location for exponential polynomials by the argument principle.

The count of zeros (with multiplicity) inside a rectangle equals the winding
number of p around the rectangle's boundary.  Rectangles with winding one are
handed to Newton; higher windings are quadrisected until either the zeros
separate or the cell diameter drops below tolerance, in which case the cell is
reported as a single zero of that multiplicity.  Winding numbers of the four
children must add up to the parent's; when they do not (a zero sits on a cut
line) the cut is re-placed with a small deterministic offset and the split is
retried, so results are reproducible run to run.

The subdivision runs level by level, and each level is evaluated in batches:
the child boundaries of up to _LEVEL_CHUNK cells are refined together by one
winding_numbers call on their concatenated polylines, with one
value-and-derivative pass (ExpPolynomial.eval_pair) per refinement round, and
the Newton iterations and noise-floor probes of a level share one pass per
step.  Every decision is still taken per boundary and per cell with the
arithmetic of a one-at-a-time search, so the zeros found do not depend on the
batching.  QGRAPH_THREADS splits a level's chunks across threads.
"""

import math
import os
import threading
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryZeroSuspected, NonConvergenceError

Resonance = namedtuple("Resonance", "k multiplicity residual cell refined")
CountReport = namedtuple("CountReport", "R count roots strip_bound origin_zero")

# fixed offset table for re-placing cut lines / growing the outer rectangle,
# so that every run walks the same retry sequence; the values are
# numpy.random.default_rng(1729).uniform(-1.0, 1.0, size=(16, 2)), written
# out so that no qgraph process has to import numpy.random
_JITTER = np.array([
    [-0.9385159407896639, -0.6630850404701072],
    [-0.4120991059094672, 0.15250381970361726],
    [0.6247437528893673, 0.9527126292133392],
    [-0.06999705078287288, -0.7118615780141235],
    [0.8317834302553215, -0.2799135365268828],
    [-0.8935374509944636, -0.6769974289473557],
    [-0.4729177861638503, 0.3725182242692584],
    [0.020016654102197107, 0.8939276245932366],
    [-0.7284196091816064, -0.2675189371311004],
    [-0.3511401789897395, -0.5500077994568566],
    [0.3914694769770577, 0.30499922254050005],
    [0.8878891602094368, -0.5547568236050311],
    [0.82662472659159, -0.8787524390833232],
    [0.060264246096984, -0.2743350369340716],
    [-0.23096355358834564, 0.3130710448841667],
    [-0.33154116772521003, -0.6001045979072097],
])
_MAX_SPLIT_ATTEMPTS = 10
_MAX_OUTER_ATTEMPTS = 8
_NEWTON_ITERS = 60
# cells of one level whose children are refined in one batch: whole levels
# measured no faster beyond the noise, and they double the batch arrays' peak
_LEVEL_CHUNK = 16


@dataclass
class RootStats:
    """Work counters of one or more find_roots / count_in_disc calls, filled
    in when passed as ``stats=``.

    boundaries: rectangle boundaries whose winding number was evaluated.
    points: boundary samples evaluated, initial and inserted.
    rounds: refinement rounds that inserted midpoints, summed over boundaries.
    split_attempts: entry a counts the cells whose quadrisection ran attempt
        a; entry 0 is every split, entries a >= 1 are retries.
    outer_growths: times the outer search rectangle was grown off a
        suspected boundary zero.
    newton_iterations, newton_failures: Newton steps over all winding-one
        cells, and the cells where Newton gave up.
    noise_clusters: cells reported as clusters because |p| at their probe
        points stayed at the evaluation noise floor.
    evaluations: evaluation passes (calls of ExpPolynomial.eval_pair or
        eval on an array of points), each one run of the term-stacked kernel.
    """
    boundaries: int = 0
    points: int = 0
    rounds: int = 0
    split_attempts: list = field(default_factory=lambda: [0] * _MAX_SPLIT_ATTEMPTS)
    outer_growths: int = 0
    newton_iterations: int = 0
    newton_failures: int = 0
    noise_clusters: int = 0
    evaluations: int = 0
    _lock: object = field(default_factory=threading.Lock, repr=False, compare=False)

    def add(self, **counts):
        """Add to the counters named by the keywords; safe across threads."""
        with self._lock:
            for name, n in counts.items():
                setattr(self, name, getattr(self, name) + n)

    def add_split_attempt(self, attempt, cells):
        with self._lock:
            self.split_attempts[attempt] += cells


def thread_count():
    """Root-finding threads from QGRAPH_THREADS: 1 when unset, 0 = per CPU."""
    raw = os.environ.get("QGRAPH_THREADS", "").strip()
    if not raw:
        return 1
    if not raw.isdecimal():
        raise ValueError("QGRAPH_THREADS must be an integer >= 0, got %r" % raw)
    n = int(raw)
    if n == 0:
        return os.cpu_count() or 1
    return n


def _rect_points(rects, spacing):
    """Closed counterclockwise boundary polylines with corners included, of
    every rectangle in turn, concatenated; returns (points, points per
    rectangle)."""
    x0, x1, y0, y1 = np.array(rects, dtype=float).reshape(-1, 4).T
    # sides bottom, right, top, left as (a -> b), one row per rectangle
    ax = np.stack([x0, x1, x1, x0], axis=1).ravel()
    ay = np.stack([y0, y0, y1, y1], axis=1).ravel()
    dx = np.stack([x1, x1, x0, x0], axis=1).ravel() - ax
    dy = np.stack([y0, y1, y1, y0], axis=1).ravel() - ay
    nseg = np.maximum(4, np.ceil(np.hypot(dx, dy) / spacing).astype(np.intp))
    side = np.repeat(np.arange(nseg.size), nseg)
    t = (np.arange(side.size) - (np.cumsum(nseg) - nseg)[side]) / nseg[side]
    pts = (ax[side] + dx[side] * t) + 1j * (ay[side] + dy[side] * t)
    return pts, nseg.reshape(-1, 4).sum(axis=1)


def winding_numbers(p, rects, max_rounds=48, max_points=400000, stats=None):
    """Winding of p around each rectangle (re_min, re_max, im_min, im_max) of
    rects, all boundaries refined together.

    Returns one entry per rectangle: the winding number, or a
    BoundaryZeroSuspected instance (not raised) when that boundary could not
    be trusted.  The boundaries are concatenated polylines; each carries its
    own scale, round count and point budget, and every test below is applied
    to it alone, so an entry does not depend on the other rectangles.

    The boundary phase is tracked on an adaptively refined polyline.  A
    midpoint is inserted wherever two neighboring samples differ by at least
    pi/2 in phase, and also wherever seglen * |p'/p| at an endpoint reaches
    pi/2: the second test is what catches a segment that passes so close to a
    multiple zero that the phase swings by nearly 2 pi and comes back between
    the two samples, which endpoint phases alone cannot see.  A boundary is
    suspected when a sample lands (numerically) on a zero, when its phase sum
    is far from a multiple of 2 pi, or when the refinement will not settle
    within max_rounds rounds or max_points points.
    """
    for rect in rects:
        x0, x1, y0, y1 = rect
        if not (x1 > x0 and y1 > y0):
            raise ValueError("empty rectangle %r" % (rect,))
    out = [None] * len(rects)
    if not rects:
        return out
    lo, hi = p.sigma_range()
    rate = max(1.0, abs(lo), abs(hi))
    pts, counts = _rect_points(rects, spacing=0.7 / rate)
    vals, dvals = p.eval_pair(pts)
    ids = np.arange(len(rects))             # rectangle of each live boundary
    starts = np.cumsum(counts) - counts
    scale = np.maximum.reduceat(np.abs(vals), starts)
    n_points = pts.size
    n_rounds = 0
    n_evals = 1
    for _ in range(max_rounds):
        absv = np.abs(vals)
        zero = (scale == 0.0) | (np.minimum.reduceat(absv, starts) < 1e-14 * scale)
        # wrap-around successor of every sample within its own polyline
        nxt = np.arange(1, pts.size + 1)
        nxt[starts + counts - 1] = starts
        ph = np.angle(vals)
        d = ph[nxt] - ph
        d = (d + np.pi) % (2 * np.pi) - np.pi
        seglen = np.abs(pts[nxt] - pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            # a boundary with a zero sample is dropped below, whatever this reads
            ratio = np.abs(dvals) / absv
            swing = seglen * np.maximum(ratio, ratio[nxt])
            bad = (np.abs(d) >= np.pi / 2) | (swing >= np.pi / 2)
        nbad = np.add.reduceat(bad.astype(np.intp), starts)
        refine = ~zero & (nbad > 0) & (counts + nbad <= max_points)
        done = np.flatnonzero(~refine)
        for i, z, nb, a, n in zip(ids[done].tolist(), zero[done].tolist(), nbad[done].tolist(),
                                  starts[done].tolist(), counts[done].tolist()):
            if z:
                out[i] = BoundaryZeroSuspected("|p| ~ 0 on the boundary of %r" % (rects[i],))
            elif nb:
                out[i] = BoundaryZeroSuspected("refinement exploded on %r" % (rects[i],))
            else:
                total = float(d[a:a + n].sum())
                w = int(round(total / (2 * np.pi)))
                if abs(total - 2 * np.pi * w) > 1.0:
                    out[i] = BoundaryZeroSuspected("phase sum far from a multiple of 2pi")
                else:
                    out[i] = w
        if not refine.any():
            break
        # keep the boundaries being refined; a midpoint follows each bad sample
        live = np.repeat(refine, counts)
        bad &= live
        at = np.flatnonzero(bad)
        mids = 0.5 * (pts[at] + pts[nxt[at]])
        mvals, mdvals = p.eval_pair(mids)
        n_evals += 1
        nbad = nbad[refine]
        mmax = np.maximum.reduceat(np.abs(mvals), np.cumsum(nbad) - nbad)
        scale = scale[refine]
        scale = np.where(mmax > scale, mmax, scale)
        kept = np.flatnonzero(live)
        slots = 1 + bad[kept]
        pos = np.cumsum(slots) - slots
        take = np.empty(kept.size + at.size, dtype=np.intp)
        take[pos] = kept
        take[pos[bad[kept]] + 1] = pts.size + np.arange(at.size)
        pts = np.concatenate([pts, mids])[take]
        vals = np.concatenate([vals, mvals])[take]
        dvals = np.concatenate([dvals, mdvals])[take]
        ids = ids[refine]
        counts = counts[refine] + nbad
        starts = np.cumsum(counts) - counts
        n_points += mids.size
        n_rounds += ids.size
    else:
        for i in ids.tolist():
            out[i] = BoundaryZeroSuspected("phase did not settle on %r" % (rects[i],))
    if stats is not None:
        stats.add(boundaries=len(rects), points=n_points, rounds=n_rounds,
                  evaluations=n_evals)
    return out


def winding_number(p, rect, max_rounds=48, max_points=400000):
    """Winding of p around the rectangle (re_min, re_max, im_min, im_max):
    winding_numbers for one rectangle.  Raises BoundaryZeroSuspected when the
    boundary cannot be trusted, which callers resolve by nudging the
    rectangle.
    """
    w = winding_numbers(p, [rect], max_rounds, max_points)[0]
    if isinstance(w, BoundaryZeroSuspected):
        raise w
    return w


def _grown(rect, delta):
    x0, x1, y0, y1 = rect
    return (x0 - delta, x1 + delta, y0 - delta, y1 + delta)


def _outer_winding(p, rect, stats):
    """Winding of the search rectangle, growing it by up to 1e-3 when a zero
    sits on the boundary.  Returns (rect_used, winding)."""
    for attempt in range(_MAX_OUTER_ATTEMPTS):
        delta = 0.0 if attempt == 0 else (0.4 + 0.6 * abs(_JITTER[attempt][0])) * 1e-3
        grown = _grown(rect, delta)
        if stats is not None and attempt:
            stats.add(outer_growths=1)
        w = winding_numbers(p, [grown], stats=stats)[0]
        if not isinstance(w, BoundaryZeroSuspected):
            return grown, w
    raise NonConvergenceError("could not find a zero-free boundary near %r" % (rect,))


def _newton(p, cells, stats):
    """Newton from the centre of every cell, all cells stepped together.

    Each iterate is k - p(k)/p'(k) in Python complex arithmetic; only the
    evaluation is shared.  Returns, per cell, the zero it converged to inside
    the cell, or None.
    """
    k0s = [complex(0.5 * (x0 + x1) + 1j * (0.5 * (y0 + y1))) for x0, x1, y0, y1 in cells]
    ks = list(k0s)
    roots = [None] * len(cells)
    live = list(range(len(cells)))
    iterations = passes = 0
    for _ in range(_NEWTON_ITERS):
        if not live:
            break
        iterations += len(live)
        passes += 1
        vals, ders = p.eval_pair(np.array([ks[i] for i in live]))
        still = []
        for i, v, dp in zip(live, vals.tolist(), ders.tolist()):
            if dp == 0:
                continue
            step = v / dp
            k = ks[i] = ks[i] - step
            x0, x1, y0, y1 = cells[i]
            if abs(k - k0s[i]) > 4 * np.hypot(x1 - x0, y1 - y0):
                continue
            if abs(step) <= 1e-13 * max(1.0, abs(k)):
                if x0 < k.real < x1 and y0 < k.imag < y1:
                    roots[i] = k
                continue
            still.append(i)
        live = still
    if stats is not None:
        stats.add(newton_iterations=iterations, evaluations=passes,
                  newton_failures=sum(k is None for k in roots))
    return roots


def _split(p, cells, stats):
    """Quadrisect every (cell, winding) pair of cells, retrying the cut
    position of each cell until its child windings are defined and conserve
    the parent's.  Returns the children with positive winding, cell by cell.
    """
    packs = [None] * len(cells)
    pending = list(range(len(cells)))
    for attempt in range(_MAX_SPLIT_ATTEMPTS):
        if not pending:
            break
        ux, uy = _JITTER[attempt % len(_JITTER)]
        if attempt == 0:
            ux = uy = 0.0
        quads = []
        for i in pending:
            x0, x1, y0, y1 = cells[i][0]
            xc = 0.5 * (x0 + x1) + ux * min(1e-3, 0.2 * (x1 - x0))
            yc = 0.5 * (y0 + y1) + uy * min(1e-3, 0.2 * (y1 - y0))
            quads.append(((x0, xc, y0, yc), (xc, x1, y0, yc),
                          (x0, xc, yc, y1), (xc, x1, yc, y1)))
        ws = winding_numbers(p, [kid for kids in quads for kid in kids], stats=stats)
        if stats is not None:
            stats.add_split_attempt(attempt, len(pending))
        retry = []
        for j, (i, kids) in enumerate(zip(pending, quads)):
            wk = ws[4 * j:4 * j + 4]
            if (all(isinstance(wi, int) and wi >= 0 for wi in wk)
                    and sum(wk) == cells[i][1]):
                packs[i] = [(kid, wi) for kid, wi in zip(kids, wk) if wi > 0]
            else:
                retry.append(i)
        pending = retry
    if pending:
        raise NonConvergenceError("zero count not conserved when splitting %r"
                                  % (cells[pending[0]][0],))
    return [kid for pack in packs for kid in pack]


def _noise_floor(p, cells):
    """Magnitude below which evaluations of p on each cell are dominated by
    floating-point error: eps times the sum of the individual term sizes.

    Each term's size is taken at the cell's lower or upper edge, whichever
    is larger, from one exp over every (term, edge) pair; the sizes are added
    in ``terms`` order, one term after another.
    """
    sigmas, sizes = p.size_table
    ys = np.array([(cell[2], cell[3]) for cell in cells], dtype=float).T.ravel()
    e = np.exp(np.multiply.outer(-sigmas, ys))
    n = len(cells)
    m = np.add.accumulate(sizes[:, None] * np.maximum(e[:, :n], e[:, n:]), axis=0)
    return 2.2e-16 * m[-1]


def _probe_max(p, cells):
    """Largest |p| over the corners and edge midpoints of each cell."""
    x0, x1, y0, y1 = np.array(cells, dtype=float).reshape(-1, 4).T
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    re = np.stack([x0, x1, x1, x0, cx, cx, x0, x1], axis=1)
    im = np.stack([y0, y0, y1, y1, y0, y1, cy, cy], axis=1)
    return np.max(np.abs(p.eval(re + 1j * im)), axis=1)


def _settle(p, frontier, tol, stats):
    """One subdivision level: resolve what can be resolved now.

    Returns (found, to_split): the resonances settled on this level, in
    frontier order, and the (cell, winding) pairs left to quadrisect.
    """
    ones = [i for i, (_, cw) in enumerate(frontier) if cw == 1]
    roots = dict(zip(ones, _newton(p, [frontier[i][0] for i in ones], stats)))
    probed = [i for i, (cell, _) in enumerate(frontier)
              if roots.get(i) is None
              and np.hypot(cell[1] - cell[0], cell[3] - cell[2]) > tol]
    loud = {}
    if probed:
        cells = [frontier[i][0] for i in probed]
        loud = dict(zip(probed, (_probe_max(p, cells) > 32 * _noise_floor(p, cells)).tolist()))
    settled = []
    to_split = []
    for i, (cell, cw) in enumerate(frontier):
        if roots.get(i) is not None:
            settled.append((roots[i], 1, cell, True))
        elif loud.get(i):
            to_split.append((cell, cw))
        else:
            cx = 0.5 * (cell[0] + cell[1])
            cy = 0.5 * (cell[2] + cell[3])
            settled.append((cx + 1j * cy, cw, cell, False))
    found = []
    if settled:
        vals = p.eval(np.array([k for k, _, _, _ in settled], dtype=complex))
        found = [Resonance(k=k, multiplicity=m, residual=abs(v), cell=cell, refined=refined)
                 for (k, m, cell, refined), v in zip(settled, vals.tolist())]
    if stats is not None:
        stats.add(noise_clusters=sum(not v for v in loud.values()),
                  evaluations=bool(probed) + bool(settled))
    return found, to_split


def find_roots(p, region, tol=1e-8, stats=None):
    """All zeros of p in the rectangle region = (re_min, re_max, im_min,
    im_max), each as a Resonance.

    Simple zeros are polished by Newton (refined=True); clusters that never
    separate are reported once at the cell center with their total
    multiplicity and refined=False.  A cell also counts as a cluster when |p|
    on its boundary cannot rise above the evaluation noise floor: for a zero
    of multiplicity m that happens at diameter ~ eps^(1/m), which is the best
    resolution double precision admits, so splitting further would only chase
    rounding error.  Output is sorted by (Re k, Im k) and is deterministic
    for a given polynomial and region.  Pass a RootStats as stats to have the
    work counted.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    x0, x1, y0, y1 = (float(v) for v in region)
    if not all(math.isfinite(v) for v in (x0, x1, y0, y1)):
        raise ValueError("search region %r is not finite" % (region,))
    if not (x1 > x0 and y1 > y0):
        raise ValueError("empty search region %r" % (region,))
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be positive and finite, got %r" % (tol,))
    outer, w = _outer_winding(p, (x0, x1, y0, y1), stats)
    if w == 0:
        return []
    found = []
    frontier = [(outer, w)]
    nthreads = thread_count()
    pool = None
    if nthreads > 1:
        # imported here: a single-threaded process never needs it
        from concurrent.futures import ThreadPoolExecutor
        pool = ThreadPoolExecutor(max_workers=nthreads)
    try:
        while frontier:
            settled, to_split = _settle(p, frontier, tol, stats)
            found.extend(settled)
            chunks = [to_split[i:i + _LEVEL_CHUNK]
                      for i in range(0, len(to_split), _LEVEL_CHUNK)]
            if pool is not None:
                packs = list(pool.map(lambda chunk: _split(p, chunk, stats), chunks))
            else:
                packs = [_split(p, chunk, stats) for chunk in chunks]
            frontier = [kid for pack in packs for kid in pack]
    finally:
        if pool is not None:
            pool.shutdown()
    found.sort(key=lambda r: (r.k.real, r.k.imag))
    return found


def strip_bound(p):
    """Height K of a horizontal strip |Im k| <= K certain to hold every zero.

    Terms are grouped by their (rounded) real frequency; outside the strip the
    extreme-frequency group dominates the sum of all the others in modulus, so
    p cannot vanish there.  The changeover height is found by bisection on the
    dominance inequality, separately below and above the real axis.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    groups = {}
    for vec, a in p.terms.items():
        groups.setdefault(round(p.sigma_of(vec), 12), []).append(a)
    sums = {s: abs(sum(parts)) for s, parts in groups.items()}
    top = max(sums.values())
    sums = {s: m for s, m in sums.items() if m > 1e-14 * top}
    if len(sums) == 1:
        return 0.0
    sigmas = sorted(sums)

    def changeover(pairs):
        # pairs: [(gap<0 ... ), ...] dominance margin as a function of t
        ext_m = pairs[0][1]

        def dominated(t):
            return ext_m > sum(m * np.exp(g * t) for g, m in pairs[1:])

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


def count_in_disc(p, radius, tol=1e-8, stats=None):
    """Zeros of p with 0 < |k| <= radius, counted with multiplicity.

    Searches the rectangle [-R-1/2, R+1/2] x [-K-1/2, K+1/2] where K is the
    certified strip height, then keeps |k| <= R (with a 1e-9 margin so zeros
    sitting on the circle up to rounding are not dropped).  A zero at the
    origin is excluded from the count and flagged.  stats is passed on to
    find_roots.

    Only roots reported within 1e-9 of the origin are taken for it.  A zero
    of order >= 2 at k = 0 can come back as noise-floor clusters or Newton
    roots at |k| ~ 1e-8, and those are still counted: until the origin's
    order is found exactly, such a count can be too high by part of that
    order.
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive and finite, got %r" % radius)
    K = strip_bound(p)
    rect = (-radius - 0.5, radius + 0.5, -K - 0.5, K + 0.5)
    roots = find_roots(p, rect, tol=tol, stats=stats)
    kept = []
    origin = False
    for r in roots:
        if abs(r.k) <= 1e-9:
            origin = True
            continue
        if abs(r.k) <= radius + 1e-9:
            kept.append(r)
    return CountReport(R=radius,
                       count=sum(r.multiplicity for r in kept),
                       roots=tuple(kept),
                       strip_bound=K,
                       origin_zero=origin)


def weyl_coefficient(p, radii=None):
    """Leading counting rate W: the count inside |k| <= R grows like
    (2/pi) W R.

    Symbolically W is half the spread of the frequency range.  Passing a
    list of radii switches to the empirical mode: a least-squares slope of
    count_in_disc over those radii, divided by 2/pi.
    """
    if radii is None:
        lo, hi = p.sigma_range()
        return (hi - lo) / 2.0
    radii = [float(R) for R in radii]
    if len(radii) < 2:
        raise ValueError("the empirical rate needs at least two radii")
    counts = [count_in_disc(p, R).count for R in radii]
    slope = np.polyfit(radii, counts, 1)[0]
    return float(slope) * np.pi / 2.0
