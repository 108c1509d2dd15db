"""Zero location for exponential polynomials by the argument principle.

The count of zeros (with multiplicity) inside a rectangle equals the winding
number of p around the rectangle's boundary.  Rectangles with winding one are
handed to Newton; higher windings are quadrisected until either the zeros
separate or the cell diameter drops below tolerance, in which case the cell is
reported as a single zero of that multiplicity.  Winding numbers of the four
children must add up to the parent's; when they do not (a zero sits on a cut
line) the cut is re-placed with a small deterministic offset and the split is
retried, so results are reproducible run to run.

A winding number is the sum of the phase steps along the rectangle's four
sides, each side a polyline of samples (t, arg p, |p'/p|, |p|) refined until
every segment passes the endpoint tests of winding_numbers.  Every cell of
the subdivision keeps its four refined sides until it is split or settled.
A split cuts them at the cut point: each child inherits the two halves of
its parent's sides that bound it, each exactly the parent's samples up to
or from the cut, with their tested segments, and the cut point; and it
shares each of the four cross half-lines from the cut point with the
sibling on its other side, which runs it backwards.  New samples come only
from the cross and from cuts that miss the parent's samples; only new
segments are tested.  The tests read only a segment's two endpoints, and
no inherited segment is longer than the 0.7 / rate cap of a fresh grid,
so a half needs no more samples than it inherits, however few.  Since
siblings share every cut line, their windings add up to the parent's
whenever they are all defined.  winding_numbers itself samples every side
afresh, on the grid of a fresh side.

A cell whose known zeros, strictly inside, add up (with their orders) to
its winding holds no other zero, and is split by them without winding its
children: the midpoint children that hold them, each winding as many times
as the zeros it holds, are the children a split would keep.  They go on
without sides, in their parent's place among the level's children, and so
do their descendants, each split by the zeros it holds.  Each of them
still runs the centre Newton and noise-floor probe of any cell, so the
zeros found are those of a search that winds every child.  Two kinds of
zero are known.  Located zeros: a cell that winds w <= _LOCATE_MAX times
has its zeros estimated from the argument-principle moments s_1..s_w of
its sides, the power sums of its zeros (the roots of the polynomial that
Newton's identities build from the moments), and Newton from each
estimate polishes it into a zero strictly inside the cell.  Polished
zeros are kept only when each is resolved from the nearest other one well
beyond the evaluation noise (see _locate): near a double zero, the noise
can let Newton find two zeros that a real split would not separate.  And
k = 0 is known in a cell that holds it strictly inside and winds m0
times, m0 >= 2 being the exact order of the zero there
(ExpPolynomial.origin_order).  A chain stops where a zero
comes near a cut (see _pick): within 1e-6 of a cell's width or height for
a located zero, where a real split could re-place the cut; for k = 0,
within twice the radius r0 within which p may be lost in the evaluation
noise or unlike its leading Taylor term (see _origin), or within
10^(-12/m0) of the cell's diameter.  That cell is sampled afresh and split
for real, and its children start with no known zeros.

The subdivision runs level by level, and the cells of a level that are
split for real are split together: their child boundaries are refined
together, with one value-and-derivative pass (ExpPolynomial.eval_pair)
per refinement round, and the Newton iterations, the zero polishes and
the noise-floor probes of a level share one pass per step.  Every
decision is still taken per boundary and per cell with the arithmetic of
a one-at-a-time search, so the zeros found do not depend on which cells
are evaluated together.

Boundary refinement works on a worklist of bad segments (see
winding_numbers): each round bisects, evaluates and tests only the segments
that failed the round before, so every sample is evaluated and tested once.
The phase total is summed in worklist order, which is not part of the
contract.
"""

import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundaryZeroSuspected, NonConvergenceError

Resonance = namedtuple("Resonance", "k multiplicity residual cell refined")
CountReport = namedtuple("CountReport", "R count roots strip_bound origin_zero")

# fixed offset table for re-placing cut lines / growing the outer rectangle,
# so that every run walks the same retry sequence; the values are
# numpy.random.default_rng(1729).uniform(-1.0, 1.0, size=(16, 2)), written
# out as Python floats so that no qgraph process has to import numpy.random
# and every cell holds plain floats
_JITTER = (
    (-0.9385159407896639, -0.6630850404701072),
    (-0.4120991059094672, 0.15250381970361726),
    (0.6247437528893673, 0.9527126292133392),
    (-0.06999705078287288, -0.7118615780141235),
    (0.8317834302553215, -0.2799135365268828),
    (-0.8935374509944636, -0.6769974289473557),
    (-0.4729177861638503, 0.3725182242692584),
    (0.020016654102197107, 0.8939276245932366),
    (-0.7284196091816064, -0.2675189371311004),
    (-0.3511401789897395, -0.5500077994568566),
    (0.3914694769770577, 0.30499922254050005),
    (0.8878891602094368, -0.5547568236050311),
    (0.82662472659159, -0.8787524390833232),
    (0.060264246096984, -0.2743350369340716),
    (-0.23096355358834564, 0.3130710448841667),
    (-0.33154116772521003, -0.6001045979072097),
)
_MAX_SPLIT_ATTEMPTS = 10
_MAX_OUTER_ATTEMPTS = 8
_NEWTON_ITERS = 60
# a boundary's refinement budget: rounds of bisection and points sampled
_MAX_ROUNDS = 48
_MAX_POINTS = 400000
# the rounding unit of one evaluated term (see _noise_floor), and the
# factor over the noise floor at which a cell's probe counts as loud
_EPS = 2.2e-16
_LOUD = 32
# the largest winding of a cell whose zeros _locate finds from its sides'
# moments: past it, the midpoint-rule moments s_j lose the digits that the
# starts need, and more cells are refused than split by their zeros
_LOCATE_MAX = 8


@dataclass
class RootStats:
    """Work counters of one or more find_roots / count_in_disc calls, filled
    in when passed as ``stats=``.

    boundaries: rectangle boundaries whose winding number was asked for.
    points: boundary samples evaluated: the initial grid of a fresh
        rectangle; the cross and cut points of a split (see _quadrisect);
        every midpoint that refinement inserts.
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
    reused: samples that child boundaries took from their parent's sides
        without evaluating them, counted per child (the parent corner
        between a child's two inherited halves once).
    guided: splits decided by located zeros (1 to _LOCATE_MAX), without
        winding the children (see find_roots); they are not in
        split_attempts.
    guide_steps: Newton steps of the polishes that locate zeros, from w
        starts in a cell that winds w times, kept or refused; they are not
        in newton_iterations.
    guide_fallbacks: cells split off by a located zero that are split
        for real instead, because the zero lay at a cut (each also in
        resampled).
    origin_guided: splits decided by the zero at k = 0, without winding
        the children (see find_roots); they are not in split_attempts.
    resampled: cells without sides, below splits decided by a zero, that
        are split for real and so first sampled afresh.
    pairs_refused: cells with sides, winding 2 to _LOCATE_MAX times,
        whose located zeros were refused (see _locate and _pick), and so
        split for real.
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
    reused: int = 0
    guided: int = 0
    guide_steps: int = 0
    guide_fallbacks: int = 0
    origin_guided: int = 0
    resampled: int = 0
    pairs_refused: int = 0

    def add(self, **counts):
        """Add to the counters named by the keywords."""
        for name, n in counts.items():
            setattr(self, name, getattr(self, name) + n)


def _side_segments(p, lengths):
    """Initial segments of boundary sides of the given lengths: at least 4,
    each at most 0.7 / rate long, rate being the largest |frequency| of p
    (at least 1).  Whole numbers in a float array, so that a side too long
    to sample is counted without overflow."""
    lo, hi = p.sigma_range()
    rate = max(1.0, abs(lo), abs(hi))
    return np.maximum(4.0, np.ceil(np.asarray(lengths, dtype=float) / (0.7 / rate)))


def _samples(p, z):
    """arg p, |p'/p| and |p| at the points z, the rows of one array, from
    one eval_pair pass."""
    vals, dvals = p.eval_pair(z)
    out = np.empty((3, z.size))
    np.arctan2(vals.imag, vals.real, out=out[0])
    np.abs(vals, out=out[2])
    with np.errstate(divide="ignore", invalid="ignore"):
        # a boundary with a zero sample is dropped, whatever this reads
        np.divide(np.abs(dvals), out[2], out=out[1])
    return out


def _ranges(starts, stops):
    """The indices starts[i]:stops[i] for every i, concatenated."""
    lens = stops - starts
    return np.arange(lens.sum()) + np.repeat(starts - np.cumsum(lens) + lens, lens)


# Sides of rectangle boundaries as polylines in flat arrays.  Side s holds
# samples off[s]:off[s + 1], both its ends included, which are the columns
# of data: t, arg p, |p'/p| and |p|.  The sample at t is base[s] + t unit[s],
# unit[s] being the side's direction (1, i, -1 or -i), so t grows along the
# side.  tested[i] marks a segment i -> i + 1 that passed the refinement
# tests on an earlier boundary, and phase[s] is the sum of the phase steps
# of those segments of side s.
_Lines = namedtuple("_Lines", "off data base unit tested phase")

# the directions of a rectangle's sides bottom, right, top and left,
# counterclockwise, and the sign that makes t grow along them (t is x, y,
# -x and -y)
_UNIT = np.array([1.0, 1j, -1.0, -1j])
_SGN = np.array([1.0, 1.0, -1.0, -1.0])
# the sides of a cell's children BL, BR, TL, TR, counterclockwise: the
# halves 2k and 2k + 1 of the cell's side k, and the crosses 8..11 from the
# cut point down, right, up and left; a child runs a cross backwards (-1)
# when the cross runs clockwise around it
_KID_SIDES = np.array([[0, 8, 11, 7], [1, 2, 9, 8], [11, 10, 5, 6], [9, 3, 4, 10]])
_KID_SIGNS = np.array([[1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0],
                       [-1.0, 1.0, 1.0, 1.0], [1.0, 1.0, 1.0, -1.0]])


def _kid_layout(n):
    """For n cells split together: the directions of their sides and of
    their crosses, and the sides and signs of their children (see
    _KID_SIDES)."""
    cell = np.arange(n)[:, None, None]
    bside = np.where(_KID_SIDES < 8, 8 * cell + _KID_SIDES,
                     4 * cell + 8 * n - 8 + _KID_SIDES).reshape(-1, 4)
    return (np.tile(_UNIT, n), np.tile(_UNIT[[3, 0, 1, 2]], n), bside,
            np.tile(_KID_SIGNS, (n, 1)))


def _fresh_lines(p, rects, nseg):
    """The sides of rects on the initial grid, evaluated: side k (bottom,
    right, top, left) of rectangle r has nseg[4 r + k] equal segments, each
    corner being evaluated once.  Returns (lines, samples evaluated)."""
    x0, x1, y0, y1 = np.array(rects, dtype=float).reshape(-1, 4).T
    # the counterclockwise start a and end b of every side
    ax = np.array([x0, x1, x1, x0]).T.ravel()
    ay = np.array([y0, y0, y1, y1]).T.ravel()
    bx = np.array([x1, x1, x0, x0]).T.ravel()
    by = np.array([y0, y1, y1, y0]).T.ravel()
    vertical = np.tile([False, True, False, True], len(rects))
    unit = np.tile(_UNIT, len(rects))
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
    # every sample but a side's end, which is the next side's start
    head = j < nseg[side]
    vals = _samples(p, x[head] + 1j * y[head])
    first = np.cumsum(nseg) - nseg
    src = first[side] + j
    src[end] = first[side[end] - side[end] % 4 + (side[end] + 1) % 4]
    data = np.empty((4, off[-1]))
    data[0] = np.tile(_SGN, len(rects))[side] * np.where(vertical[side], y, x)
    data[1:] = np.take(vals, src, axis=1)
    base = np.empty(nseg.size, dtype=complex)
    base.real = np.where(vertical, ax + 0.0, 0.0)
    base.imag = np.where(vertical, 0.0, ay + 0.0)
    lines = _Lines(off=off, data=data, base=base, unit=unit,
                   tested=np.zeros(off[-1], dtype=bool), phase=np.zeros(nseg.size))
    return lines, vals.shape[1]


def _wind(p, lines, bside, bsign, rects, max_rounds, max_points, stats, evaluated,
          reused=0):
    """Winding numbers of the boundaries whose sides are in lines: boundary b
    runs along side bside[b, k] forwards if bsign[b, k] > 0, else backwards,
    k = 0..3.  rects[b] is its rectangle, for the messages.

    Returns (windings, refined): an int or a BoundaryZeroSuspected per
    boundary, as winding_numbers, and (off, data, inserted), the sides of
    lines and the midpoints that refinement inserted (see _merged), which
    _Sides turns into the refined sides.  evaluated and reused are the
    samples of lines that the caller evaluated and inherited, for stats.
    """
    off, data = lines.off, lines.data
    ns = off.size - 1
    # per side, the largest |p| and minus the least, as samples come in
    ext = np.array([np.maximum.reduceat(data[3], off[:-1]),
                    -np.minimum.reduceat(data[3], off[:-1])])
    counts = (off[1:] - off[:-1] - 1)[bside].sum(axis=1)
    # the untested segments a -> b = a + 1, in polyline order, side by
    # side; the rows of seg are t, arg p and |p'/p| at a and at b
    untested = ~lines.tested
    untested[off[1:] - 1] = False
    a = np.flatnonzero(untested)
    owner = np.searchsorted(off, a, side="right") - 1
    seg = np.take(data[:3], np.array([a, a + 1]), axis=1).reshape(6, -1)
    # the first sample of the untested segment that each one subdivides
    root = a
    inserted = []
    # the phase steps of the segments that passed, by side; a side that two
    # boundaries share ends refined alike for both, so every total is read
    # once the rounds are over
    steps = []
    # per boundary: 0 while refined, then 1 |p| ~ 0, 2 exploded, 3 settled
    state = np.where(counts > max_points, 2, 0)
    ids = np.flatnonzero(state == 0)
    n_points = evaluated
    n_rounds = 0
    n_evals = int(evaluated > 0)
    with np.errstate(invalid="ignore"):
        for _ in range(max_rounds):
            d = seg[3] - seg[2]
            d += np.pi
            d %= 2 * np.pi
            d -= np.pi
            swing = np.abs(seg[1] - seg[0])
            swing *= np.maximum(seg[4], seg[5])
            bad = (np.abs(d) >= np.pi / 2) | (swing >= np.pi / 2)
            steps.append((owner, np.where(bad, 0.0, d)))
            sides = bside[ids]
            nbad = np.bincount(owner[bad], minlength=ns)[sides].sum(axis=1)
            scale, low = np.take(ext, sides, axis=1).max(axis=2)
            zero = (scale == 0.0) | (-low < 1e-14 * scale)
            refine = ~zero & (nbad > 0) & (counts[ids] + nbad <= max_points)
            state[ids[~refine]] = np.where(zero, 1, 3 - (nbad > 0))[~refine]
            ids = ids[refine]
            if not ids.size:
                break
            # bisect the bad segments of every side that a boundary being
            # refined runs along: a side that two boundaries share is
            # refined while either of them is
            counts[ids] += nbad[refine]
            n_rounds += ids.size
            live = np.zeros(ns, dtype=bool)
            live[bside[ids]] = True
            keep_seg = bad & live[owner]
            seg, owner = np.compress(keep_seg, seg, axis=1), owner[keep_seg]
            mids = np.empty((4, owner.size))
            mids[0] = seg[0] + seg[1]
            mids[0] *= 0.5
            mids[1:] = _samples(p, lines.base[owner] + mids[0] * lines.unit[owner])
            n_evals += 1
            n_points += owner.size
            np.fmax.at(ext[0], owner, mids[3])
            np.maximum.at(ext[1], owner, -mids[3])
            root = root[keep_seg]
            inserted.append((root, mids))
            root = np.repeat(root, 2)
            # the halves a -> mid and mid -> b of each, side by side
            halves = np.empty((3, 2, 2 * owner.size))
            halves[:, 0, 0::2] = seg[0::2]
            halves[:, 1, 0::2] = halves[:, 0, 1::2] = mids[:3]
            halves[:, 1, 1::2] = seg[1::2]
            seg = halves.reshape(6, -1)
            owner = np.repeat(owner, 2)
    side_total = lines.phase
    if steps:
        owners, ds = zip(*steps)
        side_total = side_total + np.bincount(np.concatenate(owners), weights=np.concatenate(ds),
                                              minlength=ns)
    total = (side_total[bside] * bsign).sum(axis=1)
    out = []
    for rect, s, t in zip(rects, state.tolist(), total.tolist()):
        if s == 0:
            out.append(BoundaryZeroSuspected("phase did not settle on %r" % (rect,)))
        elif s == 1:
            out.append(BoundaryZeroSuspected("|p| ~ 0 on the boundary of %r" % (rect,)))
        elif s == 2:
            out.append(BoundaryZeroSuspected("refinement exploded on %r" % (rect,)))
        else:
            w = int(round(t / (2 * np.pi)))
            if abs(t - 2 * np.pi * w) > 1.0:
                out.append(BoundaryZeroSuspected("phase sum far from a multiple of 2pi"))
            else:
                out.append(w)
    if stats is not None:
        stats.add(boundaries=len(rects), points=n_points, rounds=n_rounds,
                  evaluations=n_evals, reused=reused)
    return out, (off, data, inserted)


def _merged(off, data, inserted):
    """The sides off, data with the midpoints inserted, in order along each
    side, as (off, data).  inserted holds (root, mids) per round, mids the
    columns of the midpoints and root the sample that starts the segment of
    off, data that each midpoint subdivides."""
    if not inserted:
        return off, data
    root = np.concatenate([r for r, _ in inserted])
    mids = np.concatenate([m for _, m in inserted], axis=1)
    order = np.lexsort((mids[0], root))
    n = data.shape[1]
    # shift[i]: the midpoints that go before sample i
    shift = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(root, minlength=n), out=shift[1:])
    # the columns of data, then of the midpoints in order, in merged order
    src = np.empty(n + root.size, dtype=np.intp)
    at = root[order] + 1 + np.arange(root.size)
    src[at] = np.arange(n, n + root.size)
    old = np.ones(src.size, dtype=bool)
    old[at] = False
    src[old] = np.arange(n)
    merged = np.take(np.concatenate([data, np.take(mids, order, axis=1)], axis=1), src, axis=1)
    return off + shift[off], merged


class _Sides:
    """Refined sides of cells, kept for their children to inherit.

    Four sides per cell, bottom, right, top and left, each a polyline that
    runs counterclockwise from corner to corner, both included; side s
    holds samples off[s]:off[s + 1], the columns of data.  The rows of data
    are t, the coordinate along the side signed to grow counterclockwise
    (x, y, -x, -y on the four sides), arg p, |p'/p| and |p|.
    """
    __slots__ = ("off", "data")

    def __init__(self, refined, bside, bsign):
        """The sides bside, bsign of some boundaries of _wind (see there),
        from the (off, data, inserted) that it returns."""
        off, data = _merged(*refined)
        es = bside.ravel()
        lens = (off[1:] - off[:-1])[es]
        self.off = np.concatenate([[0], np.cumsum(lens)])
        # a side that the boundary runs backwards is stored reversed
        back = bsign.ravel() < 0
        step = np.where(back, -1, 1)
        src = np.repeat(np.where(back, off[es + 1] - 1, off[es]) - self.off[:-1] * step, lens)
        step = np.repeat(step, lens)
        src += np.arange(src.size) * step
        self.data = np.take(data, src, axis=1)
        self.data[0] *= step


def _take(off, data, cells):
    """The sides of the given cells of (off, data) in flat arrays:
    (side lengths, data)."""
    bounds = off[4 * np.asarray(cells)[:, None] + np.arange(5)]
    cols = np.take(data, _ranges(bounds[:, 0], bounds[:, 4]), axis=1)
    return np.diff(bounds, axis=1).ravel(), cols


def _gather(sides):
    """The sides of cells, one (_Sides, slot) per cell, as one (off, data).
    data has the rows of _Sides.data and cum, the phase steps summed along
    each side from its first sample, so that the step of a stretch of side
    is one subtraction."""
    lens, cols = [], []
    start = 0
    for k in range(1, len(sides) + 1):
        if k == len(sides) or sides[k][0] is not sides[start][0]:
            store = sides[start][0]
            n, d = _take(store.off, store.data, [slot for _, slot in sides[start:k]])
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


def _windings(p, rects, max_rounds, max_points, stats):
    """winding_numbers on fresh sides, and the arguments of _Sides for the
    sides of rects (None when no rectangle is sampled)."""
    out = [None] * len(rects)
    x0, x1, y0, y1 = np.array(rects, dtype=float).reshape(-1, 4).T
    nseg = _side_segments(p, np.array([x1 - x0, y1 - y0, x1 - x0, y1 - y0]).T)
    # counted before anything is allocated: a boundary that needs more
    # samples than max_points from the start is never sampled
    fits = nseg.sum(axis=1) <= max_points
    for i in np.flatnonzero(~fits).tolist():
        out[i] = BoundaryZeroSuspected("refinement exploded on %r" % (rects[i],))
    ok = np.flatnonzero(fits)
    if stats is not None and ok.size < len(rects):
        stats.add(boundaries=len(rects) - ok.size)
    sides = None
    if ok.size:
        kept = [rects[i] for i in ok.tolist()]
        lines, evaluated = _fresh_lines(p, kept, nseg[ok].ravel())
        bside = np.arange(4 * ok.size).reshape(-1, 4)
        bsign = np.ones(bside.shape)
        ws, refined = _wind(p, lines, bside, bsign, kept, max_rounds, max_points, stats,
                            evaluated)
        for i, w in zip(ok.tolist(), ws):
            out[i] = w
        sides = refined, bside, bsign
    return out, sides


def winding_numbers(p, rects, max_rounds=_MAX_ROUNDS, max_points=_MAX_POINTS, stats=None):
    """Winding of p around each rectangle (re_min, re_max, im_min, im_max) of
    rects, all boundaries refined together.

    Returns one entry per rectangle: the winding number, or a
    BoundaryZeroSuspected instance (not raised) when that boundary could not
    be trusted.  Each boundary carries its own scale, round count and point
    budget, and every test below is applied to it alone, so an entry does
    not depend on the other rectangles.

    The winding is the sum of the phase steps along the rectangle's four
    sides.  Each side is a polyline, sampled first on a uniform grid of at
    least 4 segments, each at most 0.7 / rate long (rate being the largest
    |frequency| of p), and then refined.  A segment is bad when its two
    samples differ by at least pi/2 in phase, or when seglen * |p'/p| at an
    endpoint reaches pi/2: the second test is what catches a segment that
    passes so close to a multiple zero that the phase swings by nearly 2 pi
    and comes back between the two samples, which endpoint phases alone
    cannot see.  Both tests read only the segment's two endpoints, so a
    segment that passes once passes for good: its phase step goes into its
    side's phase total and it is never looked at again.  Each round bisects
    the bad segments left, evaluates the midpoints in one pass and tests
    only the two halves of each.  The phase total is therefore summed in a
    different order than along the polyline; that order is not part of the
    result, which reads the total only through round(total / 2pi) and a
    1-radian margin.  A boundary is suspected when a sample lands
    (numerically) on a zero, when its phase total is far from a multiple of
    2 pi, or when the refinement will not settle within max_rounds rounds or
    max_points points; a boundary whose initial grid alone has more than
    max_points samples is suspected without being sampled.

    find_roots runs the same refinement on the sides of its cells, which it
    mostly inherits (see _quadrisect) and keeps for their children; this
    function samples every side, and never assembles the refined sides.
    """
    for rect in rects:
        x0, x1, y0, y1 = rect
        if not (x1 > x0 and y1 > y0):
            raise ValueError("empty rectangle %r" % (rect,))
    if not rects:
        return []
    return _windings(p, rects, max_rounds, max_points, stats)[0]


def winding_number(p, rect):
    """Winding of p around the rectangle (re_min, re_max, im_min, im_max):
    winding_numbers for one rectangle.  Raises BoundaryZeroSuspected when the
    boundary cannot be trusted, which callers resolve by nudging the
    rectangle.
    """
    w = winding_numbers(p, [rect])[0]
    if isinstance(w, BoundaryZeroSuspected):
        raise w
    return w


def _inside(rect, k):
    """Whether k lies strictly inside rect."""
    x0, x1, y0, y1 = rect
    return x0 < k.real < x1 and y0 < k.imag < y1


def _grown(rect, delta):
    x0, x1, y0, y1 = rect
    return (x0 - delta, x1 + delta, y0 - delta, y1 + delta)


def _outer_winding(p, rect, stats):
    """Winding of the search rectangle, growing it by up to 1e-3 when a zero
    sits on the boundary.  Returns (rect_used, winding, (its _Sides, 0)).
    When every attempt is refused, the error names the last one's cause."""
    for attempt in range(_MAX_OUTER_ATTEMPTS):
        delta = 0.0 if attempt == 0 else (0.4 + 0.6 * abs(_JITTER[attempt][0])) * 1e-3
        grown = _grown(rect, delta)
        if stats is not None and attempt:
            stats.add(outer_growths=1)
        (w,), sides = _windings(p, [grown], _MAX_ROUNDS, _MAX_POINTS, stats)
        if not isinstance(w, BoundaryZeroSuspected):
            return grown, w, (_Sides(*sides), 0)
    raise NonConvergenceError("could not find a zero-free boundary near %r: %s" % (rect, w))


def _newton(p, cells, k0s):
    """Newton from k0s[i] in every cell cells[i], all cells stepped together.

    Each iterate is k - p(k)/p'(k) in Python complex arithmetic; only the
    evaluation is shared.  A cell gives up when p' vanishes or when its
    iterate strays more than 4 cell diameters from its start or is not
    finite.  Returns
    (roots, slopes, steps, passes): per cell, the zero it converged to
    inside the cell, or None, and |p'| at the iterate of its last step, or
    None; the Newton steps over all cells; the evaluation passes.
    """
    ks = list(k0s)
    roots = [None] * len(cells)
    slopes = [None] * len(cells)
    reach = [4 * np.hypot(x1 - x0, y1 - y0) for x0, x1, y0, y1 in cells]
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
            # also gives up on a non-finite iterate
            if not abs(k - k0s[i]) <= reach[i]:
                continue
            if abs(step) <= 1e-13 * max(1.0, abs(k)):
                if _inside(cells[i], k):
                    roots[i] = k
                    slopes[i] = abs(dp)
                continue
            still.append(i)
        live = still
    return roots, slopes, iterations, passes


def _quadrisect(p, quads, parents, stats):
    """Winding numbers of the children (BL, BR, TL, TR) = quads[i] of cells
    whose sides are parents, an (off, data) of _Sides rows.

    A child runs along two halves of its parent's sides and along two of
    the four cross half-lines from the centre (xc, yc) to the sides.  A half
    is exactly the parent's samples up to or from the cut, with their
    tested segments, and the cut point.  Each cross is sampled once, on the
    initial grid, and shared with the sibling on its other side, who runs
    it backwards.  The new samples are the centre, the cuts on the sides
    that are not parent samples and the crosses' inner samples; only new
    segments are tested.  Returns (windings, (refined, bside, bsign)), the
    last the arguments of _Sides for every child.
    """
    unit, cunit, bside, bsign = _kid_layout(len(quads))
    lines, evaluated, reused = _child_lines(p, quads, parents, unit, cunit)
    kids = [kid for kids in quads for kid in kids]
    ws, refined = _wind(p, lines, bside, bsign, kids, _MAX_ROUNDS, _MAX_POINTS, stats,
                        evaluated, reused)
    return ws, (refined, bside, bsign)


def _child_lines(p, quads, parents, unit, cunit):
    """The sides of the children of _quadrisect, evaluated, halves 8 i..8 i + 7
    and crosses 8 n + 4 i..8 n + 4 i + 3 for cell i of n, unit and cunit
    being the directions of the parent sides and of the crosses: (lines,
    samples evaluated, samples inherited)."""
    n = len(quads)
    q = np.array(quads, dtype=float)
    x0, xc, y0, yc = q[:, 0].T
    x1, y1 = q[:, 3, 1], q[:, 3, 3]
    if not ((x0 < xc) & (xc < x1) & (y0 < yc) & (yc < y1)).all():
        for kid in (kid for kids in quads for kid in kids):
            if not (kid[1] > kid[0] and kid[3] > kid[2]):
                raise ValueError("empty rectangle %r" % (kid,))
    off, data = parents
    t, cum = data[0], data[4]
    size = t.size
    lo, hi = off[:-1], off[1:] - 1
    # per parent side (bottom, right, top, left of each cell): the cut, and
    # t at the two ends of the cross from the centre (xc, yc) to that cut
    cut, c0, c1 = np.array([[xc, yc, -xc, -yc], [-yc, xc, yc, -xc],
                            [-y0, x1, y1, -x0]]).transpose(0, 2, 1).reshape(3, -1)
    # per parent side, its last sample at or before the cut, j counted from
    # the side's first, and whether it lies on the cut
    j = np.add.reduceat(t <= np.repeat(cut, off[1:] - off[:-1]), lo, dtype=np.intp) - 1
    first = lo + j
    exact = t[first] == cut
    fresh = np.flatnonzero(~exact)
    # the new samples follow the parents': the centres, the fresh cuts and
    # the crosses' inner samples
    cut_src = first.copy()
    cut_src[fresh] = size + n + np.arange(fresh.size)
    cseg = _side_segments(p, c1 - c0).astype(np.intp)
    coff = np.concatenate([[0], np.cumsum(cseg + 1)])
    cside = np.repeat(np.arange(4 * n), cseg + 1)
    pos = np.arange(coff[-1]) - coff[cside]
    ct = c0[cside] + (c1 - c0)[cside] * (pos / cseg[cside])
    ct[coff[1:] - 1] = c1
    csrc = np.arange(coff[-1]) - 2 * cside + (size + n + fresh.size - 1)
    csrc[coff[:-1]] = size + np.arange(4 * n) // 4
    csrc[coff[1:] - 1] = cut_src
    inner = (pos > 0) & (pos < cseg[cside])
    zero = np.zeros(n)
    base = (np.array([zero, x1, zero, x0]) + 1j * np.array([y0, zero, y1, zero])).T.ravel()
    cbase = (np.array([xc, zero, xc, zero]) + 1j * np.array([zero, yc, zero, yc])).T.ravel()
    # halves 2s and 2s + 1 of side s: its samples up to j and the cut, then
    # the cut and its samples after j (an exact cut is sample j)
    hlen = np.empty(8 * n, dtype=np.intp)
    hlen[0::2] = j + 1 + ~exact
    hlen[1::2] = hi - first + 1
    hoff = np.concatenate([[0], np.cumsum(hlen)])
    hside = np.repeat(np.arange(8 * n), hlen)
    s = hside >> 1
    src = np.arange(hoff[-1]) - hoff[hside] + lo[s] + (hside & 1) * j[s]
    ht = t[src]
    ht[hoff[1::2] - 1] = ht[hoff[1::2]] = cut
    src[hoff[1::2] - 1] = src[hoff[1::2]] = cut_src
    phase = np.empty(8 * n)
    phase[0::2] = cum[first] - cum[lo]
    phase[1::2] = cum[hi] - cum[first + ~exact]
    z = np.concatenate([xc + 1j * yc, base[fresh] + cut[fresh] * unit[fresh],
                        (cbase[cside] + ct * cunit[cside])[inner]])
    lsrc = np.concatenate([src, csrc])
    lt = np.concatenate([ht, ct])
    # what is not needed goes before the evaluation, whose work arrays are
    # the largest of a split
    del src, csrc, ht, ct, hside, s, cside, pos, inner
    old = lsrc < size
    tested = np.zeros(lsrc.size, dtype=bool)
    tested[:-1] = old[:-1] & old[1:]
    new = _samples(p, z)
    rows = np.empty((4, lsrc.size))
    rows[0] = lt
    rows[1:] = np.take(np.concatenate([data[1:4], new], axis=1), lsrc, axis=1)
    lines = _Lines(off=np.concatenate([hoff, hoff[-1] + coff[1:]]), data=rows,
                   base=np.concatenate([np.repeat(base, 2), cbase]),
                   unit=np.concatenate([np.repeat(unit, 2), cunit]), tested=tested,
                   phase=np.concatenate([phase, np.zeros(4 * n)]))
    return lines, z.size, size - fresh.size


# A cell of the subdivision frontier: its rectangle, its winding w, its
# sides and its known zeros.  A cell split off by known zeros without
# winding has sides None and zeros the tuple of those it holds, 1 to
# _LOCATE_MAX located zeros or (0j,) for k = 0; any other cell has sides
# (_Sides, slot) and zeros () (see _guide).
_Cell = namedtuple("_Cell", "rect w sides zeros")


def _quad(cell, ux, uy):
    """The children (BL, BR, TL, TR) of cell, cut at its midpoint offset by
    ux and uy times min(1e-3, a fifth of its width and height)."""
    x0, x1, y0, y1 = cell
    xc = 0.5 * (x0 + x1) + ux * min(1e-3, 0.2 * (x1 - x0))
    yc = 0.5 * (y0 + y1) + uy * min(1e-3, 0.2 * (y1 - y0))
    return ((x0, xc, y0, yc), (xc, x1, y0, yc), (x0, xc, yc, y1), (xc, x1, yc, y1))


def _split(p, cells, stats):
    """Quadrisect every _Cell of cells, all with sides, retrying the cut
    position of each cell until its child windings are defined and
    conserve the parent's.  Returns, per cell, the list of its children
    with positive winding, as _Cells with their sides and no zeros.  A
    retry cuts the parent's sides again at its new position.
    """
    parents = _gather([cell.sides for cell in cells])
    packs = [None] * len(cells)
    pending = list(range(len(cells)))
    for attempt in range(_MAX_SPLIT_ATTEMPTS):
        if not pending:
            break
        ux, uy = _JITTER[attempt % len(_JITTER)]
        if attempt == 0:
            ux = uy = 0.0
        quads = [_quad(cells[i].rect, ux, uy) for i in pending]
        ws, (refined, bside, bsign) = _quadrisect(p, quads, parents, stats)
        if stats is not None:
            stats.split_attempts[attempt] += len(pending)
        retry = []
        kept = []
        for j, (i, kids) in enumerate(zip(pending, quads)):
            wk = ws[4 * j:4 * j + 4]
            if (all(isinstance(wi, int) and wi >= 0 for wi in wk)
                    and sum(wk) == cells[i].w):
                packs[i] = []
                kept.extend((i, kid, wi, 4 * j + m) for m, (kid, wi) in enumerate(zip(kids, wk))
                            if wi > 0)
            else:
                retry.append(j)
        if kept:
            rows = [b for _, _, _, b in kept]
            store = _Sides(refined, bside[rows], bsign[rows])
            for slot, (i, kid, wi, _) in enumerate(kept):
                packs[i].append(_Cell(kid, wi, (store, slot), ()))
        # the retries' sides, by their place among this attempt's cells
        pending = [pending[j] for j in retry]
        if retry and attempt + 1 < _MAX_SPLIT_ATTEMPTS:
            lens, data = _take(*parents, retry)
            parents = np.concatenate([[0], np.cumsum(lens)]), data
    if pending:
        raise NonConvergenceError("zero count not conserved when splitting %r"
                                  % (cells[pending[0]].rect,))
    return packs


def _moment_roots(s):
    """The roots of the monic polynomials whose w roots have the power sums
    s[0], ..., s[w - 1] (s_1, ..., s_w), one polynomial per column of s, as
    the rows of an array.  Newton's identities give the coefficients, the
    elementary symmetric functions e_j of the roots, and the eigenvalues of
    the companion matrices, in one batched eigvals, give the roots."""
    w, n = s.shape
    e = [np.ones(n, dtype=complex)]
    companion = np.zeros((n, w, w), dtype=complex)
    companion[:, np.arange(1, w), np.arange(w - 1)] = 1.0
    for j in range(1, w + 1):
        # j e_j = sum_i (-1)^(i - 1) e_(j - i) s_i; the polynomial is
        # z^w - e_1 z^(w - 1) + e_2 z^(w - 2) - ...
        e.append(sum((-1) ** (i - 1) * e[j - i] * s[i - 1] for i in range(1, j + 1)) / j)
        companion[:, 0, j - 1] = (-1) ** (j - 1) * e[j]
    return np.linalg.eigvals(companion)


def _locate(p, cells, stats):
    """The zeros of each _Cell of cells with sides and winding w at most
    _LOCATE_MAX, as a tuple, or () when they are not found.

    The argument-principle moments s_j = sum (z_mid - c)^j (d ln|p| +
    i d arg p) / 2 pi i, j = 1..w, over the segments of a cell's sides, c
    its centre, are the power sums of its zeros about c, from samples
    already taken.  They give a start for each zero: c plus the roots of
    the polynomial whose roots have those power sums (see _moment_roots),
    one eigvals for all cells of a winding; for one zero that is c + s_1.
    A cell with a start that is not finite is refused;
    _newton from each start of the others polishes it, all cells' starts
    together.  A cell's zeros are kept only when every polish converges
    strictly inside it, whose certified winding makes them its only zeros,
    and, for w >= 2, when each polished zero z_i is resolved from the
    nearest other one beyond the evaluation noise: eta / |p'(z_i)| < 1e-3
    min_(j != i) |z_i - z_j|, eta being the cell's _noise_floor.  That
    refuses the zeros that the noise around a (near) multiple zero can let
    Newton find, and a zero that two polishes both reach.
    """
    off, data = _gather([cell.sides for cell in cells])
    rects = [cell.rect for cell in cells]
    ws = np.array([cell.w for cell in cells])
    x0, x1, y0, y1 = np.array(rects, dtype=float).T
    cx = 0.5 * (x0 + x1)
    cy = 0.5 * (y0 + y1)
    t, cum = data[0], data[4]
    side = np.repeat(np.arange(off.size - 1), np.diff(off))[:-1]
    # d ln p over each segment a -> a + 1, none across the end of a side
    step = np.diff(np.log(data[3])) + 1j * np.diff(cum)
    step[off[1:-1] - 1] = 0.0
    # segment midpoints from the centre: base + t unit on each side
    base = (np.array([-cx, x1 - cx, -cx, x0 - cx])
            + 1j * np.array([y0 - cy, -cy, y1 - cy, -cy])).T.ravel()
    zmid = 0.5 * (t[:-1] + t[1:]) * _UNIT[side % 4]
    zmid += base[side]
    # s[j - 1] holds the moment s_j of every cell
    s = np.empty((ws.max(), len(cells)), dtype=complex)
    for row in s:
        step *= zmid
        row[:] = np.add.reduceat(step, off[:-1:4]) / (2j * np.pi)
    c = cx + 1j * cy
    starts = [None] * len(cells)
    # not np.unique, whose first call imports numpy.ma (16 ms of a CLI process)
    for w in sorted(set(ws.tolist())):
        at = np.flatnonzero(ws == w)
        ks = np.full((at.size, w), np.nan, dtype=complex)
        ok = np.isfinite(s[:w, at]).all(axis=0)
        ks[ok] = c[at[ok], None] + _moment_roots(s[:w, at[ok]])
        for i, row, finite in zip(at.tolist(), ks.tolist(), np.isfinite(ks).all(axis=1).tolist()):
            starts[i] = row if finite else []
    owner = [i for i, ks in enumerate(starts) for _ in ks]
    ks, slopes, steps, passes = _newton(p, [rects[i] for i in owner],
                                        [k for ks in starts for k in ks])
    found = [[] for _ in cells]
    for i, k, d in zip(owner, ks, slopes):
        if k is not None:
            found[i].append((k, d))
    full = [i for i, (cell, f) in enumerate(zip(cells, found)) if len(f) == cell.w >= 2]
    for i, eta in zip(full, _noise_floor(p, [rects[i] for i in full]).tolist()):
        if not all(eta / d < 1e-3 * min(abs(z - y) for y, _ in found[i][:a] + found[i][a + 1:])
                   for a, (z, d) in enumerate(found[i])):
            found[i] = []
    zeros = [tuple(k for k, _ in f) if len(f) == cell.w else () for cell, f in zip(cells, found)]
    if stats is not None:
        stats.add(guide_steps=steps, evaluations=passes,
                  pairs_refused=sum(cell.w >= 2 and not ks for cell, ks in zip(cells, zeros)))
    return zeros


def _origin(p):
    """(m0, r0) for the zero of p at k = 0 when its exact order m0
    (ExpPolynomial.origin_order) is at least 2, else None.

    r0 is the least radius, on a grid of steps of 2^(1/8), at which the
    leading Taylor term |c_m0| r^m0 / m0! exceeds the bound
    sum_r |a_r| (|sigma_r| r)^(m0 + 1) / (m0 + 1)! e^{|sigma_r| r} on the
    rest of the series plus the noise-floor probe's threshold, _LOUD eps
    sum_r |a_r| e^{|sigma_r| r} (see _settle): from r0 on, as long as the
    tail stays below the leading term, p is loud and winds m0 times
    around k = 0 (by Rouche's theorem).  None also when no radius of the
    grid passes.
    """
    m, c = p.origin_order
    if m < 2:
        return None
    sigmas, sizes = p.size_table
    s = np.abs(sigmas)[:, None]
    lead = abs(c) / math.factorial(m)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        # from the radius where the leading term meets the threshold at 0
        r = (_LOUD * _EPS * sizes.sum() / lead) ** (1.0 / m) * 2.0 ** (np.arange(321) / 8.0)
        rest = ((s * r) ** (m + 1) / math.factorial(m + 1) + _LOUD * _EPS) * np.exp(s * r)
        ok = np.flatnonzero(lead * r ** m > sizes @ rest)
    return (m, float(r[ok[0]])) if ok.size else None


def _pick(rect, zeros, origin):
    """The children of rect's midpoint split that hold its known zeros,
    as _Cells without sides, each winding as many times as the zeros it
    holds, in the order BL, BR, TL, TR; or None when a zero lies too near
    a cut.  zeros is (0j,) for k = 0 when origin is (m0, r0) of _origin,
    and k = 0 winds m0 times; else each zero is a located, simple one.

    Both cuts must pass k = 0 by more than max(2 r0, 10^(-12/m0) times
    rect's diameter): the first bound keeps them where p is loud and winds
    like its leading Taylor term; the second keeps |p| on them above 1e-12
    of |p| on the sides, far from the 1e-14 of a suspected zero.  They must
    pass a located zero by more than 1e-6 of rect's width or height, where
    a real split may re-place the cut, and by more than 1e-12 max(1, |k|),
    about the precision of the polish, which on a tiny cell is the wider
    margin."""
    kids = _quad(rect, 0.0, 0.0)
    x0, x1, y0, y1 = rect
    xc, yc = kids[0][1], kids[0][3]
    at_origin = origin is not None and zeros == (0j,)
    m = origin[0] if at_origin else 1
    held = [()] * 4
    for k in zeros:
        if at_origin:
            gap_x = gap_y = max(2.0 * origin[1],
                                10.0 ** (-12.0 / m) * math.hypot(x1 - x0, y1 - y0))
        else:
            floor = 1e-12 * max(1.0, abs(k))
            gap_x, gap_y = max(1e-6 * (x1 - x0), floor), max(1e-6 * (y1 - y0), floor)
        if abs(k.real - xc) <= gap_x or abs(k.imag - yc) <= gap_y:
            return None
        held[(k.real > xc) + 2 * (k.imag > yc)] += (k,)
    return [_Cell(kid, m * len(ks), None, ks) for kid, ks in zip(kids, held) if ks]


def _guide(p, to_split, origin, stats):
    """Split the _Cells of to_split that their known zeros decide,
    evaluating nothing, and sample afresh the cells without sides left to
    split for real.

    A cell's known zeros are those it was split off with.  For a cell with
    sides they are, when origin is (m0, r0) of _origin (not None) and the
    cell holds k = 0 strictly inside, k = 0 if the cell winds m0 times and
    none else; and otherwise the zeros that _locate finds when the cell
    winds at most _LOCATE_MAX times.  The cell is split by its zeros when
    _pick finds the children that hold them.  Else it is split for real: a
    cell without sides is first sampled afresh, and its winding must be the
    one it carries.

    Returns the _Cells in order, each in its parent's place: the children
    of the splits decided by zeros, without sides, and the cells left to
    split for real, with sides and no zeros.
    """
    zeros = [cell.zeros for cell in to_split]
    located = []
    for i, cell in enumerate(to_split):
        if cell.sides is None:
            continue
        if origin is not None and _inside(cell.rect, 0j):
            if cell.w == origin[0]:
                zeros[i] = (0j,)
        elif cell.w <= _LOCATE_MAX:
            located.append(i)
    if located:
        for i, ks in zip(located, _locate(p, [to_split[i] for i in located], stats)):
            zeros[i] = ks
    cells, bare = [], []
    counts = dict(guided=0, origin_guided=0, guide_fallbacks=0, pairs_refused=0)
    for cell, ks in zip(to_split, zeros):
        by_origin = origin is not None and ks == (0j,)
        kids = _pick(cell.rect, ks, origin) if ks else None
        if kids is not None:
            counts["origin_guided" if by_origin else "guided"] += 1
            cells.extend(kids)
            continue
        if cell.sides is None:
            counts["guide_fallbacks"] += not by_origin
            bare.append(len(cells))
            cell = cell._replace(zeros=())
        elif len(ks) >= 2:
            counts["pairs_refused"] += 1
        cells.append(cell)
    if bare:
        ws, sides = _windings(p, [cells[i].rect for i in bare], _MAX_ROUNDS, _MAX_POINTS, stats)
        for i, w in zip(bare, ws):
            if not (isinstance(w, int) and w == cells[i].w):
                raise NonConvergenceError("cell %r winds %s when sampled afresh, not %d"
                                          % (cells[i].rect, w, cells[i].w))
        store = _Sides(*sides)
        for slot, i in enumerate(bare):
            cells[i] = cells[i]._replace(sides=(store, slot))
    if stats is not None:
        stats.add(resampled=len(bare), **counts)
    return cells


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
    return _EPS * m[-1]


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
    frontier order, and the _Cells left to quadrisect.
    """
    ones = [i for i, (_, cw, _, _) in enumerate(frontier) if cw == 1]
    rects = [frontier[i][0] for i in ones]
    centres = [complex(0.5 * (x0 + x1) + 1j * (0.5 * (y0 + y1))) for x0, x1, y0, y1 in rects]
    ks, _, steps, passes = _newton(p, rects, centres)
    roots = dict(zip(ones, ks))
    probed = [i for i, (cell, _, _, _) in enumerate(frontier)
              if roots.get(i) is None
              and np.hypot(cell[1] - cell[0], cell[3] - cell[2]) > tol]
    loud = {}
    if probed:
        cells = [frontier[i][0] for i in probed]
        loud = dict(zip(probed, (_probe_max(p, cells) > _LOUD * _noise_floor(p, cells)).tolist()))
    settled = []
    to_split = []
    for i, (cell, cw, _, _) in enumerate(frontier):
        if roots.get(i) is not None:
            settled.append((roots[i], 1, cell, True))
        elif loud.get(i):
            to_split.append(frontier[i])
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
        stats.add(newton_iterations=steps, newton_failures=sum(k is None for k in ks),
                  noise_clusters=sum(not v for v in loud.values()),
                  evaluations=passes + bool(probed) + bool(settled))
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

    A cell that has to be split, and whose known zeros strictly inside
    add up to its winding, is split by them while its cuts pass well clear
    of each (see the module docstring).  The known zeros are the located
    zeros of a cell that winds at most _LOCATE_MAX times, kept only when
    each stands apart from the others far beyond the evaluation noise, and
    the zero of order m0 >= 2 at k = 0.  The children that hold
    the zeros are the children that winding all four would keep, with the
    same windings, so the subdivision visits the same cells, and every
    Resonance is the same, as when every child is wound.  Only the work
    differs.  Such children have no sides; where a chain of them stops,
    its cell is sampled afresh and split for real.
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
    outer, w, sides = _outer_winding(p, (x0, x1, y0, y1), stats)
    if w == 0:
        return []
    origin = _origin(p)
    found = []
    frontier = [_Cell(outer, w, sides, ())]
    while frontier:
        settled, to_split = _settle(p, frontier, tol, stats)
        found.extend(settled)
        frontier = _guide(p, to_split, origin, stats)
        # the cells to split for real are split in one call, and their
        # children take their places among the children that a zero decided
        places = [cell if cell.sides is None else None for cell in frontier]
        wound = [cell for cell in frontier if cell.sides is not None]
        frontier = to_split = None
        packs = iter(_split(p, wound, stats) if wound else ())
        frontier = []
        for cell in places:
            frontier.extend(next(packs) if cell is None else (cell,))
    found.sort(key=lambda r: (r.k.real, r.k.imag))
    # cells cut at equal values hold one float per value (zeros are left
    # alone, to keep their sign), so that results kept for long are small
    corners = {}
    return [Resonance(r.k, r.multiplicity, r.residual,
                      tuple([v and corners.setdefault(v, v) for v in r.cell]), r.refined)
            for r in found]


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


def count_in_disc(p, radius, stats=None):
    """Zeros of p with 0 < |k| <= radius, counted with multiplicity.

    Searches the rectangle [-R-1/2, R+1/2] x [-K-1/2, K+1/2] where K is the
    certified strip height, then keeps |k| <= R (with a 1e-9 margin so zeros
    sitting on the circle up to rounding are not dropped).  A zero at the
    origin is excluded from the count and flagged.  stats is passed on to
    find_roots.

    Only roots reported within 1e-9 of the origin are taken for it.  A zero
    of order >= 2 at k = 0 can come back as noise-floor clusters or Newton
    roots at |k| ~ 1e-8, and those are still counted, so such a count can
    be too high by part of that order.  find_roots knows the order exactly
    (ExpPolynomial.origin_order), but uses it only to split cells with less
    work; the count keeps the 1e-9 rule.
    """
    radius = float(radius)
    if not (math.isfinite(radius) and radius > 0):
        raise ValueError("radius must be positive and finite, got %r" % radius)
    K = strip_bound(p)
    rect = (-radius - 0.5, radius + 0.5, -K - 0.5, K + 0.5)
    roots = find_roots(p, rect, stats=stats)
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
    count_in_disc over those radii, divided by 2/pi; it needs at least two
    distinct radii.
    """
    if radii is None:
        lo, hi = p.sigma_range()
        return (hi - lo) / 2.0
    radii = [float(R) for R in radii]
    if len(set(radii)) < 2:
        raise ValueError("the empirical rate needs at least two radii that differ, got %r"
                         % (radii,))
    counts = [count_in_disc(p, R).count for R in radii]
    slope = np.polyfit(radii, counts, 1)[0]
    return float(slope) * np.pi / 2.0
