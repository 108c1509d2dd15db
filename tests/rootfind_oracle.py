"""The per-cell root finder, kept as a test oracle.

This is the root finder exactly as it ran before a subdivision level was
evaluated in one batched pass: one winding_number call per rectangle, one
_split call per cell and one scalar Newton iteration per cell.  The batched
qgraph.rootfind must return the same Resonance tuples, bit for bit.
"""

import numpy as np

from qgraph.errors import BoundaryZeroSuspected, NonConvergenceError
from qgraph.rootfind import (_JITTER, _MAX_OUTER_ATTEMPTS, _MAX_SPLIT_ATTEMPTS,
                             _NEWTON_ITERS, Resonance)


def _rect_points(rect, spacing):
    """Closed counterclockwise boundary polyline with corners included."""
    x0, x1, y0, y1 = rect
    pts = []
    for (ax, ay), (bx, by) in (((x0, y0), (x1, y0)), ((x1, y0), (x1, y1)),
                               ((x1, y1), (x0, y1)), ((x0, y1), (x0, y0))):
        side = np.hypot(bx - ax, by - ay)
        nseg = max(4, int(np.ceil(side / spacing)))
        t = np.arange(nseg) / nseg
        pts.append((ax + (bx - ax) * t) + 1j * (ay + (by - ay) * t))
    return np.concatenate(pts)


def winding_number(p, rect, max_rounds=48, max_points=400000):
    """Winding of p around the rectangle (re_min, re_max, im_min, im_max).

    The boundary phase is tracked on an adaptively refined polyline.  A
    midpoint is inserted wherever two neighboring samples differ by at least
    pi/2 in phase, and also wherever seglen * |p'/p| at an endpoint reaches
    pi/2: the second test is what catches a segment that passes so close to a
    multiple zero that the phase swings by nearly 2 pi and comes back between
    the two samples, which endpoint phases alone cannot see.  Raises
    BoundaryZeroSuspected when a sample lands (numerically) on a zero or the
    refinement will not settle, which callers resolve by nudging the
    rectangle.  A boundary whose initial polyline alone has more than
    max_points samples is refused before it is evaluated, as qgraph.rootfind
    refuses it before sampling.
    """
    x0, x1, y0, y1 = rect
    if not (x1 > x0 and y1 > y0):
        raise ValueError("empty rectangle %r" % (rect,))
    lo, hi = p.sigma_range()
    rate = max(1.0, abs(lo), abs(hi))
    pts = _rect_points(rect, spacing=0.7 / rate)
    if pts.size > max_points:
        raise BoundaryZeroSuspected("refinement exploded on %r" % (rect,))
    vals = p.eval(pts)
    dvals = p.eval_derivative(pts)
    scale = float(np.max(np.abs(vals)))
    for _ in range(max_rounds):
        if scale == 0.0 or np.min(np.abs(vals)) < 1e-14 * scale:
            raise BoundaryZeroSuspected("|p| ~ 0 on the boundary of %r" % (rect,))
        ph = np.angle(vals)
        d = np.diff(np.concatenate([ph, ph[:1]]))
        d = (d + np.pi) % (2 * np.pi) - np.pi
        seglen = np.abs(np.concatenate([pts[1:], pts[:1]]) - pts)
        ratio = np.abs(dvals) / np.abs(vals)
        swing = seglen * np.maximum(ratio, np.concatenate([ratio[1:], ratio[:1]]))
        bad = np.nonzero((np.abs(d) >= np.pi / 2) | (swing >= np.pi / 2))[0]
        if bad.size == 0:
            total = float(np.sum(d))
            w = int(round(total / (2 * np.pi)))
            if abs(total - 2 * np.pi * w) > 1.0:
                raise BoundaryZeroSuspected("phase sum far from a multiple of 2pi")
            return w
        if pts.size + bad.size > max_points:
            raise BoundaryZeroSuspected("refinement exploded on %r" % (rect,))
        nxt = (bad + 1) % pts.size
        mids = 0.5 * (pts[bad] + pts[nxt])
        mvals = p.eval(mids)
        mdvals = p.eval_derivative(mids)
        scale = max(scale, float(np.max(np.abs(mvals))))
        order = np.concatenate([np.arange(pts.size), bad + 0.5])
        perm = np.argsort(order)
        pts = np.concatenate([pts, mids])[perm]
        vals = np.concatenate([vals, mvals])[perm]
        dvals = np.concatenate([dvals, mdvals])[perm]
    raise BoundaryZeroSuspected("phase did not settle on %r" % (rect,))


def _grown(rect, delta):
    x0, x1, y0, y1 = rect
    return (x0 - delta, x1 + delta, y0 - delta, y1 + delta)


def _outer_winding(p, rect):
    """Winding of the search rectangle, growing it by up to 1e-3 when a zero
    sits on the boundary.  Returns (rect_used, winding).  When every attempt
    is refused, the error names the last one's cause."""
    for attempt in range(_MAX_OUTER_ATTEMPTS):
        delta = 0.0 if attempt == 0 else (0.4 + 0.6 * abs(_JITTER[attempt][0])) * 1e-3
        grown = _grown(rect, delta)
        try:
            return grown, winding_number(p, tuple(map(float, grown)))
        except BoundaryZeroSuspected as exc:
            cause = exc
    raise NonConvergenceError("could not find a zero-free boundary near %r: %s" % (rect, cause))


def _newton(p, k0, cell):
    x0, x1, y0, y1 = cell
    diam = np.hypot(x1 - x0, y1 - y0)
    k = complex(k0)
    for _ in range(_NEWTON_ITERS):
        dp = p.eval_derivative(k)
        if dp == 0:
            return None
        step = p.eval(k) / dp
        k = k - step
        if abs(k - k0) > 4 * diam:
            return None
        if abs(step) <= 1e-13 * max(1.0, abs(k)):
            if x0 < k.real < x1 and y0 < k.imag < y1:
                return k
            return None
    return None


def _split(p, cell, w):
    """Quadrisect a cell, retrying the cut position until child windings are
    defined and conserve the parent's."""
    x0, x1, y0, y1 = cell
    for attempt in range(_MAX_SPLIT_ATTEMPTS):
        ux, uy = _JITTER[attempt % len(_JITTER)]
        if attempt == 0:
            ux = uy = 0.0
        xc = 0.5 * (x0 + x1) + ux * min(1e-3, 0.2 * (x1 - x0))
        yc = 0.5 * (y0 + y1) + uy * min(1e-3, 0.2 * (y1 - y0))
        kids = ((x0, xc, y0, yc), (xc, x1, y0, yc),
                (x0, xc, yc, y1), (xc, x1, yc, y1))
        try:
            ws = [winding_number(p, kid) for kid in kids]
        except BoundaryZeroSuspected:
            continue
        if sum(ws) == w and all(wi >= 0 for wi in ws):
            return [(kid, wi) for kid, wi in zip(kids, ws) if wi > 0]
    raise NonConvergenceError("zero count not conserved when splitting %r" % (cell,))


def _noise_floor(p, cell):
    """Magnitude below which evaluations of p on the cell are dominated by
    floating-point error: eps times the sum of the individual term sizes.
    """
    x0, x1, y0, y1 = cell
    m = 0.0
    for vec, a in p.terms.items():
        s = p.sigma_of(vec)
        m += abs(a) * max(np.exp(-s * y0), np.exp(-s * y1))
    return 2.2e-16 * m


def find_roots(p, region, tol=1e-8):
    """All zeros of p in the rectangle region = (re_min, re_max, im_min,
    im_max), each as a Resonance.

    Simple zeros are polished by Newton (refined=True); clusters that never
    separate are reported once at the cell center with their total
    multiplicity and refined=False.  A cell also counts as a cluster when |p|
    on its boundary cannot rise above the evaluation noise floor: for a zero
    of multiplicity m that happens at diameter ~ eps^(1/m), which is the best
    resolution double precision admits, so splitting further would only chase
    rounding error.  Output is sorted by (Re k, Im k) and is deterministic
    for a given polynomial and region.
    """
    if p.is_zero():
        raise ValueError("zero polynomial")
    x0, x1, y0, y1 = (float(v) for v in region)
    if not (x1 > x0 and y1 > y0):
        raise ValueError("empty search region %r" % (region,))
    outer, w = _outer_winding(p, (x0, x1, y0, y1))
    if w == 0:
        return []
    found = []
    frontier = [(outer, w)]
    while frontier:
        to_split = []
        for cell, cw in frontier:
            cx = 0.5 * (cell[0] + cell[1])
            cy = 0.5 * (cell[2] + cell[3])
            diam = np.hypot(cell[1] - cell[0], cell[3] - cell[2])
            if cw == 1:
                k = _newton(p, cx + 1j * cy, cell)
                if k is not None:
                    found.append(Resonance(k=k, multiplicity=1,
                                           residual=abs(p.eval(k)),
                                           cell=cell, refined=True))
                    continue
            if diam > tol:
                probe = np.array([cell[0] + 1j * cell[2],
                                  cell[1] + 1j * cell[2],
                                  cell[1] + 1j * cell[3],
                                  cell[0] + 1j * cell[3],
                                  cx + 1j * cell[2], cx + 1j * cell[3],
                                  cell[0] + 1j * cy, cell[1] + 1j * cy])
                if np.max(np.abs(p.eval(probe))) > 32 * _noise_floor(p, cell):
                    to_split.append((cell, cw))
                    continue
            k = cx + 1j * cy
            found.append(Resonance(k=k, multiplicity=cw,
                                   residual=abs(p.eval(k)),
                                   cell=cell, refined=False))
        frontier = [kid for cell, cw in to_split for kid in _split(p, cell, cw)]
    found.sort(key=lambda r: (r.k.real, r.k.imag))
    return found
