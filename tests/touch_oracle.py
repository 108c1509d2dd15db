"""Oracle for the touch detection of circle.trace_curve: the bounded-
minimisation detector that qgraph used before it switched to closed-form
candidates.

At every scan hit it minimises -Im k over the bracketing grid interval with
scipy's bounded scalar minimiser, re-solves at the minimiser and snaps a
confirmed touch to the crossing value within TOUCH_SNAP_TOL.  It needs scipy,
which qgraph itself no longer depends on.
"""

from qgraph.circle import (TOUCH_IM_TOL, TOUCH_SCAN_HEIGHT, Crossing, _corrector,
                           crossing_values)

TOUCH_SNAP_TOL = 1e-6


def _detect_touches(f, df, samples, parity):
    # imported here, not with the module: only curve tracing needs it, and
    # importing scipy.optimize took about 0.6 s and 48 MiB on a 2-core x86
    # host, most of what "import qgraph" cost
    from scipy.optimize import minimize_scalar

    cs = [c for c, _ in samples]
    ys = [-k.imag for _, k in samples]
    touches = []
    for j in range(1, len(samples) - 1):
        if ys[j] > TOUCH_SCAN_HEIGHT:
            continue
        if not (ys[j] <= ys[j - 1] and ys[j] <= ys[j + 1]):
            continue
        if touches and abs(cs[j] - float(touches[-1].c)) < 1e-4:
            continue

        k_seed = samples[j][1]

        def depth(c):
            k = _corrector(f, df, k_seed, c)
            return -k.imag if k is not None else 1.0

        res = minimize_scalar(depth, bounds=(cs[j - 1], cs[j + 1]),
                              method="bounded", options={"xatol": 1e-10})
        c_star = float(res.x)
        k_star = _corrector(f, df, k_seed, c_star)
        if k_star is None or abs(k_star.imag) > TOUCH_IM_TOL:
            continue
        k_int = round(k_star.real)
        snapped = None
        for cand in crossing_values(parity, max(k_int, 1)):
            if cand.k == k_int and abs(float(cand.c) - c_star) <= TOUCH_SNAP_TOL:
                snapped = cand
                break
        if snapped is not None:
            touches.append(Crossing(c=float(snapped.c), k=float(k_int)))
        else:
            touches.append(Crossing(c=c_star, k=k_star.real))
    return touches
