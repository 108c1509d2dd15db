"""Command line front end.

Subcommands: validate, classify, det, roots, count, dtn-check, circle-curve,
circle-verify.  Exit codes: 0 success, 1 usage error (including bad input
files), 2 computation failure.  CSV output always carries a header row and
prints floats with 17 significant digits, so identical invocations are
byte-identical.  roots and count take --stats, which adds one JSON line of
root-finder counters on stderr and leaves stdout as it is; det --stats adds
one JSON line of the matrix sizes before and after elimination.  An empty
-o, or an -o file that cannot be written, is refused before any work is
done, and a graph whose matrix exceeds the expansion's capacity before it
is assembled.

Each subcommand imports the modules it runs when it runs, so validate,
classify and det never load numpy: the determinant is expanded and printed
in integer arithmetic, and numpy loads only when something is evaluated.
dtn-check and circle-verify refuse more than MAX_SAMPLES sample points,
and circle-curve more than MAX_C_STEPS steps of c.
"""

import argparse
import json
import math
import os
import re
import sys

from .errors import ComputationError
from .graph import (GraphFormatError, build_circle_graph, classify_weyl,
                    load_graph, validate)

# bound on --samples of dtn-check and circle-verify: a million points take
# circle-verify about 1.2 s and 127 MiB, dtn-check about 3 minutes (2-core
# x86_64 host); numpy could not even allocate 1e11 of them
MAX_SAMPLES = 10 ** 6
# bound on --c-steps of circle-curve, whose whole grid is traced before any
# output: 1e5 steps take 1.8 to 2.7 s and 68 MiB, 1e6 steps 15.4 s and
# 428 MiB (2-core x86_64 host)
MAX_C_STEPS = 10 ** 5


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a value that starts with '-' is taken for an option unless it
        # matches this; before Python 3.13, argparse's own pattern knows
        # only -1 and -.5, so --im-min -1e-1 would be refused as a missing
        # argument.  Any float with a sign and an exponent is a number here
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    # argparse exits with 2 on usage problems; 2 is reserved for computation
    # failures here, so usage errors are routed to exit code 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, "%s: error: %s\n" % (self.prog, message))


def _g(x):
    return "%.17g" % float(x)


def _emit(args, lines):
    text = "\n".join(lines) + "\n"
    if getattr(args, "output", None) is not None:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            args.sub.error("cannot write %s: %s" % (args.output, exc.strerror))
    else:
        sys.stdout.write(text)


def _check_output(args):
    """Refuse an -o file that cannot be written before any work is done.

    The probe opens the file for appending, which truncates nothing, and
    removes it again if the probe created it; _emit writes it at the end.
    """
    path = getattr(args, "output", None)
    if path is None:
        return
    if not path:
        args.sub.error("-o must name a file")
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        args.sub.error("cannot write %s: %s" % (path, exc.strerror))
    if not existed:
        os.remove(path)


def _print_stats(stats):
    """One JSON line of the RootStats counters on stderr, when asked for."""
    if stats is not None:
        import dataclasses
        print(json.dumps(dataclasses.asdict(stats)), file=sys.stderr)


def _add_graph_source(sub):
    sub.add_argument("--graph", metavar="FILE",
                     help="graph description file (JSON)")
    sub.add_argument("--circle", metavar="C", type=float,
                     help="two-lead circle at surgery parameter C in [0,1] "
                          "instead of a file")


def _check_sampling(parser, args):
    if args.samples < 1:
        parser.error("--samples must be positive")
    if args.samples > MAX_SAMPLES:
        parser.error("--samples must be at most %d" % MAX_SAMPLES)
    if args.seed < 0:
        parser.error("--seed must not be negative")


def _add_sampling(sub, samples):
    sub.add_argument("--samples", type=int, default=samples,
                     help="random sample points, at most %d (default %d)"
                          % (MAX_SAMPLES, samples))
    sub.add_argument("--seed", type=int, default=0)


def _add_stats_flag(sub):
    sub.add_argument("--stats", action="store_true",
                     help="write the root finder's work counters to stderr "
                          "as one JSON line")


def _resolve_graph(parser, args):
    if (args.graph is None) == (args.circle is None):
        parser.error("exactly one of --graph and --circle is required")
    if args.circle is not None:
        if not 0.0 <= args.circle <= 1.0:
            parser.error("--circle must lie in [0, 1]")
        return build_circle_graph(args.circle)
    try:
        return load_graph(args.graph)
    except FileNotFoundError:
        parser.error("no such file: %s" % args.graph)
    except OSError as exc:  # a directory, or a file we may not read
        parser.error("cannot read %s: %s" % (args.graph, exc.strerror))
    except GraphFormatError as exc:
        parser.error("%s: %s" % (args.graph, exc))


def _checked_graph(parser, args):
    graph = _resolve_graph(parser, args)
    report = validate(graph)
    if not report.ok:
        for line in report.violations:
            print(line, file=sys.stderr)
        raise SystemExit(1)
    return graph


def _cmd_validate(parser, args):
    graph = _resolve_graph(parser, args)
    report = validate(graph)
    if report.ok:
        print("ok")
        return 0
    for line in report.violations:
        print(line)
    return 1


def _cmd_classify(parser, args):
    graph = _checked_graph(parser, args)
    cls = classify_weyl(graph)
    names = ", ".join(graph.vertex_name(v) for v in cls.balanced_vertices)
    print("Weyl: %s; volume: %s; balanced vertices: %s" % (
        "true" if cls.is_weyl else "false", _g(cls.volume), names or "none"))
    return 0


def _assembled(parser, args):
    """(graph, vertex-condition matrix), the size refused before assembly."""
    from .constraint import assemble, check_capacity, matrix_size
    graph = _checked_graph(parser, args)
    check_capacity(matrix_size(graph))
    return graph, assemble(graph)


def _det_poly(parser, args):
    return _assembled(parser, args)[1].determinant()


def _cmd_det(parser, args):
    mat = _assembled(parser, args)[1]
    _emit(args, [mat.determinant().dump()])
    if args.stats:
        print(json.dumps(mat.sizes), file=sys.stderr)
    return 0


def _cmd_roots(parser, args):
    region = (args.re_min, args.re_max, args.im_min, args.im_max)
    if not all(math.isfinite(v) for v in region):
        parser.error("search region %r is not finite" % (region,))
    if not (args.re_min < args.re_max and args.im_min < args.im_max):
        parser.error("empty search region %r" % (region,))
    if not (math.isfinite(args.tol) and args.tol > 0):
        parser.error("--tol must be positive and finite")
    from .rootfind import RootStats, find_roots
    poly = _det_poly(parser, args)
    stats = RootStats() if args.stats else None
    lines = ["re_k,im_k,multiplicity,residual"]
    for r in find_roots(poly, region, tol=args.tol, stats=stats):
        lines.append("%s,%s,%d,%s" % (_g(r.k.real), _g(r.k.imag),
                                      r.multiplicity, _g(r.residual)))
    _emit(args, lines)
    _print_stats(stats)
    return 0


def _cmd_count(parser, args):
    if (args.radius is None) == (args.radii is None):
        parser.error("exactly one of --radius and --radii is required")
    if args.radius is not None:
        radii = [args.radius]
    else:
        try:
            radii = [float(s) for s in args.radii.split(",") if s.strip()]
        except ValueError:
            parser.error("--radii wants a comma-separated list of numbers")
        if not radii:
            parser.error("--radii is empty")
    for R in radii:
        if not (math.isfinite(R) and R > 0):
            parser.error("radius %r is not positive and finite" % R)
    from .rootfind import RootStats, count_in_disc
    poly = _det_poly(parser, args)
    stats = RootStats() if args.stats else None
    if args.radius is not None:
        lines = ["%d" % count_in_disc(poly, args.radius, stats=stats).count]
    else:
        lines = ["R,count"]
        for R in radii:
            lines.append("%s,%d" % (_g(R), count_in_disc(poly, R, stats=stats).count))
    _emit(args, lines)
    _print_stats(stats)
    return 0


def _cmd_dtn_check(parser, args):
    _check_sampling(parser, args)
    graph, mat = _assembled(parser, args)
    import numpy as np
    from .dtn import verify_det_identity, verify_derivative_identity
    poly = mat.determinant()
    rng = np.random.default_rng(args.seed)
    worst_det = worst_deriv = 0.0
    for _ in range(args.samples):
        k = complex(rng.uniform(-5, 5), rng.uniform(0.3, 2.0))
        worst_det = max(worst_det, verify_det_identity(graph, k, poly))
        worst_deriv = max(worst_deriv, verify_derivative_identity(graph, k))
    print("det identity max residual: %.6e" % worst_det)
    print("derivative identity max residual: %.6e" % worst_deriv)
    return 0


def _cmd_circle_curve(parser, args):
    if args.n < 1 or args.n % 2 != (0 if args.parity == "even" else 1):
        parser.error("--n must be a positive integer of %s parity" % args.parity)
    if args.c_steps < 1:
        parser.error("--c-steps must be positive")
    if args.c_steps > MAX_C_STEPS:
        parser.error("--c-steps must be at most %d" % MAX_C_STEPS)
    from . import circle
    grid = [j / args.c_steps for j in range(args.c_steps)]
    curve = circle.trace_curve(args.parity, args.n, grid)
    cs = [c for c, _ in curve.samples]
    flags = [0] * len(cs)
    for cr in curve.crossings:
        j = min(range(len(cs)), key=lambda i: abs(cs[i] - cr.c))
        flags[j] = 1
    lines = ["c,re_k,im_k,crossed_real"]
    for (c, k), flag in zip(curve.samples, flags):
        lines.append("%s,%s,%s,%d" % (_g(c), _g(k.real), _g(k.imag), flag))
    _emit(args, lines)
    return 0


def _cmd_circle_verify(parser, args):
    if not 0.0 <= args.c < 1.0:
        parser.error("--c must lie in [0, 1)")
    _check_sampling(parser, args)
    from . import circle
    rep = circle.verify_factorization(args.c, n_samples=args.samples,
                                      seed=args.seed)
    print("factorization at c = %s: sign %+d, samples %d, seed %d, "
          "max relative residual %.6e" % (_g(rep.c), rep.sign, rep.samples,
                                          rep.seed, rep.max_residual))
    return 0


def main(argv=None):
    parser = _Parser(prog="qgraph",
                     description="Resonances of quantum graphs with leads.")
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True

    p = sub.add_parser("validate", help="check a graph description")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_validate, sub=p)

    p = sub.add_parser("classify", help="Weyl / non-Weyl classification")
    _add_graph_source(p)
    p.set_defaults(func=_cmd_classify, sub=p)

    p = sub.add_parser("det", help="print the secular determinant, one "
                                   "exponent-vector term per line")
    _add_graph_source(p)
    p.add_argument("--output", "-o", metavar="FILE")
    p.add_argument("--stats", action="store_true",
                   help="write the matrix sizes before and after elimination to "
                        "stderr as one JSON line")
    p.set_defaults(func=_cmd_det, sub=p)

    p = sub.add_parser("roots", help="resonances in a rectangle (CSV)")
    _add_graph_source(p)
    for flag in ("--re-min", "--re-max", "--im-min", "--im-max"):
        p.add_argument(flag, type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--output", "-o", metavar="FILE")
    _add_stats_flag(p)
    p.set_defaults(func=_cmd_roots, sub=p)

    p = sub.add_parser("count", help="resonance count in a disc")
    _add_graph_source(p)
    p.add_argument("--radius", type=float)
    p.add_argument("--radii", metavar="R1,R2,...",
                   help="several radii at once, CSV output")
    p.add_argument("--output", "-o", metavar="FILE")
    _add_stats_flag(p)
    p.set_defaults(func=_cmd_count, sub=p)

    p = sub.add_parser("dtn-check",
                       help="residuals of the two Dirichlet-to-Neumann "
                            "determinant identities at random sample points")
    _add_graph_source(p)
    _add_sampling(p, 10)
    p.set_defaults(func=_cmd_dtn_check, sub=p)

    p = sub.add_parser("circle-curve",
                       help="trace one resonance curve of the two-lead "
                            "circle over the surgery parameter (CSV)")
    p.add_argument("--parity", choices=("even", "odd"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--c-steps", type=int, default=400,
                   help="steps of c over [0, 1), at most %d (default 400)" % MAX_C_STEPS)
    p.add_argument("--output", "-o", metavar="FILE")
    p.set_defaults(func=_cmd_circle_curve, sub=p)

    p = sub.add_parser("circle-verify",
                       help="factorization residual of the circle "
                            "determinant against the parity components")
    p.add_argument("--c", type=float, required=True)
    _add_sampling(p, 50)
    p.set_defaults(func=_cmd_circle_verify, sub=p)

    args = parser.parse_args(argv)
    _check_output(args)
    try:
        return args.func(args.sub, args)
    except ComputationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
