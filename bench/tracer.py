"""Spans around qgraph's public functions, recorded from outside the package.

Each target function is replaced, for the duration of a traced call, in
every qgraph module that binds it (``qgraph.cli.count_in_disc`` as well as
``qgraph.rootfind.count_in_disc``); methods are replaced on their class.
A span holds its name, parent span, op index, start, end and two counts
(``items`` and ``aux``, whose meaning depends on the target, see TARGETS).
Spans live in flat arrays in memory and are written once, at the end.
"""

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from qgraph import circle, constraint, dtn, exppoly, graph, rootfind

FAILED = 1
SCALAR = 2


def _eval_counts(args, kwargs, result):
    # items: points evaluated; aux: points x terms, the kernel's work
    poly = args[0]
    k = args[1] if len(args) > 1 else kwargs["k"]
    n = int(np.size(k))
    return n, n * len(poly.terms), SCALAR if np.ndim(k) == 0 else 0


def _det_counts(args, kwargs, result):
    # items: terms of the expansion; aux: number of edges
    mat = args[0]
    return (len(result.terms) if result is not None else 0), len(mat.lengths), 0


# (span name, owner, attribute, counts); the owner is a module or a class
TARGETS = (
    ("graph.validate", graph, "validate", None),
    ("constraint.assemble", constraint, "assemble", None),
    ("constraint.determinant", constraint.ConstraintMatrix, "determinant", _det_counts),
    ("exppoly.eval", exppoly.ExpPolynomial, "eval", _eval_counts),
    ("exppoly.eval_derivative", exppoly.ExpPolynomial, "eval_derivative", _eval_counts),
    ("rootfind.winding_number", rootfind, "winding_number", None),
    ("rootfind.strip_bound", rootfind, "strip_bound", None),
    ("rootfind.find_roots", rootfind, "find_roots", None),
    ("rootfind.count_in_disc", rootfind, "count_in_disc", None),
    ("circle.det_poly", circle, "det_poly", None),
    ("circle.trace_curve", circle, "trace_curve", None),
    ("circle.verify_factorization", circle, "verify_factorization", None),
    ("dtn.verify_det_identity", dtn, "verify_det_identity", None),
)


def _qgraph_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qgraph" or name.startswith("qgraph."))]


class Tracer:
    def __init__(self):
        self.names = [t[0] for t in TARGETS]
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.flags = array("b")
        self.items = array("q")
        self.aux = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_op = -1
        self._stack = []
        self._patches = []

    def _wrap(self, nid, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.start.append(0.0)
            tracer.end.append(0.0)
            tracer.items.append(0)
            tracer.aux.append(0)
            tracer.flags.append(0)
            tracer._stack.append(idx)
            result = None
            flags = 0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                flags = FAILED
                raise
            finally:
                t1 = perf_counter()
                tracer._stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
                if counts is not None:
                    items, aux, more = counts(args, kwargs, result)
                    tracer.items[idx] = items
                    tracer.aux[idx] = aux
                    flags |= more
                tracer.flags[idx] = flags
        return traced

    def install(self):
        modules = _qgraph_modules()
        for nid, (name, owner, attr, counts) in enumerate(TARGETS):
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(nid, original, counts))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(nid, original, counts)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def call(self, op_index, fn, *args):
        """Run fn(*args) with every target traced, spans tagged op_index."""
        self.current_op = op_index
        self.install()
        try:
            return fn(*args)
        finally:
            self.uninstall()
            self.current_op = -1

    def arrays(self):
        return {key: np.array(getattr(self, key))
                for key in ("name_id", "parent", "op", "flags", "items", "aux",
                            "start", "end")}

    def save(self, path):
        a = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **a)

    def layer_metrics(self, n_ops, resonances, op_seconds):
        """Per-layer figures of a traced run, in layer order, per op unless the
        unit says otherwise.  resonances and op_seconds are totals over the
        traced ops."""
        a = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        tot = span_totals(a, len(self.names))
        per_op = max(n_ops, 1)

        def get(name, field):
            return float(tot[field][ids[name]])

        def ratio(num, den):
            return num / den if den else 0.0

        def seconds(name):
            return (get(name, "s") / per_op, "s/op")

        def calls(name):
            return (get(name, "calls") / per_op, "1/op")

        m = {"graph.validate.s": seconds("graph.validate"),
             "graph.validate.calls": calls("graph.validate"),
             "constraint.assemble.s": seconds("constraint.assemble")}

        det = "constraint.determinant"
        m[det + ".s"] = seconds(det)
        m[det + ".calls"] = calls(det)
        m[det + ".terms"] = (ratio(get(det, "items"), get(det, "calls")), "count")
        dets = a["name_id"] == ids[det]
        for edges in (5, 6, 7):
            sel = dets & (a["aux"] == edges)
            dur = a["end"][sel] - a["start"][sel]
            m["%s.s.E%d" % (det, edges)] = (float(dur.mean()) if dur.size else 0.0, "s/call")

        work = kernel_s = 0.0
        for name in ("exppoly.eval", "exppoly.eval_derivative"):
            m[name + ".calls"] = calls(name)
            m[name + ".points"] = (get(name, "items") / per_op, "1/op")
            m[name + ".self_s"] = (get(name, "self_s") / per_op, "s/op")
            work += get(name, "aux")
            kernel_s += get(name, "self_s")
        m["exppoly.term_points"] = (work / per_op, "1/op")
        m["exppoly.ns_per_term_point"] = (ratio(1e9 * kernel_s, work), "ns")

        wn = "rootfind.winding_number"
        m[wn + ".calls"] = calls(wn)
        m[wn + ".failed"] = (get(wn, "failed") / per_op, "1/op")
        m[wn + ".self_s"] = (get(wn, "self_s") / per_op, "s/op")
        m[wn + ".share"] = (ratio(get(wn, "s"), op_seconds), "ratio")
        parent = a["parent"]
        in_winding = np.zeros(parent.size, dtype=bool)
        nested = parent >= 0
        in_winding[nested] = a["name_id"][parent[nested]] == ids[wn]
        evals = a["name_id"] == ids["exppoly.eval"]
        m["rootfind.winding_points_per_call"] = (
            ratio(float(a["items"][evals & in_winding].sum()), get(wn, "calls")), "count")
        m["rootfind.winding_per_resonance"] = (ratio(get(wn, "calls"), resonances), "ratio")
        newton = (a["name_id"] == ids["exppoly.eval_derivative"]) & ((a["flags"] & SCALAR) > 0)
        m["rootfind.newton_iters"] = (float(newton.sum()) / per_op, "1/op")
        for name in ("rootfind.strip_bound", "rootfind.find_roots", "rootfind.count_in_disc",
                     "circle.det_poly", "circle.trace_curve", "circle.verify_factorization",
                     "dtn.verify_det_identity"):
            m[name + ".s"] = seconds(name)
        m["dtn.verify_det_identity.calls"] = calls("dtn.verify_det_identity")
        return m


def span_totals(a, n_names):
    """Per span name: calls, inclusive seconds, self seconds, items, aux,
    failed calls.  Self time is the span minus its children; calls are
    sequential, so the children never overlap."""
    dur = a["end"] - a["start"]
    nested = a["parent"] >= 0
    child = np.bincount(a["parent"][nested], weights=dur[nested], minlength=dur.size)
    ids = a["name_id"]

    def per_name(values):
        return np.bincount(ids, weights=values, minlength=n_names)

    return {"calls": np.bincount(ids, minlength=n_names),
            "s": per_name(dur),
            "self_s": per_name(dur - child),
            "items": per_name(a["items"].astype(float)),
            "aux": per_name(a["aux"].astype(float)),
            "failed": per_name((a["flags"] & FAILED).astype(float))}
