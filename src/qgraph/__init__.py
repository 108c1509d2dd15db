"""Resonances of quantum graphs with semi-infinite leads.

The pipeline: build a MetricGraph, assemble the vertex-condition matrix,
expand its determinant exactly as an exponential polynomial, then locate the
complex zeros (the resonances) with multiplicity, count them in discs, and
classify the leading counting rate as Weyl or non-Weyl.  The dtn module
cross-checks the determinant through the vertex Dirichlet-to-Neumann matrix,
and the circle module carries the worked two-lead circle family.

The names below are resolved on first use (PEP 562), so ``import qgraph``
loads neither numpy nor any submodule until one of them is asked for.
"""

from importlib import import_module

# exported name -> the submodule that defines it
_EXPORTS = {
    "build_circle_graph": "graph", "GraphFormatError": "graph",
    "MetricGraph": "graph", "classify_weyl": "graph", "dump_graph": "graph",
    "load_graph": "graph", "parse_graph": "graph", "validate": "graph",
    "vertex_profile": "graph",
    "ConstraintMatrix": "constraint", "assemble": "constraint",
    "leading_block_determinant": "constraint",
    "delta": "dtn", "lambda_matrix": "dtn", "sigma_matrix": "dtn",
    "verify_derivative_identity": "dtn", "verify_det_identity": "dtn",
    "BoundaryZeroSuspected": "errors", "CapacityError": "errors",
    "ComputationError": "errors", "NonConvergenceError": "errors",
    "PoleError": "errors",
    "ExpPolynomial": "exppoly",
    "CountReport": "rootfind", "Resonance": "rootfind", "RootStats": "rootfind",
    "count_in_disc": "rootfind", "find_roots": "rootfind",
    "strip_bound": "rootfind", "weyl_coefficient": "rootfind",
    "winding_number": "rootfind", "winding_numbers": "rootfind",
}

_SUBMODULES = ("circle", "cli", "constraint", "dtn", "errors", "exppoly",
               "graph", "rootfind")

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name in _EXPORTS:
        value = getattr(import_module("." + _EXPORTS[name], __name__), name)
        globals()[name] = value  # later lookups skip this hook
        return value
    if name in _SUBMODULES:
        return import_module("." + name, __name__)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
