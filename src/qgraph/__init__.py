"""Resonances of quantum graphs with semi-infinite leads.

The pipeline: build a MetricGraph, assemble the vertex-condition matrix,
expand its determinant exactly as an exponential polynomial, then locate the
complex zeros (the resonances) with multiplicity, count them in discs, and
classify the leading counting rate as Weyl or non-Weyl.  The dtn module
cross-checks the determinant through the vertex Dirichlet-to-Neumann matrix,
and the circle module carries the worked two-lead circle family.
"""

from .circle import build_graph as build_circle_graph
from .constraint import ConstraintMatrix, assemble, leading_block_determinant
from .dtn import (delta, lambda_matrix, sigma_matrix, verify_derivative_identity,
                  verify_det_identity)
from .errors import (BoundaryZeroSuspected, CapacityError, ComputationError,
                     NonConvergenceError, PoleError)
from .exppoly import ExpPolynomial
from .graph import (GraphFormatError, MetricGraph, classify_weyl, dump_graph,
                    load_graph, parse_graph, validate, vertex_profile)
from .rootfind import (CountReport, Resonance, RootStats, count_in_disc,
                       find_roots, strip_bound, weyl_coefficient, winding_number,
                       winding_numbers)

__all__ = [
    "BoundaryZeroSuspected", "CapacityError", "ComputationError",
    "ConstraintMatrix", "CountReport", "ExpPolynomial", "GraphFormatError",
    "MetricGraph", "NonConvergenceError", "PoleError", "Resonance", "RootStats",
    "assemble", "build_circle_graph", "classify_weyl", "count_in_disc",
    "delta", "dump_graph", "find_roots", "lambda_matrix",
    "leading_block_determinant", "load_graph", "parse_graph", "sigma_matrix",
    "strip_bound", "validate", "verify_derivative_identity",
    "verify_det_identity", "vertex_profile", "weyl_coefficient",
    "winding_number", "winding_numbers",
]
