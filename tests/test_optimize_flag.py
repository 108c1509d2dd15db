"""Argument checks must not be assert statements, which python -O strips.

The tests below raise on bad arguments; they are run again in a python -O
subprocess, which imports the same qgraph package as this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import qgraph

ARGUMENT_CHECKS = (
    "test_circle.py::test_params_rejects_outside_range",
    "test_circle.py::test_factorization_report",
    "test_circle.py::test_crossing_values_rejects_bad_args",
    "test_circle.py::test_trace_rejects_mismatched_parity",
    "test_exppoly.py::test_table_mismatch_rejected",
    "test_exppoly.py::test_sigma_range",
    "test_rootfind.py::test_winding_rejects_empty_rect",
    "test_rootfind.py::test_find_roots_rejects_zero_poly",
    "test_rootfind.py::test_argument_checks_raise_value_error",
    "test_rootfind.py::test_find_roots_rejects_bad_region_and_tol",
    "test_rootfind.py::test_batched_winding_flags_boundary_zeros",
    "test_constraint.py::test_capacity_refused",
    "test_constraint.py::test_assemble_rejects_invalid",
    "test_constraint.py::test_edge_capacity_refused_before_grid",
    "test_constraint.py::test_submatrix_argument_errors",
)


def test_argument_checks_hold_under_optimize():
    tests = Path(__file__).resolve().parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(qgraph.__file__).resolve().parents[1]), str(tests),
                      env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
           *(str(tests / node) for node in ARGUMENT_CHECKS)]
    done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    assert "%d passed" % len(ARGUMENT_CHECKS) in done.stdout
