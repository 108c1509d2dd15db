"""Argument checks must not be assert statements, which python -O strips.

The tests below raise on bad arguments, or check the root finder's budgets,
its fresh and inherited samples and its splits by located zeros or by
k = 0, the guard that refuses close located zeros, its frontier cells and
its picks of the children that hold zeros, its one-pass descent of the
k = 0 chain and its first cuts that pass an exact zero at k = 0; they are
run again in a python -O subprocess, which imports the same qgraph
package as this suite.
"""

import os
import subprocess
import sys
from pathlib import Path

import qgraph

ARGUMENT_CHECKS = (
    "test_circle.py::test_params_rejects_outside_range",
    "test_circle.py::test_factorization_report",
    "test_circle.py::test_factorization_rejects_bad_sample_counts",
    "test_circle.py::test_crossing_values_rejects_bad_args",
    "test_circle.py::test_trace_rejects_mismatched_parity",
    "test_exppoly.py::test_table_mismatch_rejected",
    "test_exppoly.py::test_sigma_range",
    "test_exppoly.py::test_non_finite_input_rejected",
    "test_rootfind.py::test_winding_rejects_empty_rect",
    "test_rootfind.py::test_find_roots_rejects_zero_poly",
    "test_rootfind.py::test_argument_checks_raise_value_error",
    "test_rootfind.py::test_find_roots_rejects_bad_region_and_tol",
    "test_rootfind.py::test_batched_winding_flags_boundary_zeros",
    "test_rootfind.py::test_huge_rectangle_is_refused_without_sampling",
    "test_rootfind.py::test_cells_hold_plain_floats",
    "test_rootfind.py::test_inherited_windings_match_fresh_sampling[c=0.3]",
    "test_rootfind.py::test_inherited_windings_match_fresh_sampling[c=3/5]",
    "test_rootfind.py::test_inherited_windings_match_fresh_sampling[c=1]",
    "test_rootfind.py::test_inherited_windings_match_fresh_sampling[E5V4L2b]",
    *("test_rootfind.py::%s[%s]" % (test, case)
      for test in ("test_root_stats_without_a_located_zero", "test_located_child_is_the_wound_child")
      for case in ("c=0.3", "c=3/5", "c=1", "E5V4L2b")),
    *("test_rootfind.py::%s[%s-%s]" % (test, case, radius)
      for test in ("test_located_zeros_give_the_same_answer",
                   "test_chains_sent_back_give_the_same_answer")
      for case, radius in (("c=0.3", 20.0), ("c=0.3", 40.0), ("c=3/5", 20.0), ("c=3/5", 40.0),
                           ("c=1", 20.0), ("c=1", 40.0), ("E5V4L2b", 8.0))),
    *("test_rootfind.py::test_chains_sent_back_give_the_same_answer[%s-8.0]" % case
      for case in ("E5V4L1b", "E6V5L2b", "E7V6L2b", "E7V6L1", "E6V5L1b")),
    *("test_rootfind.py::%s[%s]" % (test, case)
      for test in ("test_origin_splits_give_the_same_answer",
                   "test_origin_child_is_the_wound_child")
      for case in ("E5V4L2b", "E5V4L1b", "E6V5L2b", "E7V6L2b", "E7V6L1", "E6V5L1b")),
    *("test_rootfind.py::test_frontier_cells_have_sides_or_a_zero[%s-%s]" % (case, sent_back)
      for case in ("c=0.3", "c=3/5", "c=1", "E5V4L2b", "E5V4L1b", "E6V5L2b", "E7V6L2b", "E7V6L1",
                   "E6V5L1b")
      for sent_back in ("picked", "sent-back")),
    "test_rootfind.py::test_pick_matches_the_picks_it_replaces",
    "test_rootfind.py::test_close_pair_is_split_by_its_zeros_or_refused[0.01]",
    "test_rootfind.py::test_close_pair_is_split_by_its_zeros_or_refused[1e-09]",
    "test_rootfind.py::test_five_zeros_are_split_by_their_zeros_or_refused[None]",
    "test_rootfind.py::test_five_zeros_are_split_by_their_zeros_or_refused[1e-09]",
    "test_rootfind.py::test_newton_gives_up_on_a_non_finite_iterate",
    "test_rootfind.py::test_origin_splits_give_the_same_answer_on_the_family",
    *("test_rootfind.py::test_one_pass_descent_gives_the_same_answer[%s]" % case
      for case in ("E5V4L2b", "E5V4L1b", "E6V5L2b", "E7V6L2b", "E7V6L1", "E6V5L1b")),
    "test_rootfind.py::test_one_pass_descent_gives_the_same_answer_on_the_family",
    "test_rootfind.py::test_no_cut_through_an_exact_zero",
    "test_rootfind.py::test_cut_through_zero_runs_where_p_is_not_zero",
    "test_rootfind.py::test_level_mixing_a_cut_through_zero",
    "test_rootfind.py::test_fresh_winding_that_disagrees_is_an_error",
    "test_rootfind.py::test_fresh_sides_keep_the_written_out_samples",
    *("test_rootfind.py::test_origin_order_by_high_precision_evaluation[%s]" % case
      for case in ("E5V4L2b", "E5V4L1b", "E6V5L2b", "E7V6L2b", "E7V6L1", "E6V5L1b", "E6V6L2b",
                   "E6V3L1-rank4", "circle c=0.3", "circle c=1", "sin(pi k)^2")),
    "test_exppoly.py::test_origin_order_is_exact",
    "test_cli.py::test_huge_disc_is_a_computation_error",
    "test_graph.py::test_lead_count_limit",
    "test_constraint.py::test_capacity_refused",
    "test_constraint.py::test_assemble_rejects_invalid",
    "test_constraint.py::test_edge_capacity_refused_before_grid",
    "test_constraint.py::test_submatrix_argument_errors",
    "test_dtn.py::test_matrices_reject_an_invalid_graph",
    "test_incidence.py::test_vertex_profile_rejects_a_vertex_outside_the_graph",
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
