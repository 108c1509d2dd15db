import json
import re
import os
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import qgraph
from qgraph.circle import det_poly
from qgraph.cli import MAX_C_STEPS, MAX_SAMPLES, main
from qgraph.errors import NonConvergenceError
from qgraph.rootfind import RootStats, count_in_disc

CLI_GRAPH = Path(__file__).resolve().parents[1] / "bench" / "graphs" / "cli_e5.json"

TWO_ARC = {"vertices": ["v1", "v2"],
           "edges": [{"u": "v1", "v": "v2", "length": 1.0},
                     {"u": "v1", "v": "v2", "length": 1.5}],
           "leads": [{"at": "v1", "count": 1}]}

TWO_ARC_DUMP = "-1 -1 : 6.0 0.0\n0 0 : -8.0 0.0\n1 1 : 2.0 0.0"


def write_graph(tmp_path, payload, name="g.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_main(argv, capsys):
    rc = main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_validate_ok(capsys):
    rc, out, err = run_main(["validate", "--circle", "0.5"], capsys)
    assert rc == 0
    assert out == "ok\n"
    assert err == ""


def test_validate_reports_violations(tmp_path, capsys):
    path = write_graph(tmp_path, {"vertices": ["a"],
                                  "edges": [{"u": "a", "v": "a", "length": 1.0}],
                                  "leads": []})
    rc, out, err = run_main(["validate", "--graph", path], capsys)
    assert rc == 1
    assert "tadpole" in out
    # JSON reads 1e309 as infinity: a violation, not a volume
    (tmp_path / "inf.json").write_text(
        '{"vertices": ["a", "b"], "leads": [{"at": "a"}], '
        '"edges": [{"u": "a", "v": "b", "length": 1e309}]}')
    path = str(tmp_path / "inf.json")
    rc, out, _ = run_main(["validate", "--graph", path], capsys)
    assert (rc, out) == (1, "non-finite length: edge 0 has length inf\n")
    with pytest.raises(SystemExit) as info:
        main(["classify", "--graph", path])
    assert info.value.code == 1
    assert capsys.readouterr() == ("", "non-finite length: edge 0 has length inf\n")


@pytest.mark.parametrize("payload, message", [
    ({"vertices": [["a"], "b"]}, "missing or malformed 'vertices' list"),
    ({"vertices": ["a"], "leads": [{"at": "a", "count": 1e400}]}, "malformed lead record 0"),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "zz", "length": 1.0}]},
     "unknown vertex 'zz' in edge 0"),
    ({"vertices": ["a"], "leads": [{"at": "zz"}]}, "unknown vertex 'zz' in lead record 0"),
    ({"vertices": ["a"], "leads": [{"at": "a", "count": 0.5}]}, "malformed lead record 0"),
    ({"vertices": ["a"], "leads": [{"at": "a", "count": True}]}, "malformed lead record 0"),
    ({"vertices": ["a", "b"], "edges": [{"u": "a", "v": "b", "length": True}]},
     "malformed edge record 0"),
])
def test_malformed_graph_file_is_a_usage_error(payload, message, tmp_path, capsys):
    path = write_graph(tmp_path, payload)
    check_usage_error_everywhere(["validate", "--graph", path],
                                 "%s: %s" % (path, message), capsys)


def test_classify_weyl_circle(capsys):
    rc, out, _ = run_main(["classify", "--circle", "0.5"], capsys)
    assert rc == 0
    assert out == "Weyl: true; volume: 6.2831853071795862; balanced vertices: none\n"


def test_classify_non_weyl_circle(capsys):
    rc, out, _ = run_main(["classify", "--circle", "1"], capsys)
    assert rc == 0
    assert out == "Weyl: false; volume: 6.2831853071795862; balanced vertices: v2\n"


def test_det_two_arc_file(tmp_path, capsys):
    path = write_graph(tmp_path, TWO_ARC)
    rc, out, _ = run_main(["det", "--graph", path], capsys)
    assert rc == 0
    assert out == TWO_ARC_DUMP + "\n"


def test_det_circle_collapsed(capsys):
    rc, out, _ = run_main(["det", "--circle", "1"], capsys)
    assert rc == 0
    assert out == "-1 -1 : 8.0 0.0\n0 0 : -8.0 0.0\n"


def test_det_output_file_matches_stdout(tmp_path, capsys):
    path = write_graph(tmp_path, TWO_ARC)
    rc, out, _ = run_main(["det", "--graph", path], capsys)
    target = tmp_path / "det.txt"
    rc2, out2, _ = run_main(["det", "--graph", path, "-o", str(target)], capsys)
    assert rc == rc2 == 0
    assert out2 == ""
    assert target.read_text() == out


@pytest.mark.parametrize("argv, text", [
    (["count", "--circle", "1", "--radius", "20"], "40\n"),
    (["count", "--circle", "0", "--radii", "5.5"], "R,count\n5.5,21\n"),
])
def test_count_output_file_matches_stdout(argv, text, tmp_path, capsys):
    target = tmp_path / "count.txt"
    rc, out, _ = run_main(argv + ["-o", str(target)], capsys)
    assert rc == 0
    assert out == ""
    assert target.read_text() == text


def test_roots_csv_real_pair(capsys):
    rc, out, _ = run_main(["roots", "--circle", "1", "--re-min", "0.5",
                           "--re-max", "2.5", "--im-min", "-0.5",
                           "--im-max", "0.1"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "re_k,im_k,multiplicity,residual"
    rows = sorted(tuple(r.split(",")) for r in lines[1:])
    assert len(rows) == 2
    for want, (re_s, im_s, mult_s, res_s) in zip((1.0, 2.0), rows):
        assert abs(float(re_s) - want) < 1e-9
        assert abs(float(im_s)) < 1e-9
        assert mult_s == "1"
        assert float(res_s) < 1e-9


def test_roots_byte_deterministic(capsys):
    argv = ["roots", "--circle", "0", "--re-min", "-2.5", "--re-max", "2.5",
            "--im-min", "-1.0", "--im-max", "0.1"]
    _, first, _ = run_main(argv, capsys)
    _, second, _ = run_main(argv, capsys)
    assert first == second
    assert len(first.strip().split("\n")) > 1


def test_negative_numbers_with_an_exponent(capsys):
    """A negative value written with an exponent is a number, not an
    option, as -0.1 is: both spellings print the same bytes, in process
    and as python -m qgraph.  A value that is no number still fails."""
    base = ["roots", "--circle", "0.3", "--re-min", "-2", "--re-max", "2", "--im-max", "0.1"]
    spellings = (["--im-min", "-1e-1"], ["--im-min=-0.1"], ["--im-min", "-1E-1"],
                 ["--im-min", "-.1e+0"])
    outs = []
    for spelling in spellings:
        rc, out, err = run_main(base + spelling, capsys)
        assert (rc, err) == (0, "")
        outs.append(out)
    assert len(set(outs)) == 1 and len(outs[0].splitlines()) > 1
    for spelling in spellings[:2]:
        done = subprocess.run([sys.executable, "-m", "qgraph", *base, *spelling],
                              capture_output=True, text=True, env=package_env())
        assert (done.returncode, done.stdout, done.stderr) == (0, outs[0], "")
    assert "argument --im-min: expected one argument" in usage_error(
        base + ["--im-min", "-1e"], capsys)


def test_count_single_radius(capsys):
    rc, out, _ = run_main(["count", "--circle", "1", "--radius", "20"], capsys)
    assert rc == 0
    assert out == "40\n"


def test_count_radii_csv(capsys):
    rc, out, _ = run_main(["count", "--circle", "0", "--radii", "5.5"], capsys)
    assert rc == 0
    assert out == "R,count\n5.5,21\n"


STATS_FIELDS = {"boundaries", "points", "rounds", "split_attempts",
                "outer_growths", "newton_iterations", "newton_failures",
                "noise_clusters", "evaluations", "reused", "guided", "guide_steps",
                "guide_fallbacks", "origin_guided", "resampled", "pairs_refused"}


@pytest.mark.parametrize("argv", [
    ["roots", "--circle", "0", "--re-min", "-2.5", "--re-max", "2.5",
     "--im-min", "-1.0", "--im-max", "0.1"],
    ["count", "--circle", "1", "--radius", "20"],
    ["count", "--circle", "0", "--radii", "5.5,10"],
])
def test_stats_json_line_leaves_stdout_alone(argv, capsys):
    rc, plain, err = run_main(argv, capsys)
    assert rc == 0 and err == ""
    rc, out, err = run_main(argv + ["--stats"], capsys)
    assert rc == 0
    assert out == plain
    assert err.endswith("\n") and err.count("\n") == 1
    stats = json.loads(err)
    assert set(stats) == STATS_FIELDS
    assert list(stats)[-3:] == ["origin_guided", "resampled", "pairs_refused"]
    assert stats["boundaries"] > 0


def test_stats_line_carries_the_library_counters(capsys):
    _, _, err = run_main(["count", "--circle", "1", "--radius", "20", "--stats"],
                         capsys)
    want = RootStats()
    count_in_disc(det_poly(1.0), 20.0, stats=want)
    assert json.loads(err) == {name: getattr(want, name) for name in STATS_FIELDS}


def test_dtn_check_output(capsys):
    argv = ["dtn-check", "--circle", "0.5", "--samples", "4"]
    rc, out, _ = run_main(argv, capsys)
    assert rc == 0
    det_line, deriv_line = out.strip().split("\n")
    assert det_line.startswith("det identity max residual: ")
    assert deriv_line.startswith("derivative identity max residual: ")
    assert float(det_line.rsplit(" ", 1)[1]) < 1e-8
    assert float(deriv_line.rsplit(" ", 1)[1]) < 1e-5
    _, again, _ = run_main(argv, capsys)
    assert again == out


def test_circle_curve_csv(capsys):
    rc, out, _ = run_main(["circle-curve", "--parity", "odd", "--n", "3",
                           "--c-steps", "60"], capsys)
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == "c,re_k,im_k,crossed_real"
    assert len(lines) >= 61
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(r) == 4 for r in rows)
    assert float(rows[0][0]) == 0.0
    flagged = [float(r[0]) for r in rows if r[3] == "1"]
    assert len(flagged) == 1
    assert abs(flagged[0] - 1.0 / 3.0) < 1e-12


def test_circle_verify_line(capsys):
    argv = ["circle-verify", "--c", "0.5", "--samples", "20"]
    rc, out, _ = run_main(argv, capsys)
    assert rc == 0
    assert out.startswith("factorization at c = 0.5: sign ")
    assert "samples 20, seed 0" in out
    assert float(out.rsplit(" ", 1)[1]) < 1e-9
    _, again, _ = run_main(argv, capsys)
    assert again == out


def test_capacity_error_exit_two(tmp_path, capsys):
    payload = {"vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "length": 1.0 + 0.01 * j}
                         for j in range(17)],
               "leads": []}
    path = write_graph(tmp_path, payload)
    rc, out, err = run_main(["det", "--graph", path], capsys)
    assert rc == 2
    assert err == "error: matrix size 36 exceeds capacity 32\n"


def _path_graph(tmp_path, n):
    """A path of n vertices and n - 1 unit edges with one lead at its start."""
    return write_graph(tmp_path, {
        "vertices": list(range(n)),
        "edges": [{"u": i, "v": i + 1, "length": 1.0} for i in range(n - 1)],
        "leads": [{"at": 0}]}, name="path%d.json" % n)


def test_large_graphs_are_classified_and_refused_quickly(tmp_path):
    """Per-vertex work reads one incidence table: a 20,000-vertex path is
    classified, and a 2,000-vertex path is assembled and refused at the
    size bound, each well within the time limit; one scan of every edge
    per vertex took over a minute on the first."""
    argvs = (["classify", "--graph", _path_graph(tmp_path, 20000)],
             ["det", "--graph", _path_graph(tmp_path, 2000)])
    wants = ((0, "Weyl: false; volume: 19999; balanced vertices: 0\n", ""),
             (2, "", "error: matrix size 5999 exceeds capacity 32\n"))
    for argv, want in zip(argvs, wants):
        done = subprocess.run([sys.executable, "-m", "qgraph", *argv], capture_output=True,
                              text=True, env=package_env(), timeout=30)
        assert (done.returncode, done.stdout, done.stderr) == want


def test_det_stats_line_leaves_stdout_alone(capsys):
    """det --stats adds one JSON line of the matrix sizes before and after
    elimination on stderr; stdout and the exit code stay as they are."""
    argv = ["det", "--graph", str(CLI_GRAPH)]
    rc, plain, err = run_main(argv, capsys)
    assert (rc, err) == (0, "")
    rc, out, err = run_main(argv + ["--stats"], capsys)
    assert (rc, out) == (0, plain)
    stats = json.loads(err)
    assert list(stats) == ["size", "reduced"]
    assert stats["size"] == 17 and stats["reduced"] < 17


def test_oversized_graphs_are_refused_before_assembly(tmp_path, capsys, monkeypatch):
    """Every command that expands the determinant checks the matrix size
    V + 2E + L first, with the expansion's own message and exit code."""
    def assemble(*args, **kwargs):
        raise AssertionError("an oversized graph was assembled")

    monkeypatch.setattr("qgraph.constraint.assemble", assemble)
    path = _path_graph(tmp_path, 2000)
    for argv in (["det", "--graph", path], ["count", "--graph", path, "--radius", "2"],
                 ["roots", "--graph", path, "--re-min", "0", "--re-max", "1",
                  "--im-min", "-1", "--im-max", "1"],
                 ["dtn-check", "--graph", path]):
        rc, out, err = run_main(argv, capsys)
        assert (rc, out, err) == (2, "", "error: matrix size 5999 exceeds capacity 32\n")


def test_edge_capacity_error_exit_two(tmp_path, capsys):
    # 11 parallel edges: a 24 x 24 matrix, inside the size bound, but more
    # edges than the expansion takes
    payload = {"vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "length": 1.0 + 0.01 * j}
                         for j in range(11)],
               "leads": []}
    path = write_graph(tmp_path, payload)
    rc, out, err = run_main(["det", "--graph", path], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: more than 10 edges vary in the minor\n"


def usage_error(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    _, err = capsys.readouterr()
    assert info.value.code == 1
    return err


def test_usage_errors(capsys, tmp_path):
    assert "required: subcommand" in usage_error([], capsys)
    assert "unrecognized arguments" in usage_error(
        ["validate", "--circle", "0.5", "--bogus"], capsys)
    assert "exactly one of --graph and --circle" in usage_error(
        ["classify"], capsys)
    assert "exactly one of --graph and --circle" in usage_error(
        ["classify", "--graph", "x.json", "--circle", "0.5"], capsys)
    assert "--circle must lie in [0, 1]" in usage_error(
        ["classify", "--circle", "1.5"], capsys)
    assert "no such file" in usage_error(
        ["validate", "--graph", str(tmp_path / "missing.json")], capsys)
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe\x00")
    assert "binary.json: not valid JSON" in usage_error(
        ["classify", "--graph", str(binary)], capsys)
    assert "empty search region" in usage_error(
        ["roots", "--circle", "0", "--re-min", "2", "--re-max", "1",
         "--im-min", "-1", "--im-max", "0"], capsys)
    assert "exactly one of --radius and --radii" in usage_error(
        ["count", "--circle", "0"], capsys)
    assert "of even parity" in usage_error(
        ["circle-curve", "--parity", "even", "--n", "3"], capsys)
    assert "--c must lie in [0, 1)" in usage_error(
        ["circle-verify", "--c", "1.0"], capsys)


ROOTS_BOX = ["roots", "--circle", "0", "--re-min", "-1", "--re-max", "1",
             "--im-min", "-1", "--im-max", "0.1"]


@pytest.mark.parametrize("argv, message", [
    (["count", "--circle", "0", "--radius", "-1"], "radius -1.0 is not positive and finite"),
    (["count", "--circle", "0", "--radius", "nan"], "radius nan is not positive and finite"),
    (["count", "--circle", "0", "--radius", "inf"], "radius inf is not positive and finite"),
    (["count", "--circle", "0", "--radii", "5,-1"], "radius -1.0 is not positive and finite"),
    (ROOTS_BOX + ["--tol", "nan"], "--tol must be positive and finite"),
    (ROOTS_BOX + ["--tol", "0"], "--tol must be positive and finite"),
    (ROOTS_BOX[:6] + ["inf"] + ROOTS_BOX[7:],
     "search region (-1.0, inf, -1.0, 0.1) is not finite"),
    (["dtn-check", "--circle", "0", "--samples", "-3"], "--samples must be positive"),
    (["dtn-check", "--circle", "0", "--seed", "-1"], "--seed must not be negative"),
    (["circle-verify", "--c", "0.5", "--seed", "-1"], "--seed must not be negative"),
])
def test_bad_numbers_are_usage_errors(argv, message, capsys):
    """A bad number gives one error line after the usage and exit code 1,
    in process and from python -m qgraph, never a traceback or a result."""
    check_usage_error_everywhere(argv, message, capsys)


@pytest.mark.parametrize("argv, message", [
    (["validate", "--graph", "{dir}"], "cannot read {dir}: Is a directory"),
    (["det", "--circle", "0", "-o", "{dir}/missing/det.txt"],
     "cannot write {dir}/missing/det.txt: No such file or directory"),
    (["count", "--circle", "0", "--radius", "5", "-o", "{dir}/missing/n.txt"],
     "cannot write {dir}/missing/n.txt: No such file or directory"),
    (["det", "--circle", "0", "-o", ""], "-o must name a file"),
])
def test_bad_paths_are_usage_errors(argv, message, tmp_path, capsys):
    """A --graph that cannot be read or an -o that is empty or cannot be
    written is a usage error, never a traceback."""
    argv = [a.format(dir=tmp_path) for a in argv]
    check_usage_error_everywhere(argv, message.format(dir=tmp_path), capsys)
    assert sorted(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["det", "--circle", "0"],
    ROOTS_BOX,
    ["count", "--circle", "0", "--radii", "5,10"],
    ["circle-curve", "--parity", "odd", "--n", "1"],
])
def test_unwritable_output_refused_before_computing(argv, tmp_path, monkeypatch, capsys):
    def called(*args, **kwargs):
        raise AssertionError("computed before the -o check")
    for module, name in ((qgraph.constraint, "assemble"), (qgraph.rootfind, "find_roots"),
                         (qgraph.rootfind, "count_in_disc"), (qgraph.circle, "trace_curve")):
        monkeypatch.setattr(module, name, called)
    target = tmp_path / "missing" / "out.txt"
    err = usage_error(argv + ["-o", str(target)], capsys)
    assert err.splitlines()[-1] == "qgraph %s: error: cannot write %s: No such file or directory" % (
        argv[0], target)
    err = usage_error(argv + ["-o", str(tmp_path)], capsys)
    assert err.splitlines()[-1] == "qgraph %s: error: cannot write %s: Is a directory" % (
        argv[0], tmp_path)
    assert sorted(tmp_path.iterdir()) == []


def test_failed_computation_leaves_output_alone(tmp_path, monkeypatch, capsys):
    """The -o probe truncates nothing and leaves no file of its own behind
    when the computation then fails."""
    def fail(*args, **kwargs):
        raise NonConvergenceError("no luck")
    monkeypatch.setattr(qgraph.rootfind, "count_in_disc", fail)
    kept = tmp_path / "kept.txt"
    kept.write_text("earlier output\n")
    fresh = tmp_path / "fresh.txt"
    for target in (kept, fresh):
        rc, out, err = run_main(["count", "--circle", "0", "--radius", "5", "-o", str(target)],
                                capsys)
        assert (rc, out, err) == (2, "", "error: no luck\n")
    assert kept.read_text() == "earlier output\n"
    assert not fresh.exists()


@pytest.mark.parametrize("command", [["dtn-check", "--circle", "0.5"],
                                     ["circle-verify", "--c", "0.5"]])
def test_too_many_samples_refused_before_sampling(command, monkeypatch, capsys):
    """--samples above MAX_SAMPLES is a usage error, refused before any
    matrix is assembled or point drawn (1e11 points ended in a traceback
    from numpy's allocator).  The work itself is stubbed out, so only the
    refusal runs here; MAX_SAMPLES itself gets past the check."""
    def called(*args, **kwargs):
        raise AssertionError("sampled before the --samples check")
    monkeypatch.setattr(qgraph.constraint, "assemble", called)
    monkeypatch.setattr(qgraph.circle, "verify_factorization", called)
    for samples in (MAX_SAMPLES + 1, 10 ** 11):
        err = usage_error(command + ["--samples", str(samples)], capsys)
        assert err.splitlines()[-1] == "qgraph %s: error: --samples must be at most %d" % (
            command[0], MAX_SAMPLES)
    with pytest.raises(AssertionError, match="before the --samples check"):
        main(command + ["--samples", str(MAX_SAMPLES)])


def test_too_many_c_steps_refused_before_tracing(monkeypatch, capsys):
    """--c-steps above MAX_C_STEPS is a usage error, refused before the
    curve is traced (the whole grid is traced before any output, and 1e8
    steps would take tens of GB).  The tracing is stubbed out, so only the
    refusal runs here; MAX_C_STEPS itself gets past the check."""
    def called(*args, **kwargs):
        raise AssertionError("traced before the --c-steps check")
    monkeypatch.setattr(qgraph.circle, "trace_curve", called)
    command = ["circle-curve", "--parity", "even", "--n", "4"]
    for steps in (MAX_C_STEPS + 1, 10 ** 8):
        err = usage_error(command + ["--c-steps", str(steps)], capsys)
        assert err.splitlines()[-1] == "qgraph circle-curve: error: --c-steps must be at most %d" % (
            MAX_C_STEPS)
    with pytest.raises(AssertionError, match="before the --c-steps check"):
        main(command + ["--c-steps", str(MAX_C_STEPS)])


def test_huge_disc_is_a_computation_error(capsys):
    """A disc too large to sample fails as a computation, exit code 2 and
    one error line, in process and from python -m qgraph alike: its outer
    boundary (some 1e13 samples, hundreds of TiB) is refused unsampled,
    and the line names that cause for the last rectangle tried."""
    argv = ["count", "--circle", "0.3", "--radius", "1e12"]
    tracemalloc.start()
    try:
        rc, out, err = run_main(argv, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (rc, out) == (2, "")
    assert err.startswith("error: could not find a zero-free boundary near (-1000000000000.5, ")
    assert re.fullmatch(r"error: could not find a zero-free boundary near \(-1000000000000\.5, "
                        r"[^)]*\): refinement exploded on \(-1000000000000\.500\d*, [^)]*\)\n",
                        err), err
    assert err.count("\n") == 1
    assert peak < 16 << 20
    done = subprocess.run([sys.executable, "-m", "qgraph", *argv], capture_output=True,
                          text=True, env=package_env())
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)


def test_huge_lead_count_is_refused_at_once(tmp_path, capsys):
    """A file of about a hundred bytes that asks for 5,000,000 leads is a
    usage error, exit code 1 and one error line, refused before a lead is
    stored (expanding and scanning them took 9 s and 400 MiB)."""
    path = write_graph(tmp_path, {"vertices": ["a", "b"],
                                  "edges": [{"u": "a", "v": "b", "length": 1.0}],
                                  "leads": [{"at": "a", "count": 5000000}]})
    assert os.path.getsize(path) < 128
    argv = ["classify", "--graph", path]
    tracemalloc.start()
    try:
        start = time.perf_counter()
        err = usage_error(argv, capsys)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 0.25 and peak < 1 << 20
    check_usage_error_everywhere(argv, "%s: lead record 0 takes the graph past 10000 leads"
                                 % path, capsys)


def test_unreadable_graph_is_a_usage_error(tmp_path, monkeypatch, capsys):
    path = write_graph(tmp_path, TWO_ARC)

    def refuse(*args, **kwargs):
        raise PermissionError(13, "Permission denied", path)

    # a file mode cannot make a file unreadable to root, so open fails here
    monkeypatch.setattr(qgraph.graph, "open", refuse, raising=False)
    err = usage_error(["validate", "--graph", path], capsys)
    assert err.splitlines()[-1] == (
        "qgraph validate: error: cannot read %s: Permission denied" % path)


def check_usage_error_everywhere(argv, message, capsys):
    """One error line after the usage and exit code 1, in process and from
    python -m qgraph alike."""
    err = usage_error(argv, capsys)
    assert err.splitlines()[-1] == "qgraph %s: error: %s" % (argv[0], message)
    done = subprocess.run([sys.executable, "-m", "qgraph", *argv], capture_output=True,
                          text=True, env=package_env())
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == err


def console_script():
    """Command line and environment that run the ``qgraph`` console script.

    An installed script on PATH is used as it is.  Without an install, the
    ``qgraph`` target in ``[project.scripts]`` of pyproject.toml is run the
    way the generated script runs it, with PYTHONPATH led by the directory
    holding the ``qgraph`` package this suite imported.
    """
    exe = shutil.which("qgraph")
    if exe:
        return [exe], None
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["qgraph"]
    module, _, attr = target.partition(":")
    code = "import sys; from %s import %s; sys.exit(%s())" % (
        module, attr, attr)
    return [sys.executable, "-c", code], package_env()


def package_env():
    """Environment whose PYTHONPATH leads with the directory holding the
    ``qgraph`` package this suite imported."""
    root = str(Path(qgraph.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [root, env.get("PYTHONPATH")]))
    return env


def test_console_script_roundtrip(tmp_path):
    cmd, env = console_script()
    done = subprocess.run(cmd + ["validate", "--circle", "0.25"],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0
    assert done.stdout == "ok\n"
    bad = subprocess.run(cmd + ["count", "--circle", "0"],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 1


HEAVY_MODULES = ("scipy", "numpy.random", "concurrent.futures")

# Imports qgraph and runs one command in a fresh interpreter, then reports on
# stderr which modules were loaded after numpy, after qgraph and after the
# command.  With "no-scipy" first, any import of scipy fails.
START_UP = """
import json, sys
if sys.argv[1] == "no-scipy":
    sys.modules["scipy"] = None
import numpy
loaded = {"numpy": sorted(sys.modules)}
import qgraph
loaded["import"] = sorted(sys.modules)
import qgraph.cli
qgraph.cli.main(sys.argv[2:])
loaded["main"] = sorted(sys.modules)
print(json.dumps(loaded), file=sys.stderr)
"""


def test_start_up_loads_only_numpy_and_the_standard_library(capsys):
    argv = ["circle-curve", "--parity", "even", "--n", "4"]

    def run(mode):
        done = subprocess.run([sys.executable, "-c", START_UP, mode] + argv,
                              capture_output=True, text=True, env=package_env())
        assert done.returncode == 0, done.stderr
        return done.stdout, json.loads(done.stderr)

    out, loaded = run("plain")
    # a module that numpy loads by itself is not qgraph's doing
    heavy = [name for name in HEAVY_MODULES if name not in loaded["numpy"]]
    for step in ("import", "main"):
        assert [name for name in heavy if name in loaded[step]] == [], step
    out_without_scipy, _ = run("no-scipy")
    assert out_without_scipy == out
    rc, in_process, _ = run_main(argv, capsys)
    assert rc == 0 and in_process == out


# Prefix of the child programs below: at exit, the names in sys.modules go to
# stderr as the last line.
REPORT_MODULES = ("import atexit, json, sys\n"
                  "atexit.register(lambda: print(json.dumps(sorted(sys.modules)), "
                  "file=sys.stderr))\n")


def loaded_modules(argv, env):
    """Run ``python -m qgraph ARGV`` in a fresh interpreter, or only ``import
    qgraph`` when argv is None; (exit code, modules loaded at exit)."""
    if argv is None:
        cmd = [sys.executable, "-c", REPORT_MODULES + "import qgraph"]
    else:
        cmd = [sys.executable, "-c", REPORT_MODULES + "import runpy\n"
               "runpy.run_module('qgraph', run_name='__main__', alter_sys=True)", *argv]
    done = subprocess.run(cmd, capture_output=True, text=True, env=env)
    return done.returncode, json.loads(done.stderr.splitlines()[-1])


SUBMODULES = sorted("qgraph." + path.stem
                    for path in Path(qgraph.__file__).parent.glob("*.py")
                    if path.stem != "__init__")
# numpy.ma is not needed either, and its import takes about 16 ms
NOT_FOR_DET = ["qgraph.dtn", "qgraph.circle", "numpy.ma"]
# det expands and prints in integer arithmetic
NOT_FOR_DUMP = NOT_FOR_DET + ["numpy"]


@pytest.mark.parametrize("argv, banned", [
    (None, ["numpy"] + SUBMODULES),
    (["validate", "--graph", "GRAPH"], ["numpy"]),
    (["classify", "--circle", "1"], ["numpy"]),
    (["det", "--graph", "GRAPH"], NOT_FOR_DUMP),
    (["det", "--graph", "GRAPH", "--stats"], NOT_FOR_DUMP),
    (ROOTS_BOX, NOT_FOR_DET),
    (["count", "--circle", "0", "--radius", "5"], NOT_FOR_DET),
    (["circle-curve", "--parity", "even", "--n", "4", "--c-steps", "40"],
     ["qgraph.constraint", "qgraph.exppoly", "qgraph.rootfind", "qgraph.dtn"]),
])
def test_each_command_loads_only_what_it_runs(argv, banned, tmp_path):
    """import qgraph loads no submodule; validate and classify look only at
    the graph, and det, with or without --stats, only expands and prints
    the determinant, so all three start without numpy; roots and count
    leave the DtN and circle modules and numpy.ma alone; circle-curve
    traces its closed-form components without the determinant, root
    finding or DtN modules."""
    graph = write_graph(tmp_path, TWO_ARC)
    if argv is not None:
        argv = [graph if a == "GRAPH" else a for a in argv]
    rc, names = loaded_modules(argv, package_env())
    assert rc == 0
    assert "qgraph" in names
    assert [m for m in names
            if any(m == b or m.startswith(b + ".") for b in banned)] == []


# Run in a fresh interpreter with argv [graph file, "lazy" or "eager"]: the
# expansion and dump, then each evaluation, every float in hex; "eager"
# imports numpy before anything else.
FIRST_USE = """
import json, sys
if sys.argv[2] == "eager":
    import numpy
from qgraph.constraint import assemble
from qgraph.graph import load_graph
mat = assemble(load_graph(sys.argv[1]))
poly = mat.determinant()
report = {"dump": poly.dump(), "numpy_after_dump": "numpy" in sys.modules}
ks = [0.7 + 0.9j, -2.3 + 0.4j, 3.1 - 1.7j]
hexes = lambda zs: [[z.real.hex(), z.imag.hex()] for z in map(complex, zs)]
report["eval"] = hexes(poly.eval(k) for k in ks)
report["eval_array"] = hexes(poly.eval(ks))
report["eval_pair"] = [hexes(poly.eval_pair(k)) for k in ks]
report["strip_bound"] = poly.strip_bound.hex()
report["size_table"] = [[float(x).hex() for x in col] for col in poly.size_table]
report["eval_matrix"] = [hexes(mat.eval_matrix(k).ravel()) for k in ks]
print(json.dumps(report))
"""


def test_first_evaluation_loads_numpy_and_keeps_the_bits():
    """Expanding and dumping a determinant loads no numpy; the first
    evaluation loads it, and every result has the bits it has in a process
    that imported numpy first."""
    def run(mode):
        done = subprocess.run([sys.executable, "-c", FIRST_USE, str(CLI_GRAPH), mode],
                              capture_output=True, text=True, env=package_env())
        assert done.returncode == 0, done.stderr
        return json.loads(done.stdout)

    lazy, eager = run("lazy"), run("eager")
    assert not lazy.pop("numpy_after_dump")
    assert eager.pop("numpy_after_dump")
    assert lazy == eager


# Run in a fresh interpreter, so that every export is resolved by the package
# itself rather than found among modules an earlier test loaded.
EXPORTS = """
import json, sys
import qgraph
report = {"dir": dir(qgraph), "all": qgraph.__all__, "homes": {}}
star = {}
exec("from qgraph import *", star)
report["star"] = sorted(k for k in star if not k.startswith("__"))
for name in qgraph.__all__:
    obj = getattr(qgraph, name)
    home = sys.modules[obj.__module__]
    report["homes"][name] = [obj.__module__, getattr(home, obj.__name__) is obj]
report["circle"] = qgraph.circle.build_graph is qgraph.build_circle_graph
try:
    qgraph.no_such_name
except AttributeError as exc:
    report["missing"] = str(exc)
print(json.dumps(report))
"""


def test_package_exports_resolve_to_their_defining_modules():
    done = subprocess.run([sys.executable, "-c", EXPORTS], capture_output=True,
                          text=True, env=package_env())
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert set(report["all"]) <= set(report["dir"])
    assert set(report["all"]) <= set(report["star"])
    for name, (module, same) in report["homes"].items():
        assert module in SUBMODULES and same, name
    assert report["circle"]
    assert report["missing"] == "module 'qgraph' has no attribute 'no_such_name'"


def test_module_invocation_exit_codes(tmp_path):
    payload = {"vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "length": 1.0}] * 17,
               "leads": []}
    path = write_graph(tmp_path, payload)
    done = subprocess.run([sys.executable, "-m", "qgraph.cli", "det",
                           "--graph", path], capture_output=True, text=True)
    assert done.returncode == 2
    assert "exceeds capacity" in done.stderr
