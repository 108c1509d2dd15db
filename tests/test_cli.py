import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import qgraph
from qgraph.circle import det_poly
from qgraph.cli import main
from qgraph.rootfind import RootStats, count_in_disc

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


def test_roots_byte_deterministic(capsys, monkeypatch):
    argv = ["roots", "--circle", "0", "--re-min", "-2.5", "--re-max", "2.5",
            "--im-min", "-1.0", "--im-max", "0.1"]
    _, first, _ = run_main(argv, capsys)
    _, second, _ = run_main(argv, capsys)
    assert first == second
    monkeypatch.setenv("QGRAPH_THREADS", "0")
    _, third, _ = run_main(argv, capsys)
    assert first == third
    assert len(first.strip().split("\n")) > 1


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
                "noise_clusters", "evaluations"}


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


def test_edge_capacity_error_exit_two(tmp_path, capsys):
    # 11 parallel edges: a 24 x 24 matrix, inside the size bound, but more
    # edges than the interpolation grid takes
    payload = {"vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "length": 1.0 + 0.01 * j}
                         for j in range(11)],
               "leads": []}
    path = write_graph(tmp_path, payload)
    rc, out, err = run_main(["det", "--graph", path], capsys)
    assert rc == 2
    assert out == ""
    assert err == "error: more than 10 edges vary in the minor\n"


@pytest.mark.parametrize("value", ["abc", "-2"])
def test_bad_thread_variable_exit_one(value, monkeypatch, capsys):
    monkeypatch.setenv("QGRAPH_THREADS", value)
    err = usage_error(["count", "--circle", "0", "--radius", "5"], capsys)
    assert err == "error: QGRAPH_THREADS must be an integer >= 0, got %r\n" % value
    done = subprocess.run([sys.executable, "-m", "qgraph", "count", "--circle",
                           "0", "--radius", "5"], capture_output=True, text=True,
                          env=dict(os.environ))
    assert done.returncode == 1
    assert done.stdout == ""
    assert done.stderr == err


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
])
def test_bad_numbers_are_usage_errors(argv, message, capsys):
    """A bad number gives one error line after the usage and exit code 1,
    in process and from python -m qgraph, never a traceback or a result."""
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


def test_module_invocation_exit_codes(tmp_path):
    payload = {"vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "length": 1.0}] * 17,
               "leads": []}
    path = write_graph(tmp_path, payload)
    done = subprocess.run([sys.executable, "-m", "qgraph.cli", "det",
                           "--graph", path], capture_output=True, text=True)
    assert done.returncode == 2
    assert "exceeds capacity" in done.stderr
