"""Config validation, report determinism and exit codes through the CLI."""

import json
import os
import re
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import fractrace
from fractrace import cli, reporting
from fractrace.fractal_geometry import Similarity
from fractrace.reporting import (IFS_CLASSICAL, PAIR_TRIPLE, Budget,
                                 parse_config, run_experiment)
from systems import make_cantor, make_planar, make_segment, make_uneven


def line_ifs(r1, r2):
    return {"generation": "stationary",
            "maps": [{"ratio": r1, "translation": 0.0},
                     {"ratio": r2, "translation": 1.0 - r2}]}


PLANAR_IFS = {"generation": "stationary",
              "maps": [{"ratio": 1 / 3, "translation": [0.0, 0.0]},
                       {"ratio": 1 / 3, "translation": [2 / 3, 0.0]},
                       {"ratio": 1 / 3, "translation": [0.0, 2 / 3]}]}

BATCH = {"experiments": [
    {"kind": "IFS_CLASSICAL", "name": "classical",
     "parameters": {"ifs": line_ifs(0.3, 0.4), "depth": 9,
                    "box_dimension": {"cloud_depth": 8}, "minkowski": True,
                    "cylinder": {"exponent": 0.6, "depth": 6},
                    "contraction": {"depth": 8}}},
    {"kind": "GAP_TRIPLE", "name": "gap-model",
     "parameters": {"ifs": line_ifs(0.25, 0.35), "depth": 14,
                    "zeta": {"s": [1.0]},
                    "functional": {"type": "affine", "slope": 0.5,
                                   "intercept": 2.0}}},
    {"kind": "PAIR_TRIPLE", "name": "pair-model",
     "parameters": {"ifs": line_ifs(0.3, 0.35), "cap": 20000,
                    "zeta": {"s": [1.0]},
                    "functional": {"type": "box_indicator", "lo": 0.0,
                                   "hi": 0.5}}},
    {"kind": "LINK_CHECK", "name": "link",
     "parameters": {"ifs": line_ifs(0.3, 0.4), "depth": 11}},
]}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(tmp_path, doc, out="out"):
    out_dir = tmp_path / out
    out_dir.mkdir()
    code = cli.main(["run", "--config", write_config(tmp_path, doc),
                     "--out-dir", str(out_dir), "--quiet"])
    return code, out_dir


def test_similarity_takes_any_1d_translation():
    w = Similarity(1 / 3, np.array([2 / 3, 0.0]))
    assert w.dim == 2
    assert w.translation.tolist() == [2 / 3, 0.0]
    assert Similarity(0.5, (1, 2)).translation.tolist() == [1.0, 2.0]


def test_planar_config_validates():
    doc = {"kind": "PAIR_TRIPLE",
           "parameters": {"ifs": PLANAR_IFS, "cap": 2000}}
    (exp,) = parse_config(doc)
    assert exp.kind == PAIR_TRIPLE
    ifs = exp.params["ifs"]
    assert ifs.dim == 2
    assert [w.translation.tolist() for w in ifs.level(1)] == \
        [[0.0, 0.0], [2 / 3, 0.0], [0.0, 2 / 3]]


def test_planar_pair_model_runs_from_the_cli(tmp_path):
    doc = {"kind": "PAIR_TRIPLE", "name": "planar",
           "parameters": {"ifs": PLANAR_IFS, "cap": 4000,
                          "zeta": {"s": [1.5]}}}
    code, out_dir = run_cli(tmp_path, doc)
    assert code == 0
    report = json.loads((out_dir / "planar.report.json").read_text())
    assert report["kind"] == PAIR_TRIPLE
    assert report["results"][0]["op"] == "pair_triple"
    with open(out_dir / report["series"]["entries"]) as fh:
        header = fh.readline().strip()
    assert header == "k,mu_k,tag_x_1,tag_x_2,tag_y_1,tag_y_2"


def test_constant_functional_on_a_planar_model(tmp_path):
    doc = {"kind": "PAIR_TRIPLE", "name": "planar",
           "parameters": {"ifs": PLANAR_IFS, "cap": 4000,
                          "functional": {"type": "constant", "value": 2.5}}}
    code, out_dir = run_cli(tmp_path, doc)
    assert code == 0
    report = json.loads((out_dir / "planar.report.json").read_text())
    (entry,) = [r for r in report["results"]
                if r["op"] == "hausdorff_functional"]
    assert entry["parameters"]["functional"] == {"type": "constant",
                                                 "value": 2.5}
    assert entry["values"]["value"]["value"] == pytest.approx(2.5, rel=1e-12)


def test_constant_functional_on_a_line_is_the_flat_affine_one(tmp_path):
    """On the line a constant gives the results the affine functional with
    slope 0 gives, the construction it had before it took planar points."""
    def results(functional, where):
        where.mkdir()
        doc = {"kind": "GAP_TRIPLE", "name": "line",
               "parameters": {"ifs": line_ifs(0.3, 0.35), "depth": 12,
                              "functional": functional}}
        code, out_dir = run_cli(where, doc)
        assert code == 0
        report = json.loads((out_dir / "line.report.json").read_text())
        for r in report["results"]:
            r["parameters"].pop("functional", None)
        return report["results"]

    for i, value in enumerate((2.5, -1.25, 0.0)):
        flat = {"type": "affine", "slope": 0.0, "intercept": value}
        assert results({"type": "constant", "value": value},
                       tmp_path / f"constant{i}") == \
            results(flat, tmp_path / f"affine{i}")


def assert_holds_the_root(maps, measurement):
    """The interval contains the root of sum r_j^s = 1, found by mpmath at
    50 digits from the same float ratios, and is at most 2.5e-12 wide."""
    lo, hi = measurement["interval"]
    with mpmath.workdps(50):
        root = mpmath.findroot(
            lambda s: sum(mpmath.mpf(w.ratio) ** s for w in maps) - 1,
            measurement["value"])
        assert lo <= root <= hi
    assert hi - lo <= 2.5e-12


def stationary_ifs(maps):
    return {"generation": "stationary",
            "maps": [{"ratio": w.ratio, "translation": w.translation.tolist()}
                     for w in maps]}


@pytest.mark.parametrize("build", [make_cantor, make_uneven, make_segment,
                                   make_planar])
def test_similarity_dimension_interval_holds_the_root(build, tmp_path):
    maps = build().level(1)
    doc = {"kind": IFS_CLASSICAL,
           "parameters": {"ifs": stationary_ifs(maps), "depth": 2,
                          "gaps": False}}
    (exp,) = parse_config(doc)
    report = run_experiment(exp, Budget(), str(tmp_path))
    (entry,) = [r for r in report["results"]
                if r["op"] == "similarity_dimension"]
    assert_holds_the_root(maps, entry["values"]["dimension"])


@pytest.mark.parametrize("build, kind, parameters, op", [
    (make_cantor, "GAP_TRIPLE", {"depth": 8}, "zeta_residue"),
    (make_uneven, "GAP_TRIPLE", {"depth": 8}, "zeta_residue"),
    (make_cantor, "PAIR_TRIPLE", {"cap": 2000}, "zeta_residue"),
    (make_uneven, "PAIR_TRIPLE", {"cap": 2000}, "zeta_residue"),
    (make_segment, "PAIR_TRIPLE", {"cap": 2000}, "zeta_residue"),
    (make_planar, "PAIR_TRIPLE", {"cap": 2000}, "zeta_residue"),
    (make_uneven, "LINK_CHECK", {"depth": 8}, "minkowski_link_check"),
], ids=lambda x: getattr(x, "__name__", None))
def test_similarity_exponents_hold_the_root(build, kind, parameters, op,
                                            tmp_path):
    """The zeta residue and, with no exponent given, the Minkowski link
    report the similarity dimension with the bisection's bracket."""
    maps = build().level(1)
    doc = {"kind": kind, "series": False,
           "parameters": {"ifs": stationary_ifs(maps), **parameters}}
    (exp,) = parse_config(doc)
    report = run_experiment(exp, Budget(), str(tmp_path))
    (entry,) = [r for r in report["results"] if r["op"] == op]
    assert_holds_the_root(maps, entry["values"]["exponent"])


def test_a_given_link_exponent_stays_a_point(tmp_path):
    doc = {"kind": "LINK_CHECK", "series": False,
           "parameters": {"ifs": stationary_ifs(make_uneven().level(1)),
                          "depth": 8, "exponent": 0.788}}
    (exp,) = parse_config(doc)
    report = run_experiment(exp, Budget(), str(tmp_path))
    (entry,) = [r for r in report["results"]
                if r["op"] == "minkowski_link_check"]
    assert entry["values"]["exponent"] == {"value": 0.788,
                                           "interval": [0.788, 0.788]}


LAZY_SCIPY = """
import sys
import fractrace.cli
assert "scipy.spatial" not in sys.modules, "scipy.spatial imported with the CLI"
from fractrace import cli
config, out_dir = sys.argv[1:]
assert cli.main(["run", "--config", config, "--out-dir", out_dir, "--quiet"]) == 0
print("scipy.spatial" in sys.modules)
"""


def run_script(tmp_path, script, *docs):
    """Run ``script`` in a fresh interpreter with the paths of the configs
    and an output directory as arguments; return its standard output."""
    src = os.path.dirname(os.path.dirname(fractrace.__file__))
    path = [src] + [os.environ.get("PYTHONPATH")] * ("PYTHONPATH" in os.environ)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = tmp_path / "out"
    out.mkdir()
    configs = [write_config(tmp_path, doc, f"config{i}.json")
               for i, doc in enumerate(docs)]
    proc = subprocess.run([sys.executable, "-c", script, *configs, str(out)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_import_leaves_scipy_spatial_out(tmp_path):
    """The CLI does not import scipy.spatial, and a planar pair run, which
    builds no kd-tree, does not load it either."""
    doc = {"kind": "PAIR_TRIPLE", "name": "planar",
           "parameters": {"ifs": PLANAR_IFS, "cap": 2000}}
    assert run_script(tmp_path, LAZY_SCIPY, doc).split() == ["False"]
    assert (tmp_path / "out" / "planar.report.json").exists()


LINE_THEN_PLANE = """
import sys
from fractrace import cli
*configs, out_dir = sys.argv[1:]
for config in configs:
    assert cli.main(["run", "--config", config, "--out-dir", out_dir,
                     "--quiet"]) == 0
    print("scipy.spatial" in sys.modules)
"""


def test_line_clouds_leave_scipy_spatial_out(tmp_path):
    """Box counting and the contraction iteration on a line system do not
    load scipy.spatial; the same run on a planar system, which uses the
    kd-tree, still works."""
    line = {"kind": "IFS_CLASSICAL", "name": "line",
            "parameters": {"ifs": line_ifs(0.3, 0.4), "depth": 6,
                           "gaps": False, "box_dimension": {"cloud_depth": 10},
                           "contraction": {"depth": 12}}}
    plane = {"kind": "IFS_CLASSICAL", "name": "plane",
             "parameters": {"ifs": PLANAR_IFS, "depth": 4,
                            "box_dimension": {"cloud_depth": 6},
                            "contraction": {"depth": 6}}}
    assert run_script(tmp_path, LINE_THEN_PLANE, line, plane).split() == \
        ["False", "True"]
    for name in ("line", "plane"):
        report = json.loads((tmp_path / "out" / f"{name}.report.json")
                            .read_text())
        assert [r["op"] for r in report["results"]][-2:] == \
            ["box_dimension_estimate", "contraction_limit"]


def masked(path):
    # meta holds the wall time and nothing nested
    text = re.sub(r'"meta": \{[^{}]*\}', "", path.read_text())
    assert '"meta"' not in text and '"results"' in text
    return text


def assert_same_files(dir_a, dir_b):
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    for name in names:
        a, b = dir_a / name, dir_b / name
        if name.endswith(".report.json"):
            assert masked(a) == masked(b), name
        else:
            assert a.read_bytes() == b.read_bytes(), name


def test_batch_reports_replay_byte_for_byte(tmp_path):
    runs = [run_cli(tmp_path, BATCH, out) for out in ("a", "b")]
    assert [code for code, _ in runs] == [0, 0]
    (_, dir_a), (_, dir_b) = runs
    names = [p.name for p in dir_a.iterdir()]
    assert sum(n.endswith(".report.json") for n in names) == 4
    assert any(n.endswith(".csv") for n in names)
    assert_same_files(dir_a, dir_b)


# Runs a batch once per CPU set of CPU_SETS, pinning the process with
# sched_setaffinity, into out_dir/<number of CPUs>; prints per run the exit
# code, both streams and whether a child process outlived the run.
ON_CPUS = """
import contextlib, io, json, os, sys
from fractrace import cli, reporting
config, out_dir = sys.argv[1:]
every = sorted(os.sched_getaffinity(0))
PATCH
runs = []
for cpus in CPU_SETS:
    os.sched_setaffinity(0, cpus)
    where = os.path.join(out_dir, str(len(cpus)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", "--config", config, "--out-dir", where])
    try:
        os.waitpid(-1, os.WNOHANG)
        left = True
    except ChildProcessError:
        left = False
    runs.append({"cpus": len(cpus), "code": code, "children_left": left,
                 "stdout": out.getvalue().replace(where, "OUT"),
                 "stderr": err.getvalue().replace(where, "OUT")})
print(json.dumps(runs))
"""

CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
    else 1
needs_two_cpus = pytest.mark.skipif(
    CPUS < 2, reason="one CPU: a batch has no helper process to check")


def on_cpus(tmp_path, doc, cpu_sets, patch=""):
    script = ON_CPUS.replace("CPU_SETS", cpu_sets).replace("PATCH", patch)
    runs = json.loads(run_script(tmp_path, script, doc))
    for r in runs:
        assert not r["children_left"], r
        # the wall time is the one run-dependent part of a line
        r["stdout"] = re.sub(r"\(\d+\.\d\d s\)", "(T s)", r["stdout"])
    return runs


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SIX_KINDS = {"experiments": [
    {"kind": "SEQUENCE_ANALYSIS", "name": "power",
     "parameters": {"mu": {"form": "power", "coefficient": 1.1,
                           "exponent": 1.6}, "cap": 20000}},
    {"kind": "EXEMPLAR", "name": "two-slope",
     "parameters": {"family": "two_slope", "alpha": 1.7, "beta": 1.3,
                    "cap": 20000, "gammas": [0.75, 1.5]}},
    *BATCH["experiments"]]}


def golden_config(where):
    with open(os.path.join(GOLDEN, where, "config.json")) as fh:
        return json.load(fh)


@needs_two_cpus
@pytest.mark.parametrize("doc", [
    golden_config(""), golden_config("series"), golden_config("models"),
    SIX_KINDS], ids=["golden", "golden-series", "golden-models", "six-kinds"])
def test_a_batch_gives_the_same_bytes_on_one_cpu_and_on_all(tmp_path, doc):
    one, every = on_cpus(tmp_path, doc, "(every[:1], every)")
    assert one["code"] == every["code"] == 0
    assert one["stdout"] == every["stdout"]
    assert one["stdout"].count("\n") == len(doc["experiments"])
    assert one["stderr"] == every["stderr"] == ""
    assert_same_files(tmp_path / "out" / "1", tmp_path / "out" / str(CPUS))


# hausdorff_functional meets an empty subsequence on this model, and the
# failure takes the whole experiment with it
FAILING = {"kind": "GAP_TRIPLE", "name": "failing",
           "parameters": {"ifs": line_ifs(0.25, 0.35), "depth": 11,
                          "functional": {"type": "affine", "slope": 0.5,
                                         "intercept": 2.0}}}


@needs_two_cpus
def test_a_failure_on_a_helper_reads_as_on_one_cpu(tmp_path):
    """The failing experiment sits at index 1, the first one a helper
    runs."""
    doc = {"experiments": [BATCH["experiments"][3], FAILING,
                           *BATCH["experiments"][:3]]}
    one, two = on_cpus(tmp_path, doc, "(every[:1], every[:2])")
    assert one["code"] == two["code"] == 3
    assert one["stderr"] == two["stderr"]
    assert one["stderr"].startswith("failing: EMPTY_SUBSEQUENCE: ")
    assert one["stderr"].count("\n") == 1
    assert one["stdout"] == two["stdout"]
    assert_same_files(tmp_path / "out" / "1", tmp_path / "out" / "2")
    assert sorted(p.name for p in (tmp_path / "out" / "2").iterdir()
                  if p.name.endswith(".report.json")) == \
        ["classical.report.json", "gap-model.report.json",
         "link.report.json", "pair-model.report.json"]


DOOMED = """
run_experiment = reporting.run_experiment

def doomed(exp, *args):
    if exp.name == "doomed":
        os._exit(9)
    return run_experiment(exp, *args)

reporting.run_experiment = doomed
"""


@needs_two_cpus
def test_a_dead_helper_fails_the_run_and_names_what_it_lost(tmp_path):
    """On two CPUs the helper runs indices 1, 3 and 5; it dies at 1, so 3
    and 5 are lost with it, while the parent's 0, 2 and 4 are written."""
    link = BATCH["experiments"][3]
    names = ["a", "doomed", "b", "c", "d", "e"]
    doc = {"experiments": [{**link, "name": name, "series": False}
                           for name in names]}
    (two,) = on_cpus(tmp_path, doc, "(every[:2],)", patch=DOOMED)
    assert two["code"] == 1
    lost = two["stderr"].splitlines()
    assert [line.split(": ")[:2] for line in lost] == \
        [["doomed", "LOST"], ["c", "LOST"], ["e", "LOST"]]
    assert all(line.endswith(" exited with status 9") for line in lost)
    assert [line.split(":")[0] for line in two["stdout"].splitlines()] == \
        ["a", "b", "d"]
    assert sorted(p.name for p in (tmp_path / "out" / "2").iterdir()) == \
        ["a.report.json", "b.report.json", "d.report.json"]


def test_compare_a_report_with_itself(tmp_path):
    code, out_dir = run_cli(tmp_path, {"experiments": BATCH["experiments"][2:3]})
    assert code == 0
    report = str(out_dir / "pair-model.report.json")
    diff_path = tmp_path / "diff.json"
    assert cli.main(["compare", report, report, "--out", str(diff_path),
                     "--quiet"]) == 0
    diff = json.loads(diff_path.read_text())
    assert diff["n_compared"] > 0
    assert diff["n_significant"] == 0


def test_malformed_configs_exit_2(tmp_path, capsys):
    bad_kind = write_config(tmp_path, {"kind": "NOPE", "parameters": {}}, "a.json")
    assert cli.main(["run", "--config", bad_kind, "--out-dir", str(tmp_path)]) == 2
    assert "$.kind" in capsys.readouterr().err
    bad_ratio = {"kind": "PAIR_TRIPLE",
                 "parameters": {"ifs": line_ifs(1.5, 0.3), "cap": 100}}
    path = write_config(tmp_path, bad_ratio, "b.json")
    assert cli.main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert "$.parameters.ifs.maps[0].ratio" in capsys.readouterr().err
    broken = tmp_path / "c.json"
    broken.write_text("{not json")
    assert cli.main(["run", "--config", str(broken), "--out-dir", str(tmp_path)]) == 2


def test_a_zero_width_indicator_box_is_a_config_problem(tmp_path, capsys):
    doc = {"kind": "GAP_TRIPLE",
           "parameters": {"ifs": line_ifs(0.3, 0.4), "depth": 5,
                          "functional": {"type": "box_indicator", "lo": 0.5,
                                         "hi": 0.5}}}
    path = write_config(tmp_path, doc)
    assert cli.main(["run", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == ("$.parameters.functional: box must "
                                       "satisfy lo < hi componentwise\n")


BIG = "1" + "0" * 400  # beyond float64 range


@pytest.mark.parametrize("parameters, path", [
    ('{"values": [%s, 3, 2, 1]}' % BIG, "$.parameters.values"),
    ('{"values": [4, 3, 2, 1], "tolerance": %s}' % BIG,
     "$.parameters.tolerance"),
], ids=["values", "tolerance"])
def test_oversized_integers_fail_validation(tmp_path, capsys, parameters,
                                            path):
    config = tmp_path / "big.json"
    config.write_text('{"kind": "SEQUENCE_ANALYSIS", "parameters": %s}'
                      % parameters)
    code = cli.main(["run", "--config", str(config), "--out-dir",
                     str(tmp_path), "--quiet"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(path + ": must be ")
    assert "Traceback" not in err and "Overflow" not in err


@pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
                    reason="this Python has no integer string-digit limit")
def test_integer_literal_past_the_digit_limit_is_invalid_json(tmp_path,
                                                              capsys):
    config = tmp_path / "huge.json"
    config.write_text('{"kind": "SEQUENCE_ANALYSIS", "parameters": '
                      '{"values": [%s, 3, 2, 1]}}' % ("9" * 5000))
    assert cli.main(["run", "--config", str(config), "--out-dir",
                     str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("$: invalid JSON: ")
    assert cli.main(["compare", str(config), str(config), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("$: cannot read report ")


def test_run_creates_a_missing_out_dir(tmp_path):
    out_dir = tmp_path / "new" / "nested"
    config = write_config(tmp_path, {"experiments": BATCH["experiments"][3:]})
    assert cli.main(["run", "--config", config, "--out-dir", str(out_dir),
                     "--quiet"]) == 0
    assert (out_dir / "link.report.json").exists()


def test_run_refuses_an_out_dir_it_cannot_create(tmp_path, capsys,
                                                 monkeypatch):
    ran = []
    monkeypatch.setattr(reporting, "run_experiment",
                        lambda *a: ran.append(a))
    blocker = tmp_path / "file"
    blocker.write_text("")
    out_dir = blocker / "out"
    config = write_config(tmp_path, {"experiments": BATCH["experiments"][3:]})
    assert cli.main(["run", "--config", config, "--out-dir", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"$: cannot write {out_dir}: ")
    assert "Traceback" not in captured.err
    assert ran == [] and not out_dir.exists()
