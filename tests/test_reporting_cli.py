"""Config validation, report determinism and exit codes through the CLI."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import fractrace
from fractrace import cli, reporting
from fractrace.fractal_geometry import Similarity
from fractrace.reporting import PAIR_TRIPLE, parse_config


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


LAZY_SCIPY = """
import json, sys
import numpy as np
import fractrace.cli
assert "scipy.spatial" not in sys.modules, "scipy.spatial imported with the CLI"
from fractrace import cli
from fractrace.reporting import parse_config
from fractrace.spectral_triples import pair_triple, sample_functional
config, out_dir = sys.argv[1:]
assert cli.main(["run", "--config", config, "--out-dir", out_dir, "--quiet"]) == 0
(exp,) = parse_config(json.load(open(config)))
model = pair_triple(exp.params["ifs"], cap=exp.params["cap"])
points = np.unique(np.vstack(model.tag_matrix()), axis=0)
f = lambda p: np.sin(3.0 * p[:, 0]) + p[:, 1]
table = sample_functional(model, (points, f(points)))
direct = sample_functional(model, f)
assert np.array_equal(table.values_x, direct.values_x)
assert np.array_equal(table.values_y, direct.values_y)
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
    """scipy.spatial loads on first kd-tree use, not with the CLI; a planar
    pair run and a tabulated functional, which does use it, still work."""
    doc = {"kind": "PAIR_TRIPLE", "name": "planar",
           "parameters": {"ifs": PLANAR_IFS, "cap": 2000}}
    assert run_script(tmp_path, LAZY_SCIPY, doc).split() == ["True"]
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


def test_batch_reports_replay_byte_for_byte(tmp_path):
    runs = [run_cli(tmp_path, BATCH, out) for out in ("a", "b")]
    assert [code for code, _ in runs] == [0, 0]
    (_, dir_a), (_, dir_b) = runs
    names = sorted(p.name for p in dir_a.iterdir())
    assert names == sorted(p.name for p in dir_b.iterdir())
    reports = [n for n in names if n.endswith(".report.json")]
    assert len(reports) == 4
    assert any(n.endswith(".csv") for n in names)
    for name in names:
        a, b = (d / name for d in (dir_a, dir_b))
        if name in reports:
            # meta holds the wall time and nothing nested
            text_a, text_b = (re.sub(r'"meta": \{[^{}]*\}', "", p.read_text())
                              for p in (a, b))
            assert '"meta"' not in text_a and '"results"' in text_a
            assert text_a == text_b, name
        else:
            assert a.read_bytes() == b.read_bytes(), name


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
