"""Pins of the config surface: rejected configs, exit code 3 and --budget.

``golden/rejected.json`` is a corpus of configs that validation rejects,
each with the problems ``parse_config`` reports and the CLI's exit code.
Replayed under ``python -m trace --count``, it reaches every place the
validator reports a problem.  A case may carry a ``budget`` [entries,
words] for checks against the entry budget.  The problems are compared as
multisets: their order is not part of the pin.
"""

import json
from pathlib import Path

import pytest

from fractrace import cli, reporting
from fractrace.errors import ValidationError
from fractrace.reporting import Budget, parse_config

CORPUS = json.loads((Path(__file__).parent / "golden" / "rejected.json")
                    .read_text())


def _line_ifs(r1, r2, t2):
    return {"generation": "stationary",
            "maps": [{"ratio": r1, "translation": 0.0},
                     {"ratio": r2, "translation": t2}]}


def _run(tmp_path, doc, *extra):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    out = tmp_path / "out"
    return cli.main(["run", "--config", str(config), "--out-dir", str(out),
                     "--quiet", *extra]), out


@pytest.mark.parametrize("case", CORPUS, ids=[c["id"] for c in CORPUS])
def test_rejected_config_reports_its_problems(tmp_path, capsys, case):
    budget = Budget(*case["budget"]) if "budget" in case else Budget()
    with pytest.raises(ValidationError) as info:
        parse_config(case["config"], budget)
    assert sorted(info.value.problems) == sorted(case["problems"])
    extra = ["--budget", "%d,%d" % tuple(case["budget"])] \
        if "budget" in case else []
    code, out = _run(tmp_path, case["config"], *extra)
    assert code == case["exit"]
    assert sorted(capsys.readouterr().err.splitlines()) == \
        sorted(case["problems"])
    assert not out.exists()


def test_the_corpus_ids_are_unique_and_every_case_exits_2():
    assert len({c["id"] for c in CORPUS}) == len(CORPUS)
    assert {c["exit"] for c in CORPUS} == {2}


def test_numeric_precondition_failures_exit_3(tmp_path, capsys):
    """A failing operation drops its experiment; the rest of the batch runs."""
    doc = {"experiments": [
        {"kind": "GAP_TRIPLE", "name": "empty",
         "parameters": {"ifs": _line_ifs(0.25, 0.35, 0.65), "depth": 11,
                        "functional": {"type": "affine", "slope": 0.5,
                                       "intercept": 2.0}}},
        {"kind": "PAIR_TRIPLE", "name": "unfittable",
         "parameters": {"ifs": _line_ifs(1 / 2, 1 / 3, 2 / 3), "cap": 20000,
                        "zeta": {"s": [0.8]}}},
        {"kind": "LINK_CHECK", "name": "link",
         "parameters": {"ifs": _line_ifs(0.3, 0.4, 0.6), "depth": 8}},
        # the depth-3 gaps round to 0
        {"kind": "IFS_CLASSICAL", "name": "content",
         "parameters": {"ifs": _line_ifs(1e-200, 1e-200, 0.5), "depth": 3,
                        "minkowski": True}},
        # gaps near 0.5 round to length 0 while their twins near 0 do not
        {"kind": "GAP_TRIPLE", "name": "underflow",
         "parameters": {"ifs": _line_ifs(1e-5, 1e-5, 0.5), "depth": 8}}]}
    code, out = _run(tmp_path, doc)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == \
        [["empty", "EMPTY_SUBSEQUENCE"], ["unfittable", "TAIL_UNFITTABLE"],
         ["content", "EPSILON_BELOW_RESOLUTION"], ["underflow", "UNDERFLOW"]]
    assert sorted(p.name for p in out.glob("*.report.json")) == \
        ["link.report.json"]


def test_the_values_and_one_map_rules_leave_typed_run_failures(tmp_path,
                                                             capsys):
    """A constant values list passes validation and fails as not vanishing;
    a one-map system with its interval and exponent given runs, and its
    link check fails typed."""
    one_map = {"generation": "stationary",
               "maps": [{"ratio": 0.5, "translation": 0.0}]}
    doc = {"experiments": [
        {"kind": "SEQUENCE_ANALYSIS", "name": "constant",
         "parameters": {"values": [0.5] * 20}},
        {"kind": "IFS_CLASSICAL", "name": "classical",
         "parameters": {"ifs": one_map, "depth": 8, "interval": [0, 1],
                        "minkowski": {"exponent": 0.5}}},
        {"kind": "LINK_CHECK", "name": "link",
         "parameters": {"ifs": one_map, "depth": 8, "interval": [0, 1],
                        "exponent": 0.5}}]}
    code, out = _run(tmp_path, doc)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == \
        [["constant", "NOT_VANISHING"], ["link", "NOT_L1_WEAK"]]
    assert sorted(p.name for p in out.glob("*.report.json")) == \
        ["classical.report.json"]


def test_a_zeta_past_the_float_range_exits_3_as_overflow(tmp_path, capsys):
    doc = {"kind": "PAIR_TRIPLE", "name": "far",
           "parameters": {"ifs": _line_ifs(0.3, 0.4, 0.6), "cap": 2000,
                          "seed_pair": [[0.0], [1e150]],
                          "zeta": {"s": [3.0]}}}
    code, out = _run(tmp_path, doc)
    assert code == 3
    err = capsys.readouterr().err.splitlines()
    assert [line.split(": ")[:2] for line in err] == [["far", "OVERFLOW"]]
    assert not list(out.glob("*.report.json"))


@pytest.mark.parametrize("kind", ["LINK_CHECK", "GAP_TRIPLE"])
def test_a_model_over_the_entry_budget_exits_3(tmp_path, capsys, kind):
    doc = {"kind": kind, "name": "big",
           "parameters": {"ifs": _line_ifs(0.3, 0.4, 0.6), "depth": 11}}
    code, out = _run(tmp_path, doc, "--budget", "1000")
    assert code == 3
    assert capsys.readouterr().err == \
        "big: BUDGET_EXCEEDED: model has 2306 entries, budget 1000\n"
    assert not list(out.glob("*.report.json"))


@pytest.mark.parametrize("text, message", [
    ("5", "budget values must be >= 1000"),
    ("1,2,3", "expected ENTRIES or ENTRIES,WORDS"),
    ("1000,x", "budget values must be integers"),
    ("2000,", "expected ENTRIES or ENTRIES,WORDS"),
])
def test_a_malformed_budget_exits_2(tmp_path, capsys, monkeypatch, text,
                                    message):
    monkeypatch.setattr(reporting, "run", lambda *a, **k: pytest.fail("ran"))
    code, _ = _run(tmp_path, CORPUS[0]["config"], "--budget", text)
    assert code == 2
    assert capsys.readouterr().err == f"--budget: {message}\n"


def test_a_budget_pair_reaches_the_run(tmp_path, monkeypatch):
    seen = []
    monkeypatch.setattr(reporting, "run",
                        lambda *a, budget, **k: seen.append(budget) or 0)
    code, _ = _run(tmp_path, {}, "--budget", "5000,20000")
    assert code == 0
    assert seen == [Budget(5000, 20000)]
