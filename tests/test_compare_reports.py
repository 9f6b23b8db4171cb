"""``compare_reports`` and ``fractrace compare``.

Two measurements differ significantly only when their intervals are
disjoint; bare numbers and labels must match exactly; ``meta`` is never
compared.  ``config_identical`` compares the config echoes of one report
format, in which a ``values`` list is its digest.
"""

import json
import math

import pytest

from fractrace import cli
from fractrace.errors import KindMismatch
from fractrace.reporting import compare_reports


def report(results, kind="GAP_TRIPLE", name="a", config=None, meta=None):
    return {"kind": kind, "name": name, "config": config or {"depth": 4},
            "results": results, "meta": meta or {"wall_time_s": 0.5}}


def m(value, lo, hi):
    return {"value": value, "interval": [lo, hi]}


def rows(a, b):
    return compare_reports(report(a), report(b))["entries"]


def significant(a, b) -> bool:
    (row,) = rows({"x": a}, {"x": b})
    return row["significant"]


# --- measurements -------------------------------------------------------------

@pytest.mark.parametrize("a, b, want", [
    (m(1.0, 0.9, 1.1), m(2.0, 1.9, 2.1), True),      # disjoint
    (m(1.0, 0.9, 1.1), m(1.2, 1.1, 1.3), False),     # touching at 1.1
    (m(1.0, 0.9, 1.1), m(1.05, 1.0, 1.2), False),    # overlapping
    (m(1.0, 1.0, 1.0), m(1.0, 1.0, 1.0), False),     # the same point
    (m(1.0, 1.0, 1.0), m(1.0 + 2**-52, 1.0 + 2**-52, 1.0 + 2**-52), True),
])
def test_measurements_differ_only_when_intervals_are_disjoint(a, b, want):
    assert significant(a, b) is want
    assert significant(b, a) is want


@pytest.mark.parametrize("a, b, want", [
    (m(2.0, 1.5, "inf"), m(2.1, 1.6, "inf"), False),
    (m(2.0, "-inf", 2.5), m(2.1, 1.6, "inf"), False),
    (m(2.0, "-inf", "inf"), m(-7.0, -8.0, -6.0), False),
    (m(2.0, 1.5, "inf"), m(1.0, "-inf", 1.4), True),
    (m(2.0, 1.5, "inf"), m(1.0, "-inf", 1.5), False),  # touching at 1.5
])
def test_infinite_interval_ends_are_infinities(a, b, want):
    assert significant(a, b) is want
    assert significant(b, a) is want


def test_a_measurement_row_carries_the_difference():
    (row,) = rows({"x": m(2.0, 1.5, "inf")}, {"x": m(2.5, 1.6, "inf")})
    assert row == {"path": "$.results.x", "a": 2.0, "b": 2.5, "diff": 0.5,
                   "significant": False}


@pytest.mark.parametrize("a, b, want", [
    ("nan", "nan", False),
    ("inf", "inf", False),
    ("-inf", "inf", True),
    ("nan", 2.0, True),
    (2.0, "inf", True),
])
def test_non_finite_values_are_compared_for_equality(a, b, want):
    # the interval cannot rescue a non-finite value, however wide it is
    assert significant(m(a, "-inf", "inf"), m(b, "-inf", "inf")) is want


def test_a_nan_interval_end_falls_back_to_equal_values():
    assert not significant(m(2.0, "nan", 3.0), m(2.0, 1.0, 3.0))
    assert significant(m(2.0, "nan", 3.0), m(2.5, 1.0, 3.0))


# --- bare values ------------------------------------------------------------

def test_bare_numbers_and_labels_must_match_exactly():
    a = {"count": 14, "ratio": 0.5, "route": "fit", "exact": True,
         "note": None}
    assert rows(a, dict(a)) == []
    got = {r["path"]: r for r in rows(a, {"count": 15, "ratio": 0.5 + 2**-53,
                                          "route": "jump", "exact": False,
                                          "note": "NOT_TRACEABLE_AT_1"})}
    assert set(got) == {"$.results." + k for k in a}
    assert all(r["significant"] for r in got.values())
    assert got["$.results.count"]["diff"] == 1.0
    assert got["$.results.route"] == {"path": "$.results.route", "a": "fit",
                                      "b": "jump", "significant": True}


def test_equal_bare_numbers_leave_no_row():
    assert rows({"n": 3, "x": 1.5}, {"n": 3.0, "x": 1.5}) == []


# --- structure --------------------------------------------------------------

def test_missing_keys_are_significant():
    got = rows({"x": 1, "y": m(1.0, 0.0, 2.0)}, {"x": 1, "z": "label"})
    assert got == [
        {"path": "$.results.y", "a": m(1.0, 0.0, 2.0), "b": "<missing>",
         "significant": True},
        {"path": "$.results.z", "a": "<missing>", "b": "label",
         "significant": True},
    ]


def test_lists_of_different_lengths_compare_their_common_prefix():
    got = rows([m(1.0, 0.0, 2.0), 3], [m(1.5, 1.0, 2.0), 3, 4])
    assert got == [
        {"path": "$.results", "a": "<2 items>", "b": "<3 items>",
         "significant": True},
        {"path": "$.results[0]", "a": 1.0, "b": 1.5, "diff": 0.5,
         "significant": False},
    ]


def test_a_measurement_against_a_bare_value_is_significant():
    assert rows({"x": m(1.0, 0.0, 2.0)}, {"x": 1.0}) == [
        {"path": "$.results.x", "a": m(1.0, 0.0, 2.0), "b": 1.0,
         "significant": True}]


def test_meta_is_ignored_and_the_config_compared():
    a = report({"x": 1}, meta={"wall_time_s": 0.1, "package": "fractrace 1"})
    b = report({"x": 1}, name="b",
               meta={"wall_time_s": 9.0, "entries_used": 3})
    diff = compare_reports(a, b)
    assert diff["entries"] == [] and diff["n_compared"] == 0
    assert diff["config_identical"] is True
    assert (diff["a"], diff["b"], diff["kind"]) == ("a", "b", "GAP_TRIPLE")
    diff = compare_reports(a, report({"x": 1}, config={"depth": 5}))
    assert diff["config_identical"] is False
    assert diff["n_significant"] == 0


def test_counts_summarize_the_rows():
    diff = compare_reports(
        report({"x": m(1.0, 0.0, 2.0), "y": m(1.0, 0.9, 1.1), "n": 2}),
        report({"x": m(1.5, 1.0, 2.0), "y": m(5.0, 4.0, 6.0), "n": 3}))
    assert diff["n_compared"] == 3
    assert diff["n_significant"] == 2


def test_different_kinds_are_refused():
    with pytest.raises(KindMismatch):
        compare_reports(report({}), report({}, kind="PAIR_TRIPLE"))


# --- the CLI ----------------------------------------------------------------

def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_compare_writes_the_diff_to_stdout_without_out(tmp_path, capsys):
    a = write(tmp_path, "a.json", report({"x": m(2.0, 1.5, "inf")}))
    b = write(tmp_path, "b.json", report({"x": m(2.1, 1.6, "inf")}, name="b"))
    assert cli.main(["compare", a, b]) == 0
    out = capsys.readouterr().out
    diff = json.loads(out)
    assert diff["format"] == "fractrace-diff/1"
    assert diff["n_compared"] == 1 and diff["n_significant"] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


def test_compare_with_out_prints_a_summary(tmp_path, capsys):
    a = write(tmp_path, "a.json", report({"x": m(1.0, 0.9, 1.1), "n": 1}))
    b = write(tmp_path, "b.json", report({"x": m(2.0, 1.9, 2.1), "n": 1}))
    out = tmp_path / "diff.json"
    assert cli.main(["compare", a, b, "--out", str(out)]) == 0
    assert capsys.readouterr().out == \
        f"1 significant of 1 compared -> {out}\n"
    assert json.loads(out.read_text())["n_significant"] == 1


def test_compare_refuses_different_kinds_with_exit_2(tmp_path, capsys):
    a = write(tmp_path, "a.json", report({}))
    b = write(tmp_path, "b.json", report({}, kind="PAIR_TRIPLE"))
    assert cli.main(["compare", a, b]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("KIND_MISMATCH: cannot compare GAP_TRIPLE "
                                   "with PAIR_TRIPLE")


@pytest.mark.parametrize("content", [None, "{not json"])
def test_compare_refuses_an_unreadable_report_with_exit_2(tmp_path, capsys,
                                                           content):
    good = write(tmp_path, "good.json", report({}))
    bad = tmp_path / "bad.json"
    if content is not None:
        bad.write_text(content)
    assert cli.main(["compare", good, str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"$: cannot read report {bad}")


@pytest.mark.parametrize("content", ["[]", "3", '"report"', "null"])
def test_compare_refuses_a_report_that_is_not_an_object(tmp_path, capsys,
                                                         content):
    good = write(tmp_path, "good.json", report({}))
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    assert cli.main(["compare", str(bad), good]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"$: cannot read report {bad}: ")
    assert "Traceback" not in captured.err


def test_compare_refuses_an_out_path_it_cannot_write(tmp_path, capsys):
    a = write(tmp_path, "a.json", report({"x": m(1.0, 0.9, 1.1)}))
    out = tmp_path / "missing" / "diff.json"
    assert cli.main(["compare", a, a, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"$: cannot write {out}: ")
    assert "Traceback" not in captured.err
    assert not out.parent.exists()


# --- configs: values lists by digest ----------------------------------------

VALUES = [1.0 / k for k in range(1, 201)]


def values_report(tmp_path, values, out) -> dict:
    """The report of a SEQUENCE_ANALYSIS run on ``values``."""
    config = {"kind": "SEQUENCE_ANALYSIS", "name": "v", "series": False,
              "parameters": {"values": values}}
    path = write(tmp_path, f"{out}.json", config)
    assert cli.main(["run", "--config", path, "--out-dir",
                     str(tmp_path / out), "--quiet"]) == 0
    return json.loads((tmp_path / out / "v.report.json").read_text())


def test_config_identical_compares_values_digests(tmp_path):
    first, second = (values_report(tmp_path, VALUES, out) for out in "ab")
    assert first["config"]["parameters"]["values"]["n"] == len(VALUES)
    assert compare_reports(first, second)["config_identical"] is True
    moved = list(VALUES)
    moved[100] = math.nextafter(moved[100], 0.0)
    diff = compare_reports(first, values_report(tmp_path, moved, "c"))
    assert diff["config_identical"] is False


def test_reports_of_two_formats_never_have_identical_configs(tmp_path):
    new = values_report(tmp_path, VALUES, "a")
    # a /1 report echoed the list itself
    old = dict(new, format="fractrace-report/1",
               config=dict(new["config"], parameters={"values": VALUES}))
    assert compare_reports(old, new)["config_identical"] is False
    # and the format decides where the two echoes agree
    old = dict(new, format="fractrace-report/1")
    assert compare_reports(old, new)["config_identical"] is False
    assert compare_reports(new, dict(new))["config_identical"] is True
