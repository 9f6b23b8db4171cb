"""Tests of the benchmark itself: ``python3 -m pytest perfbench/tests -q``.

The end-to-end tests shrink every workload size so that each workload
process takes about a second; they check the plumbing, not the timings.
"""

import inspect
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from fractrace import fractal_geometry as fg
from fractrace import spectral_triples as st

ROOT = Path(run.__file__).resolve().parent.parent

# every metric the benchmark promises, by table
NAMED_END_TO_END = ("run_s", "setup_s", "peak_rss_mb", "ops_ok_frac")
NAMED_PER_LAYER = (
    "import.fractrace_s", "import.scipy_s",
    "reporting.config_load_s", "reporting.parse_config_s", "reporting.self_s",
    "reporting.to_csv_s", "reporting.dumps_canonical_s",
    "reporting.series_rows", "reporting.series_bytes",
    "reporting.report_drift",
    "sequences.self_s", "sequences.prefix_s", "sequences.tail_sum_s",
    "sequences.entries_materialized", "sequences.tail_sum.exhausted",
    "sequences.tail_sum.profile", "sequences.tail_sum.power_fit",
    "asymptotics.self_s", "asymptotics.order_of_infinitesimal_s",
    "asymptotics.c_bounds_s", "asymptotics.classify_ideal_s",
    "asymptotics.eccentricity_scan.analytic_s",
    "asymptotics.eccentricity_scan.discrete_s",
    "asymptotics.singular_trace_estimate_s",
    "asymptotics.dixmier_trace_estimate_s", "asymptotics.scan_points",
    "exemplars.self_s", "exemplars.two_slope_sequence_s",
    "exemplars.step_sequence_s",
    "fractal_geometry.self_s", "fractal_geometry.gaps_exact_s",
    "fractal_geometry.gaps_float_s", "fractal_geometry.gaps_count",
    "fractal_geometry.gaps_per_s", "fractal_geometry.minkowski_content_s",
    "fractal_geometry.box_dimension_s", "fractal_geometry.cylinder_measure_s",
    "fractal_geometry.contraction_limit_s",
    "spectral_triples.self_s", "spectral_triples.pair_triple_s",
    "spectral_triples.pair_words", "spectral_triples.pair_words_per_s",
    "spectral_triples.gap_triple_s", "spectral_triples.spectral_dimension_s",
    "spectral_triples.zeta_partial_s", "spectral_triples.zeta_residue_s",
    "spectral_triples.hausdorff_functional_s",
    "spectral_triples.minkowski_link_check_s",
    "reporting.errors", "sequences.errors", "asymptotics.errors",
    "exemplars.errors", "fractal_geometry.errors", "spectral_triples.errors",
    "trace.overhead_frac", "trace.unclaimed_s",
)

TINY = {
    "EXACT_GAP_SYSTEMS": ((7, 11, 7), (5, 13, 6)), "FLOAT_GAP_DEPTH": 9,
    "PAIR_LINE_CAP": 4000, "PAIR_PLANAR_CAP": 2000,
    "REPORT_GAP_DEPTH": 12, "REPORT_CLOUD_DEPTH": 7,
    "REPORT_CYLINDER_DEPTH": 7, "REPORT_CONTRACTION_DEPTH": 9,
    "REPORT_PAIR_CAP": 40000, "REPORT_SEQUENCE_CAP": 5000,
    "SWEEP_POWER_COUNT": 2, "SWEEP_POWER_CAP": 5000,
    "SWEEP_TWO_SLOPE_COUNT": 1, "SWEEP_STEP_COUNT": 1,
    "SWEEP_EXEMPLAR_CAP": 5000, "SWEEP_VALUE_LENGTHS": (2000,),
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    for name, value in TINY.items():
        monkeypatch.setattr(workloads, name, value)
    monkeypatch.setattr(run, "OUT", tmp_path)
    return tmp_path


def test_benchmark_json_lists_every_metric_with_its_unit():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert e2e == run.END_TO_END
    assert layer == run.per_layer_units()
    assert set(NAMED_END_TO_END) <= set(e2e)
    assert set(NAMED_PER_LAYER) <= set(layer)
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


def test_each_generator_says_why_like_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in doc["workloads"]:
        source = inspect.getsource(workloads.GENERATORS[w["name"]])
        assert f"# why: {w['why']}\n" in source


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_metric_is_emitted_on_every_workload(tiny, workload):
    for trace, names in ((False, run.END_TO_END), (True, run.per_layer_units())):
        result = run.benchmark(workload, 3, 0.1, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == names
        assert all(isinstance(m["value"], float)
                   for m in result["metrics"].values())
    layer = {k: m["value"] for k, m in result["metrics"].items()}
    claimed = sum(v for k, v in layer.items()
                  if k.endswith(".self_s") or k.startswith("import.")
                  or k in ("reporting.config_load_s", "reporting.parse_config_s"))
    assert math.isclose(claimed + layer["trace.unclaimed_s"],
                        layer["trace.run_s"], rel_tol=1e-9)
    assert layer["import.fractrace_s"] > 0 and layer["import.scipy_s"] > 0


def test_traced_layers_see_their_work(tiny):
    metrics = run.benchmark("enumerate", 3, 0.1, True)["metrics"]
    value = {k: m["value"] for k, m in metrics.items()}
    assert value["spectral_triples.pair_words"] == (4000 + 2000) // 2
    assert value["fractal_geometry.gaps_exact_s"] > 0
    assert value["fractal_geometry.gaps_float_s"] > 0
    assert value["reporting.self_s"] == 0


def _report_process(tmp_path):
    path, inputs = run.prepare_inputs("report", 5, tmp_path)
    sample = run.run_process("report", path, tmp_path / "p", False, inputs)
    out = tmp_path / "p" / "out"
    exps = {e["name"]: e for e in inputs["experiments"]}
    return sample, out, exps


def _report(out, exps, name):
    report = json.loads((out / f"{name}.report.json").read_text())
    return checks.check_report(report, exps[name], str(out))


def test_corrupted_report_series_trip_the_checks(tiny):
    sample, out, exps = _report_process(tiny)
    assert _report(out, exps, "classical") == []
    assert _report(out, exps, "pair-model") == []

    gaps = out / "classical.gaps.csv"
    lines = gaps.read_text().splitlines()
    k, start, end, length, level = lines[3].split(",")
    lines[3] = ",".join([k, start, end, repr(float(length) * 1.5), level])
    gaps.write_text("\n".join(lines) + "\n")
    assert any("length" in p for p in _report(out, exps, "classical"))

    entries = out / "pair-model.entries.csv"
    lines = entries.read_text().splitlines()
    lines[2], lines[9] = lines[9], lines[2]
    entries.write_text("\n".join(lines) + "\n")
    assert any("increase" in p for p in _report(out, exps, "pair-model"))


def _exact_system():
    maps = checks.exact_maps([[3, 7], [4, 11]])
    return fg.LimitIfs.stationary([fg.interval_map(r, t) for r, t in maps]), maps


@pytest.mark.parametrize("exact", [True, False])
def test_one_altered_gap_length_trips_the_gap_checks(exact):
    ifs, maps = _exact_system()
    depth = 7
    gaps = fg.gaps_from_interval_ifs(ifs, depth, exact=exact)
    expected = checks.expected_gap_count(maps, depth)
    assert expected == 2**depth - 1
    assert checks.check_gap_list(gaps, expected) == []
    gaps.ends = gaps.ends.copy()
    gaps.ends[5] += 0.25 * (gaps.ends[5] - gaps.starts[5])
    assert checks.check_gap_list(gaps, expected) != []


def test_reordered_pair_value_trips_the_pair_check():
    ifs, maps = _exact_system()
    model = st.pair_triple(ifs, cap=2000)
    ratios = [float(r) for r, _ in maps]
    assert checks.check_pair_values(model.values, ratios,
                                     model.seed_distance) == []
    values = model.values.copy()
    values[[3, 40]] = values[[40, 3]]
    assert values[3] != values[40]
    assert checks.check_pair_values(values, ratios, model.seed_distance) != []


def test_closed_form_checks_on_known_answers():
    half = [(Fraction(1, 3), Fraction(0)), (Fraction(1, 3), Fraction(2, 3))]
    assert checks.level_gap_count(half) == 1
    assert checks.expected_gap_count(half, 3) == 7
    d = math.log(2) / math.log(3)
    assert checks.check_similarity_dimension([1 / 3, 1 / 3], d) == []
    assert checks.check_similarity_dimension([1 / 3, 1 / 3], d + 1e-6) != []
    assert checks.check_residue(1.0, 1.0 + 1e-7) == []
    assert checks.check_residue(1.0, 1.0 + 1e-5) != []
    assert checks.check_zeta(6.0, 6.1, 0.2) == []
    assert checks.check_zeta(6.0, 6.3, 0.2) != []
    assert checks.check_nonincreasing(np.array([3.0, 2.0, 2.0])) == []


def _shape(doc):
    """The structure of an input with every number replaced by its type."""
    if isinstance(doc, dict):
        return {k: _shape(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_shape(v) for v in doc]
    return type(doc).__name__


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_inputs_repeat_and_keep_their_size(workload):
    gen = workloads.GENERATORS[workload]
    assert gen(7) == gen(7)
    assert gen(7) != gen(8)
    assert _shape(gen(7)) == _shape(gen(8))


def test_tail_percentile_needs_ten_samples_beyond():
    assert run.tail_percentile(range(10)) is None
    assert run.tail_percentile(range(11)) == (100 / 11, 0)
    assert run.tail_percentile(range(20)) == (50.0, 9)


def test_fails_without_the_package_sources(tmp_path):
    import shutil
    import subprocess
    import sys
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
