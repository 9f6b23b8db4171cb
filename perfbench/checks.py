"""Correctness checks applied to every run, whatever the seed.

Each check takes plain data (arrays, report dicts, map lists) and returns a
list of problems; an empty list means the output passed.  A problem marks
its operation failed.  The oracles are independent of the package: closed
forms from the maps and the depth, and identities the outputs must satisfy.
"""

from __future__ import annotations

import csv
import math
from fractions import Fraction

import numpy as np

SIMILARITY_TOL = 1e-10
RESIDUE_REL_TOL = 1e-6
FLOAT_CONSERVATION_REL_TOL = 1e-9


def level_gap_count(maps) -> int:
    """Gaps the first level opens in the hull of orientation-preserving
    interval maps ``[(ratio, translation), ...]``; exact for Fractions."""
    fixed = [t / (1 - r) for r, t in maps]
    a, b = min(fixed), max(fixed)
    images = sorted((r * a + t, r * b + t) for r, t in maps)
    ends = [a] + [x for iv in images for x in iv] + [b]
    return sum(1 for i in range(0, len(ends), 2) if ends[i + 1] > ends[i])


def expected_gap_count(maps, depth: int) -> int:
    """Closed form: level n opens p^(n-1) copies of the level-1 gaps."""
    p = len(maps)
    return level_gap_count(maps) * sum(p ** k for k in range(depth))


def exact_maps(ratios):
    """[(ratio, translation)] in Fractions of a two-map system given as
    [[num, den], [num, den]]: first map at 0, second map ending at 1."""
    r1, r2 = (Fraction(n, d) for n, d in ratios)
    return [(r1, Fraction(0)), (r2, 1 - r2)]


def _gap_totals(count: int, expected: int, exact: bool, defect: float,
                width: float) -> list:
    """Count against the closed form, and the reported conservation defect:
    0 on exact lists, tiny on float ones."""
    problems = []
    if count != expected:
        problems.append(f"gap count {count} != closed form {expected}")
    tol = FLOAT_CONSERVATION_REL_TOL * width
    if exact and defect != 0:
        problems.append(f"exact conservation defect {defect!r} != 0")
    if not exact and not abs(defect) <= tol:
        problems.append(f"float conservation defect {defect!r} above {tol:g}")
    return problems


def check_gap_list(gaps, expected: int) -> list:
    """A GapList against the closed-form count and interval conservation.

    The hull minus the gap and residual lengths, recomputed here from the
    intervals, catches an altered gap length that the defect the list
    reports about itself would not."""
    lengths = np.asarray(gaps.ends, float) - np.asarray(gaps.starts, float)
    residual = (np.asarray(gaps.residual_ends, float)
                - np.asarray(gaps.residual_starts, float))
    width = float(gaps.b) - float(gaps.a)
    problems = _gap_totals(len(lengths), expected, gaps.exact,
                           gaps.conservation_defect, width)
    missing = width - float(np.sum(lengths)) - float(np.sum(residual))
    if not abs(missing) <= FLOAT_CONSERVATION_REL_TOL * width:
        problems.append(f"gaps and residuals miss the hull by {missing!r}")
    return problems + check_nonincreasing(lengths, "gap lengths")


def check_nonincreasing(values, what: str = "values") -> list:
    values = np.asarray(values, float)
    if len(values) == 0:
        return [f"{what}: empty"]
    bad = np.nonzero(np.diff(values) > 0)[0]
    if len(bad):
        return [f"{what}: increase at index {int(bad[0]) + 1}"]
    return []


def check_pair_values(values, ratios, seed_distance: float) -> list:
    """Nonincreasing, and led by the largest ratio times the seed distance."""
    problems = check_nonincreasing(values, "pair values")
    if len(values):
        want = max(ratios) * seed_distance
        if not math.isclose(float(values[0]), want, rel_tol=1e-12):
            problems.append(f"first pair value {float(values[0])!r} != "
                            f"max ratio x seed distance {want!r}")
    return problems


def check_zeta(value: float, closed_form, tail_error: float) -> list:
    if closed_form is None or abs(value - closed_form) <= tail_error:
        return []
    return [f"zeta {value!r} misses closed form {closed_form!r} "
            f"by more than its error {tail_error!r}"]


def check_residue(analytic: float, numeric: float) -> list:
    if abs(analytic - numeric) <= RESIDUE_REL_TOL * abs(analytic):
        return []
    return [f"residue analytic {analytic!r} vs numeric {numeric!r}"]


def check_similarity_dimension(ratios, d: float) -> list:
    excess = sum(float(r) ** d for r in ratios) - 1.0
    if abs(excess) <= SIMILARITY_TOL:
        return []
    return [f"sum r^d - 1 = {excess!r} at d = {d!r}"]


# ---------------------------------------------------------------------------
# reports written by the CLI

def _config_maps(params):
    return [(m["ratio"], m["translation"]) for m in params["ifs"]["maps"]]


def _csv_columns(path, names):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    idx = [rows[0].index(n) for n in names]
    data = np.array([[float(r[i]) for i in idx] for r in rows[1:]])
    return [data[:, j] if len(data) else np.zeros(0) for j in range(len(idx))]


def check_report(report: dict, experiment: dict, out_dir: str) -> list:
    """Every listed check that applies to one experiment's report."""
    problems = []
    params = experiment["parameters"]
    series = report.get("series", {})
    for entry in report.get("results", []):
        op, values = entry["op"], entry["values"]
        if op == "similarity_dimension":
            ratios = [r for r, _ in _config_maps(params)]
            problems += check_similarity_dimension(
                ratios, values["dimension"]["value"])
        elif op == "gaps_from_interval_ifs":
            problems += _check_gap_entry(values, params, out_dir,
                                         series.get("gaps"))
        elif op == "pair_triple" and "entries" in series:
            mu, = _csv_columns(f"{out_dir}/{series['entries']}", ["mu_k"])
            ratios = [r for r, _ in _config_maps(params)]
            problems += check_pair_values(
                mu, ratios, values["seed_distance"]["value"])
        elif op == "gap_triple" and "entries" in series:
            mu, = _csv_columns(f"{out_dir}/{series['entries']}", ["mu_k"])
            problems += check_nonincreasing(mu, "gap model values")
        elif op == "zeta_partial":
            if "closed_form" in values and not values["closed_within_error"]:
                problems.append("zeta misses its closed form by more than "
                                "its tail error")
        elif op == "zeta_residue":
            problems += check_residue(values["analytic"]["value"],
                                      values["numeric"]["value"])
    return problems


def _check_gap_entry(values, params, out_dir, gaps_csv) -> list:
    a, b = values["hull"]
    problems = _gap_totals(
        values["count"],
        expected_gap_count(_config_maps(params), params["depth"]),
        values["exact"], values["conservation_defect"]["value"], b - a)
    if gaps_csv is not None:
        start, end, length = _csv_columns(f"{out_dir}/{gaps_csv}",
                                          ["start", "end", "length"])
        if np.any(end - start != length):
            problems.append("gaps csv: length != end - start")
        problems += check_nonincreasing(length, "gaps csv lengths")
    return problems
