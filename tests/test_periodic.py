"""Periodic limit fractals answer from their period.

Blocks L_1 ... L_p that repeat make the self-similar system of their p-level
words, so the dimension is the root of prod_j sum_{r in L_j} r^s = 1, and
zeta closes over one period.  The three period-2 systems below are those of
ROADMAP item 16; A and [A, A] are one attractor written with periods 1 and
2, which must give the same numbers.  A closed form sums the gaps of one
whole period, so a gap model shallower than its period has none.
"""

import json
import math

import mpmath
import numpy as np
import pytest

from fractrace import cli
from fractrace.errors import TailUnfittable
from fractrace.fractal_geometry import (
    LimitIfs,
    gaps_from_interval_ifs,
    interval_map,
    similarity_dimension,
)
from fractrace.reporting import parse_config
from fractrace.spectral_triples import (
    gap_triple,
    minkowski_link_check,
    pair_triple,
    zeta_partial,
    zeta_residue,
)

PERIOD_TWO = {
    "uneven-then-0.3-0.4": [
        [interval_map(1 / 2, 0.0), interval_map(1 / 3, 2 / 3)],
        [interval_map(0.3, 0.0), interval_map(0.4, 0.6)]],
    "thirds-then-fifths": [
        [interval_map(1 / 3, 0.0), interval_map(1 / 3, 2 / 3)],
        [interval_map(0.2, 0.0), interval_map(0.2, 0.8)]],
    "two-then-three": [
        [interval_map(0.45, 0.0), interval_map(0.45, 0.55)],
        [interval_map(0.1, 0.0), interval_map(0.1, 0.45),
         interval_map(0.1, 0.9)]],
}
# the s at which each gap model's tail fit is accepted; pair models take 1
GAP_S = {"uneven-then-0.3-0.4": 1.0, "thirds-then-fifths": 1.0,
         "two-then-three": 1.5}

A = [interval_map(1 / 2, 0.0), interval_map(1 / 3, 2 / 3)]

PERIOD_THREE = LimitIfs.periodic([
    [interval_map(0.3, 0.0), interval_map(0.3, 0.7)],
    [interval_map(0.25, 0.0), interval_map(0.25, 0.75)],
    [interval_map(0.2, 0.0), interval_map(0.2, 0.8)]])
# long enough a period that the model before its last level fits its tail
PERIOD_SIX = LimitIfs.periodic([
    [interval_map(0.2, 0.0), interval_map(0.2, 0.4), interval_map(0.2, 0.8)],
    [interval_map(0.3, 0.0), interval_map(0.3, 0.7)]] * 3)


def product_root(blocks, guess):
    """The root of prod_j sum_{r in L_j} r^s = 1 at 50 digits, from the same
    float ratios."""
    with mpmath.workdps(50):
        return mpmath.findroot(
            lambda s: mpmath.fprod(sum(mpmath.mpf(w.ratio) ** s for w in level)
                                   for level in blocks) - 1, guess)


@pytest.mark.parametrize("name", PERIOD_TWO)
def test_the_dimension_is_the_root_over_one_period(name):
    blocks = PERIOD_TWO[name]
    d = similarity_dimension(LimitIfs.periodic(blocks))
    assert abs(d - product_root(blocks, d)) <= 1e-12


@pytest.mark.parametrize("name", PERIOD_TWO)
def test_the_closed_forms_hold_on_periodic_models(name):
    ifs = LimitIfs.periodic(PERIOD_TWO[name])
    models = [(gap_triple(gaps_from_interval_ifs(ifs, 12)), GAP_S[name]),
              (pair_triple(ifs, cap=20_000), 1.0)]
    for model, s in models:
        z = zeta_partial(model, s)
        assert abs(z.value - z.closed_form) <= z.tail_error
        res = zeta_residue(model)
        assert abs(res.analytic - res.numeric) <= 1e-6


@pytest.mark.xfail(strict=True, raises=TailUnfittable,
                   reason="zeta_partial fits the tail before it reads the "
                          "period (ROADMAP item 20)")
def test_the_closed_form_holds_at_s_1_on_the_two_then_three_gap_model():
    """The closed form is known at s = 1, but the truncated route of this
    depth-12 gap model has no accepted tail fit there."""
    ifs = LimitIfs.periodic(PERIOD_TWO["two-then-three"])
    z = zeta_partial(gap_triple(gaps_from_interval_ifs(ifs, 12)), 1.0)
    assert abs(z.value - z.closed_form) <= z.tail_error


def test_two_equal_blocks_are_the_stationary_system():
    """[A, A] and A: the same d to the bit, the same gap lengths and pair
    values, closed forms and residues within 1e-12 relative, and the same
    lattice verdict."""
    stationary, doubled = LimitIfs.stationary(A), LimitIfs.periodic([A, A])
    assert similarity_dimension(doubled) == similarity_dimension(stationary)
    gaps = [gap_triple(gaps_from_interval_ifs(ifs, 12))
            for ifs in (stationary, doubled)]
    pairs = [pair_triple(ifs, cap=20_000) for ifs in (stationary, doubled)]
    np.testing.assert_array_equal(gaps[0].gaps.lengths, gaps[1].gaps.lengths)
    np.testing.assert_array_equal(pairs[0].values, pairs[1].values)
    for one, two in (gaps, pairs):
        closed = [zeta_partial(m, 0.9).closed_form for m in (one, two)]
        assert closed[1] == pytest.approx(closed[0], rel=1e-12)
        res = [zeta_residue(m) for m in (one, two)]
        assert res[1].analytic == pytest.approx(res[0].analytic, rel=1e-12)
    assert minkowski_link_check(gaps[1]).lattice \
        is minkowski_link_check(gaps[0]).lattice is False


def test_a_long_period_is_checked_level_by_level():
    """Forty copies of A make a period of 2^40 words; the lattice verdict
    reads one word per ratio, so it is A's and comes at once."""
    long, stationary = LimitIfs.periodic([A] * 40), LimitIfs.stationary(A)
    links = [minkowski_link_check(gap_triple(gaps_from_interval_ifs(ifs, 8)))
             for ifs in (long, stationary)]
    assert links[0].lattice is links[1].lattice is False
    assert links[0].d == pytest.approx(links[1].d, rel=1e-12)


def model(ifs, depth):
    return gap_triple(gaps_from_interval_ifs(ifs, depth))


def test_a_closed_form_needs_one_whole_period():
    """Short of the last level of a period the numerator misses that
    level's gaps, so a gap model has no closed form and no residue; from
    one whole period on the residue is the same at every depth."""
    assert zeta_partial(model(PERIOD_SIX, 5), 1.0).closed_form is None
    assert zeta_partial(model(PERIOD_SIX, 6), 1.0).closed_form is not None
    for ifs, depth in ((PERIOD_SIX, 5), (PERIOD_THREE, 2)):
        with pytest.raises(ValueError, match="one period"):
            zeta_residue(model(ifs, depth))
    whole = [zeta_residue(model(PERIOD_THREE, k)).analytic for k in (3, 9)]
    assert whole[0] == pytest.approx(whole[1], rel=1e-12)
    assert whole[0] == pytest.approx(1.08506, abs=1e-5)


def line_ifs(blocks):
    return {"generation": "periodic",
            "blocks": [[{"ratio": w.ratio, "translation": float(w.translation[0])}
                        for w in level] for level in blocks]}


def run_report(tmp_path, name, doc):
    out = tmp_path / name
    code = cli.main(["run", "--config", str(write(tmp_path, name, doc)),
                     "--out-dir", str(out), "--quiet"])
    report = out / f"{doc['name']}.report.json"
    return code, json.loads(report.read_text()) if report.exists() else None


def write(tmp_path, name, doc):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path


def test_the_residue_default_needs_one_whole_period(tmp_path):
    doc = {"kind": "GAP_TRIPLE", "name": "p6",
           "parameters": {"ifs": line_ifs(PERIOD_SIX.blocks), "depth": 5,
                          "zeta": {"s": [1.0]}}}
    code, report = run_report(tmp_path, "shallow", doc)
    assert code == 0
    ops = {r["op"]: r["values"] for r in report["results"]}
    assert "closed_form" not in ops["zeta_partial"]
    assert "zeta_residue" not in ops
    doc["parameters"]["depth"] = 6
    code, report = run_report(tmp_path, "deep", doc)
    assert code == 0
    assert "zeta_residue" in [r["op"] for r in report["results"]]


def pairs(mine, twin):
    """(measurement, twin's measurement) over two reports of one shape."""
    if isinstance(mine, dict) and set(mine) == {"value", "interval"}:
        yield mine, twin
    elif isinstance(mine, dict):
        assert sorted(mine) == sorted(twin)
        for k in mine:
            yield from pairs(mine[k], twin[k])
    elif isinstance(mine, list):
        assert len(mine) == len(twin)
        for a, b in zip(mine, twin):
            yield from pairs(a, b)
    else:
        assert mine == twin


def test_two_equal_blocks_report_inside_the_stationary_twin(tmp_path):
    """With no interval the [A, A] gap model runs, and every value it
    reports lies inside the interval the stationary A reports.  The closed
    form and the residue routes are reported with zero-width intervals
    (ROADMAP item 8), and one period of two levels sums their terms in
    another order, so there the two agree within 1e-12 of max(1, |value|).
    """
    stationary = {"generation": "stationary",
                  "maps": line_ifs([A])["blocks"][0]}
    reports = []
    for name, ifs in (("a", stationary), ("aa", line_ifs([A, A]))):
        code, report = run_report(tmp_path, name, {
            "kind": "GAP_TRIPLE", "name": "m",
            "parameters": {"ifs": ifs, "depth": 12, "zeta": {"s": [0.9]}}})
        assert code == 0
        assert "zeta_residue" in [r["op"] for r in report["results"]]
        reports.append(report["results"])
    found = list(pairs(reports[1], reports[0]))
    assert len(found) > 10
    for mine, twin in found:
        lo, hi = (float(x) for x in twin["interval"])
        if lo == hi:
            slack = 1e-12 * max(1.0, abs(lo))
            lo, hi = lo - slack, hi + slack
        assert lo <= float(mine["value"]) <= hi


PERIODIC = line_ifs(PERIOD_TWO["uneven-then-0.3-0.4"])


@pytest.mark.parametrize("doc", [
    {"kind": "GAP_TRIPLE", "parameters": {"ifs": PERIODIC, "depth": 8}},
    {"kind": "LINK_CHECK", "parameters": {"ifs": PERIODIC, "depth": 8}},
    {"kind": "IFS_CLASSICAL", "parameters": {"ifs": PERIODIC, "depth": 8,
                                             "minkowski": True}},
    {"kind": "GAP_TRIPLE", "parameters": {"ifs": PERIODIC, "depth": 8,
                                          "residue": True}},
    {"kind": "PAIR_TRIPLE", "parameters": {"ifs": PERIODIC, "cap": 2000,
                                           "residue": True}}],
    ids=["gap-no-interval", "link-no-interval", "minkowski-no-exponent",
         "gap-residue", "pair-residue"])
def test_periodic_configs_take_their_defaults_from_the_period(doc):
    """Their explicit versions are refused (golden/rejected.json)."""
    (experiment,) = parse_config(doc)
    assert experiment.params["ifs"].period == ((0.5, 1 / 3), (0.3, 0.4))
    assert math.isfinite(similarity_dimension(experiment.params["ifs"]))
