"""The link check's Dixmier trace against Connes' residue formula.

On a stationary system mu^d lies in L^(1,inf) and S_n(mu^d) grows as
(R/d) log n, with R the residue of zeta at d (ROADMAP item 7).  So the link
check takes the trace at the system's own dimension without classifying
the ideal, and its band should hold R/d from ``oracles``.  Cases measured
to miss are strict expected failures: a fix that moves one onto R/d fails
here until its mark is removed.
"""

import json
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from fractrace import asymptotics, cli
from fractrace.errors import NotL1Weak
from fractrace.fractal_geometry import (LimitIfs, gaps_from_interval_ifs,
                                        interval_map)
from fractrace.spectral_triples import gap_triple, minkowski_link_check
from oracles import DIGITS, dimension, residue_over_d
from systems import make_cantor, make_uneven, random_explicit


def _floats(r1, r2, t2):
    return LimitIfs.stationary([interval_map(r1, 0.0), interval_map(r2, t2)])


# name: (system, ratios, first-level gaps), every hull [0, 1]
SYSTEMS = {
    "cantor": (make_cantor, [Fraction(1, 3)] * 2, [Fraction(1, 3)]),
    "uneven": (make_uneven, [Fraction(1, 2), Fraction(1, 3)],
               [Fraction(1, 6)]),
    "0.3,0.4": (lambda: _floats(0.3, 0.4, 0.6), [0.3, 0.4], [0.6 - 0.3]),
    "0.25,0.35": (lambda: _floats(0.25, 0.35, 0.65), [0.25, 0.35],
                  [0.65 - 0.25]),
}
MISSES = {("cantor", 14), ("cantor", 16), ("uneven", 6), ("uneven", 8),
          ("uneven", 10), ("uneven", 14), ("0.3,0.4", 16),
          ("0.25,0.35", 6), ("0.25,0.35", 16)}
MISS = pytest.mark.xfail(strict=True, raises=AssertionError,
                         reason="ROADMAP item 7: the trace band does not "
                         "allow for the estimate's bias")


def test_the_oracles_give_cantors_closed_forms():
    with mpmath.workdps(DIGITS):
        ratios = [Fraction(1, 3)] * 2
        tol = mpmath.mpf(10) ** (5 - DIGITS)
        assert abs(dimension(ratios) - mpmath.log(2) / mpmath.log(3)) < tol
        assert abs(residue_over_d(ratios, [Fraction(1, 3)])
                   - 1 / mpmath.log(2)) < tol


@pytest.mark.parametrize("name, depth", [
    pytest.param(name, depth, marks=[MISS] if (name, depth) in MISSES else [],
                 id=f"{name}-{depth}")
    for name in SYSTEMS for depth in range(6, 17, 2)])
def test_the_trace_band_holds_residue_over_d(name, depth):
    build, ratios, first_gaps = SYSTEMS[name]
    link = minkowski_link_check(gap_triple(gaps_from_interval_ifs(build(),
                                                                  depth)))
    assert link.d == pytest.approx(float(dimension(ratios)), abs=1e-11)
    assert link.trace.lo <= residue_over_d(ratios, first_gaps) <= link.trace.hi


@pytest.mark.parametrize("build, depth", [(make_cantor, 6), (make_cantor, 8),
                                          (make_uneven, 6)],
                         ids=["cantor-6", "cantor-8", "uneven-6"])
def test_a_repeating_system_at_its_own_dimension_is_not_classified(
        monkeypatch, build, depth):
    """These small models are classed INCONCLUSIVE or NONE, which once
    raised NOT_L1_WEAK; the ideal is known, so the trace band comes back.
    A given exponent still needs the classification."""
    model = gap_triple(gaps_from_interval_ifs(build(), depth))
    calls = []
    classify = asymptotics.classify_ideal
    monkeypatch.setattr(asymptotics, "classify_ideal",
                        lambda seq: calls.append(seq) or classify(seq))
    link = minkowski_link_check(model)
    assert calls == []
    assert link.trace.lo <= link.trace.value <= link.trace.hi
    with pytest.raises(NotL1Weak):
        minkowski_link_check(model, d=link.d)
    assert len(calls) == 1


def test_an_explicit_system_is_still_classified(monkeypatch):
    gaps = gaps_from_interval_ifs(random_explicit(np.random.default_rng(3)),
                                  8, interval=(0.0, 1.0))
    calls = []
    classify = asymptotics.classify_ideal
    monkeypatch.setattr(asymptotics, "classify_ideal",
                        lambda seq: calls.append(seq) or classify(seq))
    try:
        minkowski_link_check(gap_triple(gaps))
    except NotL1Weak:
        pass
    assert len(calls) == 1


def test_a_cantor_link_check_at_depth_8_runs(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "kind": "LINK_CHECK", "name": "cantor",
        "parameters": {"depth": 8, "ifs": {
            "generation": "stationary",
            "maps": [{"ratio": 1 / 3, "translation": 0.0},
                     {"ratio": 1 / 3, "translation": 2 / 3}]}}}))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out),
                     "--quiet"]) == 0
    assert capsys.readouterr().err == ""
    assert (out / "cantor.report.json").exists()
