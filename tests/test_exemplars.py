"""Constructed families with prescribed traceability behavior."""

import math

import numpy as np
import pytest

from fractrace.asymptotics import (
    analyze_sequence,
    c_bounds,
    eccentricity_scan,
    order_of_infinitesimal,
    resolve_kind,
)
from fractrace.errors import CapExceeded, SpecNotDiverging
from fractrace.exemplars import (
    CONSTANT,
    LINEAR,
    StepSpec,
    TwoSlopeSpec,
    s_ratio,
    sigma_ratio,
    step_block_ends,
    step_profile,
    step_sequence,
    two_slope_profile,
    two_slope_sequence,
)


# --- spec validation ----------------------------------------------------------

def test_two_slope_spec_rejects_bad_slopes():
    with pytest.raises(ValueError):
        TwoSlopeSpec(1.0, 2.0, (CONSTANT, 1.0))  # beta > alpha
    with pytest.raises(ValueError):
        TwoSlopeSpec(2.0, 0.0, (CONSTANT, 1.0))
    with pytest.raises(ValueError):
        TwoSlopeSpec(2.0, 1.0, (CONSTANT, -1.0))
    with pytest.raises(ValueError):
        TwoSlopeSpec(2.0, 1.0, ("other",))


def test_step_spec_rejects_bad_parameters():
    with pytest.raises(SpecNotDiverging):
        StepSpec(q=1.0)
    with pytest.raises(SpecNotDiverging):
        # q near 1: snapping the first block ends to integers leaves
        # spacings that no longer grow, so collapse ratios stop vanishing
        step_profile(StepSpec(q=1.01))


# --- two-slope family ---------------------------------------------------------

def test_equal_slopes_give_exactly_harmonic():
    seq = two_slope_sequence(TwoSlopeSpec(1.0, 1.0, (CONSTANT, 1.0)), cap=5000)
    n = np.arange(1, 5001)
    np.testing.assert_allclose(seq.values[:5000], 1.0 / n, rtol=1e-12)


def test_two_slope_profile_alternates():
    prof = two_slope_profile(TwoSlopeSpec(2.0, 1.0, (CONSTANT, 1.0)),
                             t_horizon=10.0)
    # f climbs by 2 on even pieces and 1 on odd ones, each of width 1
    assert prof.f(1.0) == pytest.approx(2.0, abs=1e-12)
    assert prof.f(2.0) == pytest.approx(3.0, abs=1e-12)
    assert prof.f(3.0) == pytest.approx(5.0, abs=1e-12)


def test_constant_gaps_order_is_mean_slope():
    seq = two_slope_sequence(TwoSlopeSpec(2.0, 1.0, (CONSTANT, 1.0)),
                             cap=200_000)
    est = order_of_infinitesimal(seq)
    assert est.value == pytest.approx(1.5, abs=0.05)


def test_constant_gaps_pin_both_bounds_to_mean():
    # bounded alternation windows: both sum-scale bounds land on 2/(alpha+beta),
    # whatever the gap width
    for a in (1.0, 0.5):
        seq = two_slope_sequence(TwoSlopeSpec(2.0, 1.0, (CONSTANT, a)),
                                 cap=200_000)
        cb = c_bounds(seq)
        assert cb.c_lower.value == pytest.approx(2.0 / 3.0, abs=0.05)
        assert cb.c_upper.value == pytest.approx(2.0 / 3.0, abs=0.05)
        assert not cb.jump_regime


def test_growing_gaps_split_the_bounds():
    # gap lengths a_n = n: the slopes dominate whole log-decades, so the
    # bounds spread to the per-slope reciprocals 1/alpha and 1/beta.  The
    # liminf estimate needs a few oscillation periods, hence the large cap
    seq = two_slope_sequence(TwoSlopeSpec(2.0, 1.0, (LINEAR,)), cap=1_000_000)
    rep = analyze_sequence(seq)
    assert rep.c_bounds.c_lower.value == pytest.approx(0.5, abs=0.05)
    assert rep.c_bounds.c_upper.value == pytest.approx(1.0, abs=0.05)
    assert rep.ord_estimate.value == pytest.approx(1.5, abs=0.05)
    assert rep.sandwich_holds()


def test_linear_gap_scans_nonempty_inside_the_traceable_window():
    seq = two_slope_sequence(TwoSlopeSpec(2.0, 1.0, (LINEAR,)), cap=1_000_000)
    for g in (0.5, 0.6, 2.0 / 3.0, 0.8, 1.0):
        powered = seq.power(g)
        scan = eccentricity_scan(powered, resolve_kind(powered), 0.02)
        assert scan.route == "analytic"
        assert scan.nonempty, f"gamma={g} found no eccentric indices"


def test_linear_gap_scans_empty_outside_the_window():
    seq = two_slope_sequence(TwoSlopeSpec(2.0, 1.0, (LINEAR,)), cap=1_000_000)
    for g in (0.3, 1.4):
        powered = seq.power(g)
        scan = eccentricity_scan(powered, resolve_kind(powered), 0.02)
        assert not scan.nonempty, f"gamma={g} unexpectedly accepted"
        assert scan.inf_gap > 0.02


# --- step family ----------------------------------------------------------------

def test_step_block_ends_for_square_exponents():
    # b_k = k^2 -> x_k = round(e^{k^2})
    ends = step_block_ends(StepSpec(q=2.0), cap=1_000_000)
    np.testing.assert_array_equal(ends, [3, 55, 8103])


def test_step_sequence_is_constant_on_blocks():
    seq = step_sequence(StepSpec(q=2.0), cap=10_000)
    vals = seq.values[:8103]
    # value 1/x_k holds on (x_{k-1}, x_k]
    assert vals[3] == pytest.approx(1.0 / 55.0, rel=1e-9)
    assert vals[54] == pytest.approx(1.0 / 55.0, rel=1e-9)
    assert vals[55] == pytest.approx(1.0 / 8103.0, rel=1e-9)


def test_step_collapse_ratios_vanish():
    ends = step_block_ends(StepSpec(q=2.0), cap=1_000_000)
    ratios = ends[:-1] / ends[1:].astype(float)
    assert np.all(np.diff(ratios) < 0)
    assert ratios[-1] < 0.01


def test_step_order_one_with_degenerate_bounds():
    seq = step_sequence(StepSpec(q=2.0), cap=1_000_000)
    rep = analyze_sequence(seq)
    assert rep.ord_estimate.value == pytest.approx(1.0, abs=0.05)
    assert rep.c_bounds.c_lower.value < 0.05
    upper = rep.c_bounds.c_upper.value
    assert upper > 10.0 or np.isinf(upper)
    assert rep.c_bounds.jump_regime
    assert rep.sandwich_holds()


def test_step_powers_stay_eccentric():
    # collapse points are eccentric at every power: S doubles its argument
    # inside a frozen block without moving
    seq = step_sequence(StepSpec(q=2.0), cap=1_000_000)
    for alpha in (0.5, 1.0, 2.0, 4.0):
        powered = seq.power(alpha)
        scan = eccentricity_scan(powered, resolve_kind(powered), 0.02)
        assert scan.nonempty, f"alpha={alpha} found no eccentric indices"


# --- integral diagnostics --------------------------------------------------------

def test_sigma_ratio_harmonic_closed_form():
    # mu(y) = 1/y: sigma(x) = log x, so the ratio is log(2x)/log(x)
    seq = two_slope_sequence(TwoSlopeSpec(1.0, 1.0, (CONSTANT, 1.0)), cap=10_000)
    got = sigma_ratio(seq, 1.0, 50.0)
    assert got == pytest.approx(math.log(100.0) / math.log(50.0), rel=1e-9)


def test_sigma_ratio_matches_quadrature():
    spec = TwoSlopeSpec(2.0, 1.0, (CONSTANT, 1.0))
    seq = two_slope_sequence(spec, cap=10_000)
    prof = seq.profile

    def integral(gamma, hi):
        t = np.linspace(0.0, math.log(hi), 400_001)
        return np.trapezoid(np.exp(t - gamma * prof.f(t)), t)

    for gamma in (0.5, 0.9, 1.3):
        want = integral(gamma, 2000.0) / integral(gamma, 1000.0)
        got = sigma_ratio(seq, gamma, 1000.0)
        assert got == pytest.approx(want, rel=1e-6), f"gamma={gamma}"


def test_s_ratio_power_tail_closed_form():
    # mu(y) = 1/y at gamma 2: s(x) = 1/x, so s(x/2)/s(x) = 2
    seq = two_slope_sequence(TwoSlopeSpec(1.0, 1.0, (CONSTANT, 1.0)), cap=10_000)
    assert s_ratio(seq, 2.0, 100.0) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("gamma", [1.0, 1.5])
@pytest.mark.parametrize("x", [37.5, 40.0])
def test_s_ratio_of_values_matches_a_direct_sum(gamma, x):
    """Without a profile, s(x) = integral_x^inf mu(y)^gamma dy over the
    staircase mu(y) = mu_floor(y) of a complete list: the part of step
    floor(x) right of x plus every later term."""
    from fractrace.sequences import EigenvalueSequence
    vals = np.arange(1, 2001) ** -1.2
    seq = EigenvalueSequence.from_values(vals)

    def s(y):
        n = math.floor(y)
        return math.fsum([(n + 1 - y) * vals[n - 1] ** gamma,
                          *(vals[n:] ** gamma)])

    assert s_ratio(seq, gamma, x) == pytest.approx(s(x / 2) / s(x), rel=1e-12)


def test_s_ratio_needs_a_negligible_remainder():
    # mu = 1/n^2 to log n = 3: the tail from x = 5 is mostly beyond it
    from fractrace.sequences import EigenvalueSequence, LogLinearProfile
    seq = EigenvalueSequence.from_profile(
        LogLinearProfile([0.0, 3.0], [0.0], [2.0]), cap=10)
    with pytest.raises(CapExceeded, match="profile horizon") as e:
        s_ratio(seq, 1.0, 5.0)
    assert e.value.code == "CAP_EXCEEDED"


def test_ratio_rejects_bad_lam():
    seq = two_slope_sequence(TwoSlopeSpec(1.0, 1.0, (CONSTANT, 1.0)), cap=1000)
    with pytest.raises(ValueError):
        sigma_ratio(seq, 1.0, 10.0, lam=1.0)
    with pytest.raises(ValueError):
        s_ratio(seq, 2.0, 10.0, lam=0.5)


def test_staircase_route_needs_the_cap():
    vals = 1.0 / np.arange(1, 101)
    from fractrace.sequences import EigenvalueSequence
    seq = EigenvalueSequence.from_values(vals)
    with pytest.raises(CapExceeded):
        sigma_ratio(seq, 1.0, 80.0)  # lam * x = 160 beyond cap 100


def test_staircase_route_matches_direct_sum():
    from fractrace.sequences import EigenvalueSequence
    vals = 1.0 / np.arange(1, 101) ** 1.5
    seq = EigenvalueSequence.from_values(vals)
    got = sigma_ratio(seq, 1.0, 50.0)
    want = vals[:99].sum() / vals[:49].sum()  # integer x: whole steps only
    assert got == pytest.approx(want, rel=1e-12)
