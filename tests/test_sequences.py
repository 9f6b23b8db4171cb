"""Sequence container, partial sums, tail models, log profiles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace.errors import (CapExceeded, FractraceError, NotVanishing,
                              TailExhausted, TailUnfittable, Underflow)
from fractrace.sequences import (
    NON_TRACE_CLASS,
    TRACE_CLASS,
    EigenvalueSequence,
    LogLinearProfile,
    PartialSumSeries,
    _distinct,
)
from fractrace.asymptotics import partial_sums
from fractrace.exemplars import CONSTANT, TwoSlopeSpec, two_slope_sequence


def harmonic(cap: int = 5000) -> EigenvalueSequence:
    return EigenvalueSequence.from_values(1.0 / np.arange(1, cap + 1))


# --- construction -----------------------------------------------------------

def test_from_values_basics():
    seq = harmonic(100)
    assert seq.cap == 100
    assert seq.mu(1) == 1.0
    assert seq.mu(7) == pytest.approx(1.0 / 7.0, rel=1e-15)
    np.testing.assert_allclose(seq.values[:10], 1.0 / np.arange(1, 11))


def test_from_values_rejects_increase():
    with pytest.raises(ValueError):
        EigenvalueSequence.from_values([1.0, 0.5, 0.6])


def test_from_values_rejects_nonpositive():
    with pytest.raises(ValueError):
        EigenvalueSequence.from_values([1.0, 0.5, 0.0])


def test_from_values_rejects_empty():
    with pytest.raises(ValueError, match="nonempty") as e:
        EigenvalueSequence.from_values([])
    # a cap of 0 is the same empty sequence, refused before mu is called
    prof = LogLinearProfile(np.array([0.0, 50.0]), np.array([0.0]),
                            np.array([2.0]))
    for build in (lambda: EigenvalueSequence.from_function(None, cap=0),
                  lambda: EigenvalueSequence.from_profile(prof, cap=0)):
        with pytest.raises(ValueError) as again:
            build()
        assert str(again.value) == str(e.value)


def test_constant_sequence_does_not_vanish():
    with pytest.raises(NotVanishing):
        EigenvalueSequence.from_values(np.full(4000, 0.25))
    with pytest.raises(NotVanishing) as e:
        EigenvalueSequence.from_function(lambda n: np.full(len(n), 0.25),
                                         cap=4000)
    assert e.value.code == "NOT_VANISHING"


@given(st.lists(st.integers(-5, 5), max_size=30), st.booleans())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_distinct_gives_what_np_unique_gives(xs, floats):
    a = np.array(xs, dtype=float if floats else np.int64)
    got, want = _distinct(a), np.unique(a)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_from_function_matches_pointwise():
    seq = EigenvalueSequence.from_function(lambda n: n**-2.0, cap=1000)
    assert seq.mu(31) == pytest.approx(31.0**-2, rel=1e-15)
    assert len(seq.values) == 1000


def test_mu_beyond_cap_raises():
    with pytest.raises(CapExceeded):
        harmonic(50).mu(51)


def test_power_is_pointwise_power():
    seq = harmonic(200)
    sq = seq.power(2.0)
    np.testing.assert_allclose(sq.values, seq.values ** 2, rtol=1e-15)
    assert seq.power(1.0) is seq or np.array_equal(seq.power(1.0).values,
                                                   seq.values)


def test_a_power_that_underflows_raises_a_typed_error():
    """(1e-110 / n)^3 rounds to 0 for every n, and (1e-100 ... 1e-200)^2
    from some n on: each power fails when it is made, instead of holding
    zeros that a later log divides by.  A power whose last value stays
    positive is kept."""
    cases = ((EigenvalueSequence.from_function(lambda n: 1e-110 / n, cap=1000),
              3.0, 1000),
             (EigenvalueSequence.from_values(np.geomspace(1e-100, 1e-200, 50)),
              2.0, 50))
    for seq, alpha, cap in cases:
        with pytest.raises(Underflow, match=f"rounds to 0 at n = {cap} ") as e:
            seq.power(alpha)
        assert isinstance(e.value, FractraceError)
        assert e.value.code == "UNDERFLOW"
    kept = cases[1][0].power(1.5)
    assert kept.values[-1] > 0.0 and kept.cap == 50


@given(a=st.floats(0.3, 3.0), c=st.floats(0.1, 10.0))
@settings(max_examples=25, deadline=None)
def test_power_sequences_are_valid_and_monotone(a, c):
    seq = EigenvalueSequence.from_function(lambda n: c * n**-a, cap=2000)
    vals = seq.values
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) <= 0)


# --- partial sums ------------------------------------------------------------

def test_values_that_are_not_complete_read_as_a_lookup_would():
    """Values with complete=False are a truncation: their tails take the
    fitted route, exactly as a function looking the entries up does, and
    their powers stay backed by values."""
    vals = np.arange(1, 4001) ** -1.5
    part = EigenvalueSequence.from_values(vals, complete=False)
    lookup = EigenvalueSequence.from_function(lambda n: vals[n - 1],
                                              cap=len(vals))
    for gamma in (1.0, 0.9):
        assert part.tail_sum(10, gamma) == lookup.tail_sum(10, gamma)
        assert part.tail_sum(10, gamma)[2] == "power_fit"
    assert np.array_equal(part._jump_positions(), lookup._jump_positions())
    powered = part.power(0.8)
    assert not powered.complete
    assert not [k for k, v in vars(powered).items() if callable(v)]
    assert powered.tail_sum(10) == lookup.power(0.8).tail_sum(10)
    whole = EigenvalueSequence.from_values(vals).power(0.8)
    assert whole.complete and whole.tail_sum(10)[2] == "exhausted"


def test_prefix_sum_harmonic_value():
    # S_4 of 1/n is 25/12
    ps = partial_sums(harmonic(10), NON_TRACE_CLASS, [4])
    assert ps.values[0] == pytest.approx(25.0 / 12.0, rel=1e-15)


def test_tail_sum_geometric_total():
    # mu_n = 2^-n sums to 1; sixty terms exhaust it to below 1e-15
    seq = EigenvalueSequence.from_values(0.5 ** np.arange(1, 61))
    ps = partial_sums(seq, TRACE_CLASS, [0])
    assert ps.values[0] == pytest.approx(1.0, abs=1e-15)


def test_tail_sum_power_route_matches_zeta_remainder():
    seq = EigenvalueSequence.from_function(lambda n: n**-2.0, cap=100_000)
    tail, err, route = seq.tail_sum(1000)
    # remainder of sum 1/n^2 past n: between 1/(n+1) and 1/n
    exact = float(np.sum(np.arange(1001, 3_000_000) ** -2.0))
    assert abs(tail - exact) <= err + 1e-6
    assert route in ("exhausted", "profile", "power_fit")


def test_prefix_series_is_increasing():
    idx = np.arange(1, 400)
    ps = partial_sums(harmonic(400), NON_TRACE_CLASS, idx)
    assert isinstance(ps, PartialSumSeries)
    assert np.all(np.diff(ps.values) > 0)


def test_tail_series_is_decreasing():
    seq = EigenvalueSequence.from_values(0.5 ** np.arange(1, 40))
    ps = partial_sums(seq, TRACE_CLASS, np.arange(0, 39))
    assert np.all(np.diff(ps.values) < 0)


def test_exhausted_tail_sums_raise_a_typed_error():
    # 2^-n: past n = 54 the prefix sum rounds to the total, so the tail
    # beyond it is 0 in double precision
    seq = EigenvalueSequence.from_values(0.5 ** np.arange(1, 200))
    ps = partial_sums(seq, TRACE_CLASS, np.arange(0, 54))
    assert np.all(ps.values > 0)
    for indices, first in ((np.arange(1, 200), 54), ([120, 60, 10], 60),
                           (150, 150)):
        with pytest.raises(TailExhausted, match=f"beyond n={first} ") as e:
            partial_sums(seq, TRACE_CLASS, indices)
        assert isinstance(e.value, FractraceError)
        assert e.value.code == "TAIL_EXHAUSTED"


@pytest.mark.parametrize("gamma", [1.0, 1.5])
def test_profile_tail_sum_at_zero_is_the_whole_sum(gamma):
    seq = two_slope_sequence(TwoSlopeSpec(1.7, 1.3, (CONSTANT, 1.0)),
                             cap=20_000)
    total, err, route = seq.tail_sum(0, gamma)
    beyond_1, err_1, _ = seq.tail_sum(1, gamma)
    mu_1 = float(np.exp(-gamma * seq.profile.f(0.0)))
    assert route == "profile"
    assert total == beyond_1 + mu_1 and err == err_1
    # the terms up to the cap plus the profile tail beyond it
    beyond_cap, err_cap, _ = seq.tail_sum(seq.cap, gamma)
    direct = float(np.sum(seq.values ** gamma)) + beyond_cap
    assert abs(total - direct) <= err + err_cap
    ps = partial_sums(seq, TRACE_CLASS, [0, 1, 100, seq.cap])
    assert np.all(np.diff(ps.values) < 0) and ps.values[-1] > 0
    assert ps.tail_route == "profile"


def test_partial_sums_rejects_bad_kind_and_indices():
    seq = harmonic(100)
    with pytest.raises(ValueError):
        partial_sums(seq, "OTHER", [1])
    with pytest.raises(CapExceeded):
        partial_sums(seq, NON_TRACE_CLASS, [101])
    with pytest.raises(ValueError):
        partial_sums(seq, NON_TRACE_CLASS, [0])


@given(a=st.floats(1.5, 3.0))
@settings(max_examples=15, deadline=None)
def test_tail_sum_bounded_by_integral_envelope(a):
    # integral test brackets the remainder of a clean power tail
    seq = EigenvalueSequence.from_function(lambda n: n**-a, cap=50_000)
    n = 2000
    tail, err, _ = seq.tail_sum(n)
    lo = (n + 1) ** (1.0 - a) / (a - 1.0)
    hi = n ** (1.0 - a) / (a - 1.0)
    assert lo - err <= tail <= hi + err


# --- log profiles ------------------------------------------------------------

def test_profile_backed_sequence_round_trip():
    prof = LogLinearProfile(np.array([0.0, 50.0]), np.array([0.0]),
                            np.array([2.0]))
    seq = EigenvalueSequence.from_profile(prof, cap=10_000)
    assert seq.mu(100) == pytest.approx(100.0**-2, rel=1e-12)
    assert seq.profile is prof


def test_two_piece_profile_evaluates_both_slopes():
    # slope 2 until t=1, then slope 1
    prof = LogLinearProfile(np.array([0.0, 1.0, 60.0]),
                            np.array([0.0, 2.0]), np.array([2.0, 1.0]))
    assert prof.f(0.5) == pytest.approx(1.0, abs=1e-12)
    assert prof.f(2.0) == pytest.approx(3.0, abs=1e-12)
    scaled = prof.scaled(3.0)
    assert scaled.f(2.0) == pytest.approx(9.0, abs=1e-12)


def test_profile_queries_outside_its_knots_raise():
    prof = LogLinearProfile([0.0, 2.0], [0.0], [1.0])
    for t in (-1.0, 2.5):
        with pytest.raises(CapExceeded, match="profile query outside") as e:
            prof.f(t)
        assert e.value.code == "CAP_EXCEEDED"


def test_tail_sum_refuses_what_its_route_cannot_close():
    # mu = 1/n up to log n = 2: the index 10 lies beyond the horizon
    short = EigenvalueSequence.from_profile(
        LogLinearProfile([0.0, 2.0], [0.0], [1.0]), cap=5)
    with pytest.raises(CapExceeded, match="profile horizon") as e:
        short.tail_sum(10)
    assert e.value.code == "CAP_EXCEEDED"
    # mu = 1/n to the horizon: the tail integral diverges
    slow = EigenvalueSequence.from_profile(
        LogLinearProfile([0.0, 5.0], [0.0], [1.0]), cap=20)
    with pytest.raises(TailUnfittable, match="not summable") as e:
        slow.tail_sum(10)
    assert e.value.code == "TAIL_UNFITTABLE"
    # the power fit closes the tail beyond the cap, not from an index past it
    fitted = EigenvalueSequence.from_function(lambda n: n**-2.0, cap=1000)
    assert fitted.tail_sum(1000)[2] == "power_fit"
    with pytest.raises(CapExceeded, match="beyond cap") as e:
        fitted.tail_sum(1001)
    assert e.value.code == "CAP_EXCEEDED"


def test_profile_convergence_threshold():
    # mu(x) = 1/x cut into pieces, so the per-piece masses carry evidence
    knots = np.arange(0.0, 85.0, 5.0)
    prof = LogLinearProfile(knots, knots[:-1], np.ones(len(knots) - 1))
    assert prof.converges(1.5)
    assert not prof.converges(1.0)
    assert not prof.converges(0.7)

