"""Closed-form profile integrals against mpmath quadrature.

``LogLinearProfile.log_sigma`` and ``log_s_tail`` sum per-piece closed forms
of integral exp(t - gamma f(t)) dt in log space.  The oracle integrates each
piece numerically at 30 digits, with the exponent's value at the left end of
the range factored out: quadrature works to an absolute tolerance, so an
integrand near e^-65 would lose its relative accuracy.  Drawn profiles include flat-rate pieces
(|1 - gamma s| < 1e-12, where the closed form switches to the logarithmic
antiderivative), staircase jumps that take f to about 10^3, and queries
exactly on knots.
"""

import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractrace.sequences import LogLinearProfile

GAMMAS = [0.5, 1.0, 1.5, 2.5]


@st.composite
def profiles(draw):
    gamma = draw(st.sampled_from(GAMMAS))
    m = draw(st.integers(1, 6))
    lengths = draw(st.lists(st.floats(0.05, 5.0), min_size=m, max_size=m))
    knots = np.concatenate([[draw(st.floats(-2.0, 2.0))],
                            np.cumsum(lengths)])
    knots[1:] += knots[0]
    flat = st.sampled_from([1.0 / gamma, (1.0 + 1e-13) / gamma,
                            (1.0 - 5e-13) / gamma, (1.0 + 1e-11) / gamma])
    slopes = np.array(draw(st.lists(st.one_of(flat, st.floats(-0.5, 3.0)),
                                    min_size=m, max_size=m)))
    f_left = np.empty(m)
    f = draw(st.floats(0.0, 10.0))
    for i in range(m):
        f += draw(st.one_of(st.just(0.0), st.floats(0.0, 300.0)))
        f_left[i] = f
        f += slopes[i] * lengths[i]
    inner = draw(st.lists(st.floats(0.0, 1.0), max_size=6))
    queries = np.concatenate([knots, knots[0] + np.asarray(inner)
                              * (knots[-1] - knots[0])])
    queries = np.minimum(queries, knots[-1])
    return gamma, LogLinearProfile(knots, f_left, slopes), queries


def piece_integral(prof, gamma, i, a, b):
    """integral_a^b exp(t - gamma f(t)) dt on piece i, at 30 digits.

    On the piece the exponent is g(a) + r (t - a) with r = 1 - gamma s;
    exp(g(a)) multiplies the quadrature of exp(r (t - a)).
    """
    t0 = mpmath.mpf(float(prof.knots[i]))
    f0, s = mpmath.mpf(float(prof.f_left[i])), mpmath.mpf(float(prof.slopes[i]))
    g = mpmath.mpf(gamma)
    a, b = mpmath.mpf(float(a)), mpmath.mpf(float(b))
    r = 1 - g * s
    g_a = a - g * (f0 + s * (a - t0))
    return mpmath.exp(g_a) * mpmath.quad(lambda t: mpmath.exp(r * (t - a)),
                                         [a, b])


def oracle(prof, gamma, tq, upper):
    """log integral over [knots[0], tq] (upper False) or [tq, t_max]."""
    total = mpmath.mpf(0)
    for i in range(len(prof.slopes)):
        a, b = prof.knots[i], prof.knots[i + 1]
        lo, hi = (a, min(b, tq)) if not upper else (max(a, tq), b)
        if lo < hi:
            total += piece_integral(prof, gamma, i, lo, hi)
    return -math.inf if total == 0 else float(mpmath.log(total))


def assert_close(got, want):
    if want == -math.inf:
        assert got == -math.inf
    else:
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (got, want)


# a query 3e-308 past the first knot of a piece with rate r = -1e-11: r * dt
# is subnormal, and kept only a few bits
NEAR_KNOT = (0.5, LogLinearProfile([0.0, 1.0, 2.75], [0.0, 1.0],
                                   [(1.0 + 1e-11) / 0.5, 0.5]),
             np.array([0.0, 1.0, 2.75, 3.05947656e-308]))


@given(profiles())
@example(NEAR_KNOT)
@settings(max_examples=40, deadline=None)
def test_log_sigma_matches_quadrature(drawn):
    gamma, prof, queries = drawn
    with mpmath.workdps(30):
        got = prof.log_sigma(gamma, queries)
        for tq, value in zip(queries, got):
            assert_close(float(value), oracle(prof, gamma, tq, upper=False))


# a tail of about e^-66, where a quadrature of the unscaled integrand at 30
# digits is off by 7.6e-8
FAR_TAIL = (2.5, LogLinearProfile([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0],
                                  [0.0, 0.4, 0.8, 1.2, 1.6, 28.0],
                                  [0.4] * 5 + [2.0]), np.array([5.0]))


# a last piece whose mass is about e^-749 of the one before: the remainder
# ratio underflows to 0
STEEP_LAST = (2.5, LogLinearProfile([0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
                                    [0.0, 0.0, 0.0, 0.0, 300.0], [0.0] * 5),
              np.array([0.0, 1.0, 2.0, 3.0, 4.0, 5.0]))


@given(profiles())
@example(FAR_TAIL)
@example(STEEP_LAST)
@settings(max_examples=40, deadline=None)
def test_log_s_tail_matches_quadrature(drawn):
    gamma, prof, queries = drawn
    with mpmath.workdps(30):
        got, rem = prof.log_s_tail(gamma, queries)
        for tq, value in zip(queries, got):
            assert_close(float(value), oracle(prof, gamma, tq, upper=True))
    assert not math.isnan(rem)
    assert rem > -math.inf


def test_a_query_on_a_negative_last_knot_is_inside_the_profile():
    prof = LogLinearProfile([-2.0, -1.5], [0.0], [1.0])
    with mpmath.workdps(30):
        assert_close(float(prof.log_sigma(0.5, [-1.5])[0]),
                     oracle(prof, 0.5, -1.5, upper=False))
        got, _ = prof.log_s_tail(0.5, [-1.5])
        assert got[0] == -math.inf
