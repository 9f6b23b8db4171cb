"""The blocked validation pass and the caches kept with the values, against
the whole-array expressions they replaced.

Each reference below is the code the package ran before the pass worked on
slices: the checks that ``from_function`` and ``from_values`` make (those of
``from_function`` once ran in ``prefix``), the ratio test of
``_jump_positions``, and the ``np.cumsum`` sums that ``_partial_sums`` and
``_log_window_slopes`` built on every call.  The new path must raise the
same error or none, find the same jump positions and give bit-equal sums.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace import asymptotics, sequences
from fractrace.errors import FractraceError, Underflow
from fractrace.sequences import (NON_TRACE_CLASS, TRACE_CLASS,
                                 EigenvalueSequence)

B = sequences._SLICE


def reference_from_function_checks(vals, cap):
    # a last value of 0 is the smallest rounding to 0, a typed failure that
    # comes before the positivity check
    if vals[-1] == 0:
        raise Underflow(f"mu_n rounds to 0 at n = {cap}")
    if np.any(vals <= 0):
        raise ValueError("eigenvalues must be positive")
    rises = np.diff(vals) > 1e-15 * vals[:-1] + 1e-300
    if np.any(rises):
        raise ValueError("eigenvalues must be nonincreasing; they rise at "
                         f"index {rises.argmax() + 1}")
    if len(vals) == cap and len(vals) > 1 and vals[0] == vals[-1]:
        raise sequences.NotVanishing("sequence constant up to the cap")


def reference_from_values_checks(values):
    if np.any(values <= 0):
        raise ValueError("eigenvalues must be positive")
    rises = np.diff(values) > 0
    if np.any(rises):
        raise ValueError("eigenvalues must be nonincreasing; they rise at "
                         f"index {rises.argmax() + 1}")
    if values[0] == values[-1] and len(values) > 1:
        raise sequences.NotVanishing("sequence is constant over its whole range")


def reference_jumps(mu):
    ratios = mu[1:] / mu[:-1]
    return np.nonzero(ratios < 0.05)[0] + 1


def reference_partial_sums(seq, kind, indices):
    indices = np.asarray(indices, dtype=np.int64)
    if kind == NON_TRACE_CLASS:
        csum = np.cumsum(seq.values[:int(indices.max())])
        return csum[indices - 1]
    total, _, _ = seq.tail_sum(0)
    csum = np.concatenate([[0.0], np.cumsum(seq.values[:int(indices.max())])])
    return total - csum[indices]


def reference_log_window_slopes(seq):
    csum = np.cumsum(seq.values)
    edges = asymptotics._window_edges(seq.cap)
    slopes = []
    for a, b in zip(edges[:-1], edges[1:]):
        n = np.unique(np.geomspace(max(a, 2), b, 64).astype(np.int64))
        x = np.log(n.astype(float))
        A = np.vstack([np.ones_like(x), x]).T
        coef, _, _, _ = np.linalg.lstsq(A, csum[n - 1], rcond=None)
        slopes.append(float(coef[1]))
    return np.asarray(slopes)


def outcome(fn, *args):
    """("ok", result) or ("raise", exception type, message)."""
    try:
        return ("ok", fn(*args))
    except (ValueError, ArithmeticError, FractraceError) as e:
        return ("raise", type(e), str(e))


def same(a, b):
    if a[0] != b[0] or a[0] == "raise":
        return a == b
    x, y = np.asarray(a[1]), np.asarray(b[1])
    return x.dtype == y.dtype and x.shape == y.shape \
        and x.tobytes() == y.tobytes()


# -- drawn sequences -----------------------------------------------------------

JUMP, TIE, RISE, NONPOSITIVE = "jump", "tie", "rise", "nonpositive"


@st.composite
def sequences_near_slices(draw):
    """(slice size, values): a power sequence of a boundary length with
    jumps, ties, rises of about 1e-15 relative and nonpositive entries
    placed at, beside and between slice boundaries."""
    b = draw(st.sampled_from([1, 2, 3, 5, B]))
    n = draw(st.sampled_from([1, 2, b - 1, b, b + 1, 3 * b + 7]).filter(
        lambda m: m >= 1))
    k = np.arange(1, n + 1, dtype=float)
    vals = draw(st.floats(0.5, 2.0)) * k ** -draw(st.floats(0.3, 2.5))
    near = sorted({p for j in range(4) for p in (j * b - 1, j * b, j * b + 1)
                   if 0 <= p < n})
    where = st.one_of(st.sampled_from(near), st.integers(0, n - 1))
    for _ in range(draw(st.integers(0, 4))):
        kind = draw(st.sampled_from([JUMP, JUMP, TIE, RISE, RISE,
                                     NONPOSITIVE]))
        p = draw(where)
        if kind == JUMP:
            vals[p:] *= draw(st.sampled_from([0.01, 0.049, 0.05, 0.051]))
        elif kind == TIE and p > 0:
            vals[p] = vals[p - 1]
        elif kind == RISE and p > 0:
            rel = draw(st.sampled_from([2.5e-16, 5e-16, 9e-16, 1e-15,
                                        1.1e-15, 2e-15, 1e-12]))
            vals[p] = vals[p - 1] * (1.0 + rel)
        elif kind == NONPOSITIVE:
            vals[p] = draw(st.sampled_from([0.0, -0.0, -1.0]))
    return b, vals


def from_function(vals):
    return EigenvalueSequence.from_function(lambda n: vals[n - 1],
                                            cap=len(vals))


def assert_caches_match(seq, vals):
    assert same(outcome(seq._jump_positions), ("ok", reference_jumps(vals)))
    indices = np.unique(np.geomspace(1, len(vals), 50).astype(np.int64))
    for kind, idx in ((NON_TRACE_CLASS, indices),
                      (TRACE_CLASS, np.concatenate([[0], indices]))):
        got = outcome(lambda: asymptotics._partial_sums(seq, kind, idx)[1])
        want = outcome(reference_partial_sums, seq, kind, idx)
        assert same(got, want), kind
    if len(vals) >= 16:
        assert same(outcome(asymptotics._log_window_slopes, seq),
                    outcome(reference_log_window_slopes, seq))


@given(sequences_near_slices())
@settings(max_examples=60, deadline=None)
def test_from_function_pass_matches_whole_array_checks(drawn):
    b, vals = drawn
    with mock.patch.object(sequences, "_SLICE", b), \
            np.errstate(divide="ignore", invalid="ignore"):
        got = outcome(from_function, vals)
        want = outcome(reference_from_function_checks, vals, len(vals))
        if want[0] == "raise":
            assert got == want
            return
        assert got[0] == "ok"
        assert_caches_match(got[1], vals)


@given(sequences_near_slices())
@settings(max_examples=60, deadline=None)
def test_from_values_pass_matches_whole_array_checks(drawn):
    b, vals = drawn
    with mock.patch.object(sequences, "_SLICE", b), \
            np.errstate(divide="ignore", invalid="ignore"):
        got = outcome(EigenvalueSequence.from_values, vals)
        want = outcome(reference_from_values_checks, vals)
        if want[0] == "raise":
            assert got == want
            return
        assert got[0] == "ok"
        seq = got[1]
        assert_caches_match(seq, vals)
        # powers of explicit values find their jumps on first use
        powered = seq.power(2.0)
        assert same(outcome(powered._jump_positions),
                    ("ok", reference_jumps(vals ** 2.0)))


@given(sequences_near_slices(), st.floats(0.05, 0.95))
@settings(max_examples=40, deadline=None)
def test_sums_read_short_of_the_cap_match_the_caches(drawn, frac):
    b, vals = drawn
    with mock.patch.object(sequences, "_SLICE", b), \
            np.errstate(divide="ignore", invalid="ignore"):
        if outcome(reference_from_function_checks, vals,
                   len(vals))[0] == "raise":
            return
        seq = from_function(vals)
        first = max(1, int(frac * len(vals)))
        assert same(outcome(seq._prefix_sums, first),
                    ("ok", np.concatenate([[0.0], np.cumsum(vals[:first])])))
        assert_caches_match(seq, vals)


def test_slices_overlap_so_a_rise_across_a_boundary_is_seen():
    vals = 1.0 / np.arange(1, 3 * B + 8, dtype=float)
    vals[B] = vals[B - 1] * 1.5
    with np.errstate(divide="ignore"):
        try:
            from_function(vals)
        except ValueError as e:
            assert str(e) == ("eigenvalues must be nonincreasing; they "
                              f"rise at index {B}")
        else:
            raise AssertionError("rise at the slice boundary passed")
    # a jump across the same boundary is a jump position
    vals = 1.0 / np.arange(1, 3 * B + 8, dtype=float)
    vals[B:] *= 0.01
    assert list(EigenvalueSequence.from_values(vals)._jump_positions()) == [B]


def test_a_ratio_of_exactly_the_threshold_is_no_jump():
    # 0.1 / 2.0 == 0.05 exactly; the next ratio is one ulp below it
    vals = np.array([2.0, 0.1, np.nextafter(0.005, 0.0), 1e-4])
    assert vals[1] / vals[0] == 0.05 and vals[2] / vals[1] < 0.05
    for b in (1, 2, B):
        with mock.patch.object(sequences, "_SLICE", b):
            seq = EigenvalueSequence.from_values(vals)
            assert seq._jump_positions().tolist() == [2, 3]


def counting(mu_fn):
    """mu_fn and a list that grows by the number of points it is asked at."""
    asked = []

    def fn(n):
        asked.append(np.size(n))
        return mu_fn(n)
    return fn, asked


def test_mu_reads_the_materialized_prefix():
    fn, asked = counting(lambda n: np.asarray(n, dtype=float) ** -1.7)
    seq = EigenvalueSequence.from_function(fn, cap=10**5)
    asymptotics.analyze_sequence(seq)
    # one materialization of the whole cap, and no mu_fn call after it
    assert sum(asked) == 10**5
    assert len(asked) == 1

