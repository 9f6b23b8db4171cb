"""Order of decay, trace ideals, eccentric subsequences, trace estimates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace import asymptotics
from fractrace.asymptotics import (
    INCONCLUSIVE,
    L1,
    L1_WEAK,
    L1_WEAK_0,
    NONE,
    NOT_TRACEABLE_AT_1,
    analyze_sequence,
    c_bounds,
    classify_ideal,
    dixmier_trace_estimate,
    eccentricity_scan,
    order_of_infinitesimal,
    resolve_kind,
    singular_trace_estimate,
)
from fractrace.errors import CapExceeded, EmptySubsequence, NotL1Weak
from fractrace.exemplars import CONSTANT, TwoSlopeSpec, two_slope_sequence
from fractrace.sequences import (
    NON_TRACE_CLASS,
    TRACE_CLASS,
    EigenvalueSequence,
    LogLinearProfile,
)


def power_seq(a: float, cap: int = 100_000, c: float = 1.0) -> EigenvalueSequence:
    return EigenvalueSequence.from_function(lambda n: c * n**-a, cap=cap)


def log_factor_seq(a: float, b: float, cap: int = 30_000) -> EigenvalueSequence:
    """n^-a log(n+1)^b, arranged nonincreasing (the head can rise for b > 0)."""
    n = np.arange(1, cap + 1)
    vals = n**-a * np.log(n + 1.0) ** b
    return EigenvalueSequence.from_values(np.sort(vals)[::-1])


# --- order of decay ----------------------------------------------------------

def test_ord_harmonic_is_one():
    est = order_of_infinitesimal(power_seq(1.0))
    assert est.value == pytest.approx(1.0, abs=0.01)
    assert est.lo <= est.value <= est.hi


def test_ord_inverse_square_is_two():
    est = order_of_infinitesimal(power_seq(2.0))
    assert est.value == pytest.approx(2.0, abs=0.02)


def test_ord_collapse_sequence_uses_jump_route():
    # value 1/2^k held over huge blocks: decay happens at isolated collapses
    n = np.arange(1, 200_001)
    vals = np.exp2(-np.ceil(np.log2(n + 1)))
    est = order_of_infinitesimal(EigenvalueSequence.from_values(vals))
    assert est.method in ("fit", "jump")
    assert est.value == pytest.approx(1.0, abs=0.05)


@given(a=st.floats(0.5, 3.0), b=st.floats(-2.0, 2.0), alpha=st.floats(0.5, 2.5))
@settings(max_examples=50, deadline=None)
def test_ord_homogeneity_under_powers(a, b, alpha):
    seq = log_factor_seq(a, b)
    base = order_of_infinitesimal(seq)
    powered = order_of_infinitesimal(seq.power(alpha))
    combined = 2.0 * ((powered.hi - powered.lo) + alpha * (base.hi - base.lo))
    assert abs(powered.value - alpha * base.value) <= combined + 1e-9


# --- sum-scale bounds --------------------------------------------------------

def test_c_bounds_harmonic_close_to_one():
    cb = c_bounds(power_seq(1.0))
    assert cb.c_lower.value == pytest.approx(1.0, abs=0.05)
    assert cb.c_upper.value == pytest.approx(1.0, abs=0.05)
    assert cb.c_lower.value <= cb.c_upper.value + 1e-12


def test_c_bounds_track_a_power_decay():
    # f(t) = -log mu(e^t) = 1.5 t on a pure power sequence, so every
    # difference quotient of f is 1.5 up to the flooring of e^t
    cb = c_bounds(power_seq(1.5))
    for bound in (cb.c_lower, cb.c_upper):
        assert bound.value == pytest.approx(1.0 / 1.5, rel=1e-2)
        assert 0.0 < bound.lo <= bound.value <= bound.hi < math.inf


def test_c_bounds_need_two_entries():
    with pytest.raises(CapExceeded):
        c_bounds(EigenvalueSequence.from_values([0.5]))


@given(a=st.floats(0.5, 3.0), b=st.floats(-2.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_reciprocal_ord_sits_between_c_bounds(a, b):
    rep = analyze_sequence(log_factor_seq(a, b))
    assert rep.sandwich_holds()


def test_dimension_is_reciprocal_ord():
    rep = analyze_sequence(power_seq(2.0))
    dim = rep.dimension
    assert dim.value == pytest.approx(1.0 / rep.ord_estimate.value, rel=1e-12)
    assert dim.lo <= dim.value <= dim.hi


@pytest.mark.parametrize("a, kind", [(1.7, TRACE_CLASS), (0.8, NON_TRACE_CLASS)])
def test_analyze_sequence_classifies_once(monkeypatch, a, kind):
    """Without a profile the scan kind comes from the report's own
    classification, as resolve_kind would give it."""
    seq = power_seq(a, cap=20_000)
    assert resolve_kind(seq) == kind
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return classify_ideal(*args, **kwargs)

    monkeypatch.setattr(asymptotics, "classify_ideal", counted)
    rep = analyze_sequence(seq)
    assert len(calls) == 1
    assert rep.scan.kind == kind


# --- ideal membership --------------------------------------------------------

def test_classify_harmonic_weak_only():
    cls = classify_ideal(power_seq(1.0))
    assert cls.label == L1_WEAK
    assert cls.in_l1 is False
    assert cls.in_l1_weak is True


def test_classify_inverse_square_summable():
    cls = classify_ideal(power_seq(2.0))
    assert cls.label == L1
    assert cls.in_l1 is True and cls.in_l1_weak is True and cls.in_l1_weak_0 is True


def test_classify_boundary_log_squared_is_summable():
    # 1/(n log^2(n+1)): summable by the integral test, and the weighted
    # sums grow slower than log n, so the null-density flag holds too
    n = np.arange(1, 100_001)
    seq = EigenvalueSequence.from_values(1.0 / (n * np.log(n + 1.0) ** 2))
    cls = classify_ideal(seq)
    assert cls.label == L1
    assert cls.in_l1_weak_0 is True


def test_classify_slow_decay_is_none():
    cls = classify_ideal(power_seq(0.5))
    assert cls.label == NONE
    assert cls.in_l1 is False and cls.in_l1_weak is False


def test_classify_respects_alpha():
    seq = power_seq(0.75)
    assert classify_ideal(seq.power(2.0)).label == L1
    assert classify_ideal(seq).label == NONE


def test_resolve_kind_split():
    assert resolve_kind(power_seq(2.0)) == TRACE_CLASS
    assert resolve_kind(power_seq(1.0)) == NON_TRACE_CLASS


# --- eccentricity scans ------------------------------------------------------

def test_scan_harmonic_accepts_an_upper_tail():
    # S_{2n}/S_n - 1 ~ log 2 / log n: acceptance starts once log n clears
    # log(2)/tolerance and never stops after that
    seq = power_seq(1.0)
    scan = eccentricity_scan(seq, NON_TRACE_CLASS, tolerance=0.1)
    assert scan.nonempty
    assert scan.inf_gap < 0.1
    first = scan.accepted_t[0]
    assert len(scan.accepted_t) == np.sum(scan.t_points >= first - 1e-12)
    assert np.all(np.diff(scan.accepted_n) > 0)


def test_scan_geometric_rejects_everything():
    seq = EigenvalueSequence.from_values(0.5 ** np.arange(1, 200))
    scan = eccentricity_scan(seq, TRACE_CLASS, tolerance=0.1)
    assert not scan.nonempty
    assert scan.inf_gap > 0.3


def test_scan_needs_room_to_double():
    # a horizon of log n = 2 leaves no room for one doubling and the unit
    # of margin the scan keeps below it
    short = EigenvalueSequence.from_profile(
        LogLinearProfile([0.0, 2.0], [0.0], [1.0]), cap=5)
    with pytest.raises(CapExceeded, match="profile horizon") as e:
        eccentricity_scan(short, NON_TRACE_CLASS)
    assert e.value.code == "CAP_EXCEEDED"
    small = EigenvalueSequence.from_values(1.0 / np.arange(1, 8))
    with pytest.raises(CapExceeded, match="cap too small") as e:
        eccentricity_scan(small, NON_TRACE_CLASS)
    assert e.value.code == "CAP_EXCEEDED"


def test_scan_accepted_indices_within_cap():
    seq = power_seq(1.0, cap=20_000)
    scan = eccentricity_scan(seq, NON_TRACE_CLASS, tolerance=0.05)
    finite = scan.accepted_n[np.isfinite(scan.accepted_n)]
    assert np.all(finite >= 1)
    assert np.all(finite <= 20_000)


def test_untraceable_note_set_when_scan_empty_and_not_weak():
    # S_n ~ sqrt(n) is superlogarithmic and the doubled-sum ratio stays
    # near sqrt(2): no eccentric indices exist at this tolerance
    rep = analyze_sequence(power_seq(0.5))
    assert rep.classification.label == NONE
    assert not rep.scan.nonempty
    assert rep.note == NOT_TRACEABLE_AT_1


def test_no_note_for_weak_sequences():
    rep = analyze_sequence(power_seq(1.0))
    assert rep.note is None
    assert rep.trace_value is not None


# --- singular trace estimates -------------------------------------------------

def subseq_for(seq, kind, tolerance=0.1):
    scan = eccentricity_scan(seq, kind, tolerance=tolerance)
    n = scan.accepted_n[np.isfinite(scan.accepted_n)].astype(np.int64)
    return np.unique(n[n >= 1])


def test_trace_of_the_sequence_itself_is_exactly_one():
    seq = power_seq(1.0)
    sub = subseq_for(seq, NON_TRACE_CLASS)
    tv = singular_trace_estimate(np.ones(seq.cap), seq, sub)
    assert tv.value == 1.0
    assert np.all(tv.ratios == 1.0)
    assert tv.measurable


def test_trace_is_homogeneous_in_the_weights():
    seq = power_seq(1.0)
    sub = subseq_for(seq, NON_TRACE_CLASS)
    tv = singular_trace_estimate(np.full(seq.cap, 2.0), seq, sub)
    assert tv.value == pytest.approx(2.0, rel=1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_trace_monotone_in_weights(seed):
    rng = np.random.default_rng(seed)
    seq = power_seq(1.0, cap=20_000)
    sub = subseq_for(seq, NON_TRACE_CLASS)
    w1 = rng.uniform(0.0, 1.0, seq.cap)
    w2 = w1 + rng.uniform(0.0, 1.0, seq.cap)
    t1 = singular_trace_estimate(w1, seq, sub)
    t2 = singular_trace_estimate(w2, seq, sub)
    assert t1.value <= t2.value + 1e-12
    assert t1.lo >= 0.0


def _reference_trace_ratios(weights, seq, subseq, kind):
    """singular_trace_estimate's ratios with its sums written out inline."""
    nmax = int(subseq[-1])
    mu = seq.values[:nmax]
    w = np.asarray(weights, dtype=float)[:nmax]
    if kind == NON_TRACE_CLASS:
        return np.cumsum(w * mu)[subseq - 1] / np.cumsum(mu)[subseq - 1]
    total_w = float(np.sum(w * mu))
    total, _, _ = seq.tail_sum(0)
    within = float(np.sum(mu))
    cw = np.concatenate([[0.0], np.cumsum(w * mu)])
    cm = np.concatenate([[0.0], np.cumsum(mu)])
    w_tail = float(np.mean(w[-max(len(w) // 10, 1):]))
    num = (total_w - cw[subseq]) + w_tail * (total - within)
    return num / (total - cm[subseq])


@pytest.mark.parametrize("seq, kind", [
    (power_seq(1.0, cap=20_000), NON_TRACE_CLASS),
    (power_seq(2.0, cap=20_000), TRACE_CLASS),  # power-fit tail
    (EigenvalueSequence.from_values(np.arange(1, 5001) ** -1.5),
     TRACE_CLASS),  # exhausted tail
    (two_slope_sequence(TwoSlopeSpec(1.7, 1.3, (CONSTANT, 1.0)), cap=20_000),
     TRACE_CLASS),  # profile tail
], ids=["prefix", "power-fit", "exhausted", "profile"])
def test_trace_ratios_match_the_inline_sums(seq, kind, monkeypatch):
    calls = []
    tail_sum = seq.tail_sum
    monkeypatch.setattr(seq, "tail_sum",
                        lambda *a: calls.append(a) or tail_sum(*a))
    rng = np.random.default_rng(3)
    w = rng.uniform(0.5, 1.5, seq.cap)
    sub = np.unique(np.geomspace(2, seq.cap // 2, 40).astype(np.int64))
    tv = singular_trace_estimate(w, seq, sub, kind)
    assert len(calls) == (kind == TRACE_CLASS)
    assert np.array_equal(tv.ratios,
                          _reference_trace_ratios(w, seq, sub, kind))


def test_trace_rejects_empty_subsequence():
    seq = power_seq(1.0, cap=1000)
    with pytest.raises(EmptySubsequence):
        singular_trace_estimate(np.ones(1000), seq, [])
    with pytest.raises(CapExceeded, match="outside cap") as e:
        singular_trace_estimate(np.ones(1000), seq, [10, 1001])
    assert e.value.code == "CAP_EXCEEDED"
    with pytest.raises(ValueError, match="weights shorter"):
        singular_trace_estimate(np.ones(99), seq, [10, 100])


# --- logarithmic means --------------------------------------------------------

def test_dixmier_harmonic_is_one():
    est = dixmier_trace_estimate(power_seq(1.0, cap=1_000_000))
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.hi - est.lo < 0.05
    assert est.lo <= 1.0 <= est.hi or abs(est.value - 1.0) < 0.02


def test_dixmier_scales_linearly():
    est = dixmier_trace_estimate(power_seq(1.0, cap=200_000, c=3.0))
    assert est.value == pytest.approx(3.0, abs=0.1)


def test_dixmier_additive_over_merged_sequences():
    # merge 2/n with 1/(2n): the log means add, 2 + 1/2.  Both families run
    # down to the same minimum so the merged array is a true prefix of the
    # infinite merge (unequal cutoffs would fake a steeper tail)
    merged = np.sort(np.concatenate([
        2.0 / np.arange(1, 240_001), 0.5 / np.arange(1, 60_001)]))[::-1]
    est = dixmier_trace_estimate(EigenvalueSequence.from_values(merged))
    assert est.value == pytest.approx(2.5, abs=0.1)


def test_dixmier_refuses_summable_input():
    with pytest.raises(NotL1Weak):
        dixmier_trace_estimate(power_seq(2.0))


def test_dixmier_check_can_be_disabled():
    est = dixmier_trace_estimate(power_seq(2.0), check=False)
    assert np.isfinite(est.value)


# --- assembled report ---------------------------------------------------------

def test_report_fields_cohere():
    # tolerance 0.02 needs n ~ 2^(1/0.02) to accept on 1/n, far beyond any
    # materialized cap; 0.1 accepts from n ~ 600
    rep = analyze_sequence(power_seq(1.0), tolerance=0.1)
    assert rep.classification.label == L1_WEAK
    assert rep.scan.nonempty
    assert rep.trace_value.value == pytest.approx(1.0, abs=0.05)
    assert rep.sandwich_holds()
