"""Tail diagnostics for eigenvalue sequences.

Each diagnostic takes the sequence itself: the order of infinitesimal, the
reciprocal slow-variation bounds of the log-profile f(t) = -log mu_floor(e^t),
ideal membership, eccentric subsequences (where doubling the index barely
moves the partial sum), and singular/Dixmier trace values.

Finite data cannot see a liminf; every estimator here reports an interval,
and the conventions are shared: tail windows live on [sqrt(N), N] split into
8 log-spaced pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, EmptySubsequence, NotL1Weak, TailExhausted
from .sequences import (
    NON_TRACE_CLASS,
    TRACE_CLASS,
    EigenvalueSequence,
    Estimate,
    PartialSumSeries,
    _distinct,
)

# fewest entries the tail windows of order_of_infinitesimal read, and so the
# shortest explicit values list a config may give
MIN_CAP = 16
_N_WINDOWS = 8
_RATIO_SAMPLES = 256     # log-ratio samples per tail window
_PROFILE_POINTS = 4097   # samples of f(t) = -log mu_floor(e^t) for c_bounds
_SCAN_GRID_RATIO = 1.1   # ratio of neighbouring indices on the scan grid
_SANDWICH_TOL = 0.05


# ---------------------------------------------------------------------------
# partial sums

def partial_sums(seq: EigenvalueSequence, kind: str, indices) -> PartialSumSeries:
    """S_n at the requested indices.

    NON_TRACE_CLASS sums the prefix; TRACE_CLASS sums the tail beyond n
    against the sequence's tail model (exhausted, profile integral, or fitted
    power law), recording the residual error bound.  A tail sum that has
    exhausted double precision (total - prefix <= 0) raises TailExhausted.
    """
    indices, values, err, route = _partial_sums(seq, kind, indices)
    if kind == TRACE_CLASS:
        lost = values <= 0
        if lost.any():
            first = int(indices[lost].min())
            raise TailExhausted(
                f"tail sum beyond n={first} is not positive: the tail is "
                "below the rounding of the total")
    return PartialSumSeries(kind, indices, values, tail_error=err, tail_route=route)


def _partial_sums(seq: EigenvalueSequence, kind: str, indices):
    """(indices, S_n, tail error bound, tail route) without the series'
    invariant checks: a tail that exhausts double precision before the cap
    comes back as the zero or rounding-negative difference it is."""
    indices = np.asarray(indices, dtype=np.int64)
    if indices.ndim == 0:
        indices = indices[None]
    if np.any(indices < 0) or np.any(indices > seq.cap):
        raise CapExceeded(f"indices must lie in [0, {seq.cap}]")
    if kind == NON_TRACE_CLASS:
        if np.any(indices < 1):
            raise ValueError("prefix sums need indices >= 1")
        sums = seq._prefix_sums(int(indices.max()))
        return indices, sums[indices], 0.0, None
    if kind != TRACE_CLASS:
        raise ValueError(f"unknown kind {kind!r}")
    total, err, route = seq.tail_sum(0)
    sums = seq._prefix_sums(int(indices.max()))
    return indices, total - sums[indices], err, route


# ---------------------------------------------------------------------------
# order of infinitesimal

@dataclass
class OrdEstimate(Estimate):
    method: str  # "fit" or "jump"


def _window_edges(cap: int):
    lo = max(2.0, math.sqrt(cap))
    return np.geomspace(lo, cap, _N_WINDOWS + 1)


def _ratio_samples(seq: EigenvalueSequence, n_lo: float, n_hi: float):
    t = np.linspace(np.log(n_lo), np.log(n_hi), _RATIO_SAMPLES)
    n = np.minimum(np.maximum(np.floor(np.exp(t)).astype(np.int64), 2), seq.cap)
    with np.errstate(divide="ignore"):
        r = np.log(seq.mu(n)) / np.log(1.0 / n.astype(float))
    return t, r


def _enough_entries(n: int):
    """Raise CapExceeded when n entries are too few for the tail windows."""
    if n < MIN_CAP:
        raise CapExceeded(f"{n} entries, fewer than the {MIN_CAP} "
                          "the tail windows read")


def order_of_infinitesimal(seq: EigenvalueSequence) -> OrdEstimate:
    """liminf of log mu_n / log(1/n), from tail windows.

    Sequences whose decay happens in widely separated collapses (successive
    value ratios below 0.05, reaching into the log-scale tail half) attain the
    liminf exactly at the pre-collapse indices, so those samples are used
    directly.  Otherwise the 8 window means of the log-ratio are extrapolated
    against 1/log n, which removes the O(1/log n) transient that a plain
    window minimum would report.
    """
    _enough_entries(seq.cap)
    jumps = seq._jump_positions()
    if len(jumps) >= 2 and math.log(float(jumps[-1])) >= 0.5 * math.log(seq.cap):
        use = jumps[jumps >= 3]
        if len(use) >= 2:
            n = use.astype(np.int64)
            r = np.log(seq.mu(n)) / np.log(1.0 / n.astype(float))
            return OrdEstimate(float(r.min()), float(r.min()), float(r.max()),
                               "jump")

    edges = _window_edges(seq.cap)
    means, mids = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        t, r = _ratio_samples(seq, a, b)
        means.append(float(r.mean()))
        mids.append(float(t.mean()))
    means = np.asarray(means)
    mids = np.asarray(mids)
    X = np.vstack([np.ones_like(mids), 1.0 / mids]).T
    coef, _, _, _ = np.linalg.lstsq(X, means, rcond=None)
    a_fit = float(coef[0])
    spread = float(means.max() - means.min())
    a_fit = float(np.clip(a_fit, means.min() - 2.0 * spread, means.max() + 2.0 * spread))
    lo = max(min(a_fit, float(means.min())), 1e-9)
    hi = max(a_fit, float(means.max()))
    return OrdEstimate(max(a_fit, 1e-9), lo, hi, "fit")


# ---------------------------------------------------------------------------
# slow-variation bounds of the log-profile

@dataclass
class CBounds:
    c_lower: Estimate
    c_upper: Estimate
    jump_regime: bool = False


def _recip(q: float) -> float:
    return float(np.inf) if q <= 1e-12 else 1.0 / q


def c_bounds(seq: EigenvalueSequence) -> CBounds:
    """Reciprocals of the extreme difference quotients of f at large lag.

    f(t) = -log mu_{floor(e^t)} is sampled at _PROFILE_POINTS points on the
    upper half of the reachable range, [log(cap)/2, log(cap)], which is where
    tail statistics live; the lags then span 205 to 1,638 of the grid's
    4,096 steps, whatever the cap.

    For each lag h on a geometric grid covering the upper half-decade below
    (window width)/2.5, take the sup and inf of (f(t+h) - f(t))/h over the
    window.  The sup shrinks and the inf grows as h increases, so the values
    at the largest usable lag are the min of the sup-envelope and the max of
    the inf-envelope; reciprocals give the bounds (0 and inf representable).

    Profiles dominated by a single rise (one collapse carrying >= 30% of the
    window's total growth) put their sup at the smallest lag instead: the
    growing collapses mean the inner sup diverges, and the lower bound must
    reflect the steepest observed quotient.
    """
    if seq.cap < 2:
        raise CapExceeded("c_bounds needs at least 2 entries")
    t_hi = float(np.log(seq.cap))
    ts = np.linspace(t_hi / 2.0, t_hi, _PROFILE_POINTS)
    ns = np.minimum(np.maximum(np.floor(np.exp(ts)).astype(np.int64), 1),
                    seq.cap)
    fs = -np.log(seq.mu(ns))
    dt = float(ts[1] - ts[0])
    h_max = float(ts[-1] - ts[0]) / 2.5
    k_hi = int(h_max / dt)
    k_lo = max(int(round((h_max / 8.0) / dt)), 1)
    ks = _distinct(np.round(np.geomspace(k_lo, k_hi, 16)).astype(int))

    eup = np.empty(len(ks))
    edn = np.empty(len(ks))
    for j, k in enumerate(ks):
        q = (fs[k:] - fs[:-k]) / (k * dt)
        eup[j] = q.max()
        edn[j] = q.min()

    rise = float(fs[-1] - fs[0])
    diffs = np.diff(fs)
    jumpy = rise > 0 and float(diffs.max()) >= 0.3 * rise

    if jumpy:
        q_up = float((fs[2:] - fs[:-2]).max() / (2.0 * dt))
        lower = Estimate(_recip(q_up), _recip(q_up), _recip(float(eup.min())))
    else:
        q_up = float(eup.min())
        lower = Estimate(_recip(q_up), _recip(float(eup.max())), _recip(q_up))
    q_dn = float(edn.max())
    upper = Estimate(_recip(q_dn), _recip(q_dn), _recip(float(edn.min())))
    return CBounds(c_lower=lower, c_upper=upper, jump_regime=jumpy)


# ---------------------------------------------------------------------------
# ideal membership

L1 = "L1"
L1_WEAK = "L1_WEAK"
L1_WEAK_0 = "L1_WEAK_0"
NONE = "NONE"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass
class IdealClassification:
    label: str
    in_l1: bool | None
    in_l1_weak: bool | None
    in_l1_weak_0: bool | None
    tail_exponent: float
    tail_exponent_se: float


def _log_window_slopes(seq: EigenvalueSequence):
    """Per-window least squares slope of S_n against log n."""
    sums = seq._prefix_sums(seq.cap)
    edges = _window_edges(seq.cap)
    slopes = []
    for a, b in zip(edges[:-1], edges[1:]):
        n = _distinct(np.geomspace(max(a, 2), b, 64).astype(np.int64))
        x = np.log(n.astype(float))
        y = sums[n]
        A = np.vstack([np.ones_like(x), x]).T
        coef, _, _, _ = np.linalg.lstsq(A, y, rcond=None)
        slopes.append(float(coef[1]))
    return np.asarray(slopes)


def classify_ideal(seq: EigenvalueSequence) -> IdealClassification:
    """Membership of mu in the summable / weak-summable ideals.

    The fitted tail exponent must clear the summability threshold 1 by three
    standard errors in either direction; the boundary strip is resolved by
    the growth of S_n against log n (bounded slope ratio = weak, vanishing
    slope = weak-with-null-density, anything else INCONCLUSIVE).
    """
    c, a, se = seq._fit_tail_power(1.0)
    # the fit's se only measures scatter, not the systematic curvature a
    # staircase or merge leaves in the last decade (observed ~1e-5 on data
    # whose true exponent is exactly 1, several nominal sigmas).  Exponents
    # within 1e-3 of the threshold are below the fit's real resolution and
    # must be resolved by the growth diagnostics instead
    margin = max(3.0 * se, 1e-3)
    if np.isfinite(a) and a > 1.0 + margin:
        return IdealClassification(L1, True, True, True, a, se)
    if np.isfinite(a) and a < 1.0 - margin:
        return IdealClassification(NONE, False, False, False, a, se)
    slopes = _log_window_slopes(seq)
    scale = max(abs(float(slopes.mean())), 1e-300)
    rel_spread = float(slopes.max() - slopes.min()) / scale
    if abs(slopes[0]) > 0 and abs(slopes[-1]) < 0.1 * abs(slopes[0]):
        return IdealClassification(L1_WEAK_0, False, True, True, a, se)
    if rel_spread < 0.25:
        return IdealClassification(L1_WEAK, False, True, None, a, se)
    return IdealClassification(INCONCLUSIVE, None, None, None, a, se)


def resolve_kind(seq: EigenvalueSequence) -> str:
    """TRACE_CLASS when the unit-power tail is summable, else NON_TRACE_CLASS."""
    if seq.profile is not None:
        return TRACE_CLASS if seq.profile.converges(1.0) else NON_TRACE_CLASS
    cls = classify_ideal(seq)
    return TRACE_CLASS if cls.label == L1 else NON_TRACE_CLASS


# ---------------------------------------------------------------------------
# eccentricity

@dataclass
class EccentricityScan:
    kind: str
    tolerance: float
    route: str  # "analytic" or "discrete"
    t_points: np.ndarray        # log n over the scan grid
    gaps: np.ndarray            # |S(2n)/S(n) - 1| at each grid point
    accepted_t: np.ndarray
    accepted_n: np.ndarray      # floor(e^t); inf when above float range
    inf_gap: float

    def __len__(self):
        return len(self.accepted_t)

    @property
    def nonempty(self) -> bool:
        return len(self.accepted_t) > 0


def eccentricity_scan(seq: EigenvalueSequence, kind: str,
                      tolerance: float = 0.02) -> EccentricityScan:
    """Indices n where the doubled partial-sum ratio S(2n)/S(n) sits within
    tolerance of 1.

    The scan grid is geometric with ratio _SCAN_GRID_RATIO.  Sequences
    carrying an analytic profile are scanned on the profile's sigma/s
    integrals in log space, up to one unit of log n below the profile's
    horizon, which reaches scales far beyond any materialization cap (the
    first acceptance point of slowly varying tails can sit at log n in the
    hundreds).  Raw sequences scan the discrete sums up to the cap.  Returns
    every accepted point plus the infimum ratio-gap over the scan as
    evidence when empty.
    """
    log2 = math.log(2.0)
    if seq.profile is not None:
        prof = seq.profile
        hi = prof.t_max - log2 - 1.0
        if hi <= log2:
            raise CapExceeded("profile horizon too small to scan")
        ts = np.arange(log2, hi, math.log(_SCAN_GRID_RATIO))
        knots = prof.knots[(prof.knots > log2) & (prof.knots < hi)]
        ts = _distinct(np.concatenate([ts, knots]))
        # one call on both grids looks up the piece masses once
        both = np.concatenate([ts, ts + log2])
        if kind == NON_TRACE_CLASS:
            ls = prof.log_sigma(1.0, both)
        else:
            ls, _ = prof.log_s_tail(1.0, both)
        l1, l2 = ls[:len(ts)], ls[len(ts):]
        gaps = np.abs(np.expm1(l2 - l1))
        route = "analytic"
    else:
        n_hi = int(seq.cap / 2.0)
        if n_hi < 4:
            raise CapExceeded("cap too small to scan")
        count = int(math.log(n_hi / 2.0) / math.log(_SCAN_GRID_RATIO)) + 1
        ns = _distinct(np.round(2.0 * _SCAN_GRID_RATIO ** np.arange(count)).astype(np.int64))
        ns = ns[ns <= n_hi]
        n2 = np.minimum(np.round(ns * 2.0).astype(np.int64), seq.cap)
        _, sums, _, _ = _partial_sums(seq, kind, np.concatenate([ns, n2]))
        s1, s2 = sums[:len(ns)], sums[len(ns):]
        if kind == TRACE_CLASS:
            # fast tails exhaust double precision before the cap; a 0/0
            # grid point carries no ratio evidence, so drop it
            keep = s1 > 0.0
            ns, s1, s2 = ns[keep], s1[keep], s2[keep]
        gaps = np.abs(s2 / s1 - 1.0)
        ts = np.log(ns.astype(float))
        route = "discrete"

    mask = gaps < tolerance
    acc_t = ts[mask]
    with np.errstate(over="ignore"):
        acc_n = np.floor(np.exp(acc_t))
    return EccentricityScan(kind, tolerance, route, ts, gaps, acc_t, acc_n,
                            float(gaps.min()) if len(gaps) else np.inf)


# ---------------------------------------------------------------------------
# trace estimates

@dataclass
class TraceValue(Estimate):
    ratios: np.ndarray
    measurable: bool


def singular_trace_estimate(weights, seq: EigenvalueSequence, subseq,
                            kind: str = NON_TRACE_CLASS) -> TraceValue:
    """Ratio limit S_n(weighted)/S_n(plain) along an eccentric subsequence.

    `weights` is an array aligned to enumeration order (1-based index k gets
    weights[k-1]); the weighted partial sum keeps the denominator's
    enumeration order.  The value is the mean over the tail half of the
    subsequence, the band its min/max; width below 1% of the value marks the
    limit as insensitive to the averaging choice.
    """
    subseq = _distinct(np.asarray(subseq, dtype=np.int64))
    if len(subseq) == 0:
        raise EmptySubsequence("need at least one eccentric index")
    if subseq[0] < 1 or subseq[-1] > seq.cap:
        raise CapExceeded("subsequence outside cap")
    nmax = int(subseq[-1])
    mu = seq.values[:nmax]
    w = np.asarray(weights, dtype=float)[:nmax]
    if len(w) < nmax:
        raise ValueError("weights shorter than the subsequence needs")
    wmu = w * mu
    head = np.cumsum(wmu)[subseq - 1]
    if kind == NON_TRACE_CLASS:
        num = head
        _, den, _, _ = _partial_sums(seq, kind, subseq)
    else:
        # index 0 brings back the whole tail sum, so tail_sum runs once
        _, sums, _, _ = _partial_sums(seq, kind, np.concatenate([[0], subseq]))
        total, den = sums[0], sums[1:]
        within = seq._held_sum(0, nmax, 1.0)
        # weights beyond the materialized range are extrapolated as the mean
        # over the last decade (only the residual tail sees this)
        w_tail = float(np.mean(w[-max(len(w) // 10, 1):]))
        # the pairwise np.sum, not the last partial sum
        num = (float(np.sum(wmu)) - head) + w_tail * (total - within)
    ratios = num / den
    tail = ratios[len(ratios) // 2:]
    value = float(tail.mean())
    lo, hi = float(tail.min()), float(tail.max())
    return TraceValue(value, lo, hi, ratios,
                      measurable=(hi - lo) <= 0.01 * max(abs(value), 1e-300))


@dataclass
class DixmierEstimate(Estimate):
    window_slopes: np.ndarray
    measurable: bool


def dixmier_trace_estimate(seq: EigenvalueSequence, check: bool = True) -> DixmierEstimate:
    """Tail statistics of S_n / log n for a weak-summable sequence.

    Estimated from per-window regression slopes of S_n against log n (the
    additive constant in S_n = c log n + C + o(1) biases the raw quotient by
    C/log n at any reachable cap, so the slopes converge much faster).  The
    value is the mean of the 8 tail-window slopes, the band their min/max;
    band width is the lattice-oscillation diagnostic, with width below 1%
    flagging the value as averaging-invariant.
    """
    if check:
        cls = classify_ideal(seq)
        if cls.label not in (L1_WEAK, L1_WEAK_0):
            raise NotL1Weak(f"classification at alpha=1 is {cls.label}")
    slopes = _log_window_slopes(seq)
    value = float(slopes.mean())
    lo, hi = float(slopes.min()), float(slopes.max())
    return DixmierEstimate(value, lo, hi, slopes,
                           measurable=(hi - lo) <= 0.01 * max(abs(value), 1e-300))


# ---------------------------------------------------------------------------
# assembled report

NOT_TRACEABLE_AT_1 = "NOT_TRACEABLE_AT_1"


@dataclass
class TraceabilityReport:
    ord_estimate: OrdEstimate
    c_bounds: CBounds
    dimension: Estimate
    classification: IdealClassification
    scan: EccentricityScan
    trace_value: DixmierEstimate | None
    note: str | None = None

    def sandwich_holds(self) -> bool:
        """1/ord within _SANDWICH_TOL of [c_lower, c_upper]."""
        recip = 1.0 / self.ord_estimate.value
        lo_ok = self.c_bounds.c_lower.value - _SANDWICH_TOL <= recip + 1e-12
        hi_ok = recip <= self.c_bounds.c_upper.value + _SANDWICH_TOL
        return bool(lo_ok and hi_ok)


def analyze_sequence(seq: EigenvalueSequence,
                     tolerance: float = 0.02) -> TraceabilityReport:
    """One-stop traceability diagnostics for a sequence."""
    ordest = order_of_infinitesimal(seq)
    cb = c_bounds(seq)
    cls = classify_ideal(seq)
    # resolve_kind without a profile is this same classification
    kind = resolve_kind(seq) if seq.profile is not None \
        else TRACE_CLASS if cls.label == L1 else NON_TRACE_CLASS
    scan = eccentricity_scan(seq, kind, tolerance)
    trace = None
    if cls.label in (L1_WEAK, L1_WEAK_0):
        trace = dixmier_trace_estimate(seq, check=False)
    note = None
    if cls.label == NONE and not scan.nonempty and scan.inf_gap > tolerance:
        note = NOT_TRACEABLE_AT_1
    return TraceabilityReport(
        ord_estimate=ordest,
        c_bounds=cb,
        dimension=ordest.reciprocal(),
        classification=cls,
        scan=scan,
        trace_value=trace,
        note=note,
    )
