"""Closed-form operator families with prescribed traceability behavior.

Two families are provided.  The two-slope family alternates the decay
exponent of mu_n between alpha and beta on runs whose lengths are controlled
by a nondecreasing gap sequence a_n; constant gaps average the two slopes,
growing gaps keep both extremes visible forever.  The step family freezes
mu on blocks that stretch so fast that the value collapses by an unbounded
factor at each block end, which makes every positive power behave the same
way.

Both families are realized as analytic log-profiles (piecewise-linear
f(t) = -log mu(e^t)), so integral diagnostics can be evaluated at scales far
beyond the materialization cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, SpecNotDiverging, Underflow
from .sequences import (
    DEFAULT_CAP,
    EigenvalueSequence,
    LogLinearProfile,
)

DEFAULT_HORIZON = 2600.0

CONSTANT = "constant"
LINEAR = "linear"


@dataclass
class TwoSlopeSpec:
    """Alternating-slope profile: slope alpha on [b_{2k}, b_{2k+1}), beta on
    [b_{2k+1}, b_{2k+2}), with b_n the partial sums of the gap sequence a_n.

    gaps: (CONSTANT, a) for a_n = a > 0, or (LINEAR,) for a_n = n.  Requires
    0 < beta <= alpha.
    """

    alpha: float
    beta: float
    gaps: tuple

    def __post_init__(self):
        if not (0 < self.beta <= self.alpha):
            raise ValueError("need 0 < beta <= alpha")
        kind = self.gaps[0]
        if kind == CONSTANT:
            if len(self.gaps) != 2 or self.gaps[1] <= 0:
                raise ValueError("CONSTANT gaps need a positive value")
        elif kind != LINEAR:
            raise ValueError(f"unknown gaps kind {kind!r}")

    def gap_values(self, t_horizon: float):
        """a_1, a_2, ... until the partial sums pass t_horizon."""
        if self.gaps[0] == CONSTANT:
            a = float(self.gaps[1])
            m = int(t_horizon / a) + 2
            return np.full(m, a)
        # LINEAR: b_n = n(n+1)/2
        m = int(math.sqrt(2.0 * t_horizon)) + 3
        return np.arange(1, m + 1, dtype=float)


def two_slope_profile(spec: TwoSlopeSpec, t_horizon: float = DEFAULT_HORIZON) -> LogLinearProfile:
    a = spec.gap_values(t_horizon)
    b = np.concatenate([[0.0], np.cumsum(a)])
    slopes = np.where(np.arange(len(a)) % 2 == 0, spec.alpha, spec.beta)
    f_knots = np.concatenate([[0.0], np.cumsum(slopes * a)])
    return LogLinearProfile(b, f_knots[:-1], slopes)


def two_slope_sequence(spec: TwoSlopeSpec, cap: int = DEFAULT_CAP) -> EigenvalueSequence:
    """mu_n = exp(-f(log n)) for the alternating-slope profile, generated to
    a horizon of DEFAULT_HORIZON or log(cap) + 2, whichever is larger."""
    prof = two_slope_profile(spec, max(DEFAULT_HORIZON, math.log(cap) + 2.0))
    return EigenvalueSequence.from_profile(prof, cap=cap)


@dataclass
class StepSpec:
    """Block profile mu(x) = 1/x_k on (x_{k-1}, x_k] with x_k = round(e^{b_k})
    and b_k = k^q, q > 1.

    Block spacings b_{k+1} - b_k must grow, otherwise the collapse ratios
    stop vanishing and the construction loses its point; the snapping of
    small b_k to integer block ends can undo that growth for q near 1.
    """

    q: float

    def __post_init__(self):
        if self.q <= 1:
            raise SpecNotDiverging("preset exponent must exceed 1")

    def b_array(self, t_horizon: float):
        """Block edges b_0 = 0, b_1, ..., b_m, the last past t_horizon.  For
        large q, k^q overflows to inf: a block whose value e^(-b_k) is 0."""
        m = int(t_horizon ** (1.0 / self.q)) + 2
        with np.errstate(over="ignore"):
            b = np.arange(0, m + 1, dtype=float) ** self.q
        # snap to integer block ends while e^b is exactly representable; the
        # perturbation beyond that range would be below e^{-36} relative
        exact = b <= 36.0
        b[exact] = np.log(np.round(np.exp(b[exact])))
        b[0] = 0.0
        with np.errstate(invalid="ignore"):  # inf - inf past an overflow
            d = np.diff(b)
            if len(d) >= 2 and np.any(np.diff(d) <= 1e-12):
                raise SpecNotDiverging("block spacings b_{n+1} - b_n must grow")
        return b


def step_profile(spec: StepSpec, t_horizon: float = DEFAULT_HORIZON) -> LogLinearProfile:
    b = spec.b_array(t_horizon)
    # piece (b_{k-1}, b_k] carries the constant value b_k
    return LogLinearProfile(b, b[1:], np.zeros(len(b) - 1))


def step_sequence(spec: StepSpec, cap: int = DEFAULT_CAP) -> EigenvalueSequence:
    """Piecewise-constant sequence with unboundedly growing collapse factors,
    generated to the horizon two_slope_sequence uses.  Raises Underflow when
    the value e^(-b_k) of the block holding n = cap rounds to 0."""
    t_horizon = max(DEFAULT_HORIZON, math.log(cap) + 2.0)
    b = spec.b_array(t_horizon)
    b_cap = float(b[np.searchsorted(b, math.log(cap))])
    if math.exp(-b_cap) == 0.0:
        raise Underflow(f"the block value e^-{b_cap:.6g} at n = {cap} "
                        "rounds to 0")
    return EigenvalueSequence.from_profile(step_profile(spec, t_horizon),
                                           cap=cap)


def step_block_ends(spec: StepSpec, cap: int) -> np.ndarray:
    """The integer block ends x_k that fit under the cap."""
    b = spec.b_array(max(math.log(cap) + 2.0, 40.0))
    x = np.round(np.exp(b[(b > 0) & (b <= min(36.0, math.log(cap) + 1e-9))]))
    return x[x <= cap].astype(np.int64)


# ---------------------------------------------------------------------------
# integral ratio diagnostics

def _staircase_sigma(seq: EigenvalueSequence, gamma: float, x: float) -> float:
    """integral_1^x mu(y)^gamma dy with mu(y) frozen between integer indices."""
    if x > seq.cap:
        raise CapExceeded("x beyond cap; no analytic profile available")
    if x < 1.0:
        raise ValueError("x must be >= 1")
    n = int(math.floor(x))
    # the full steps [k, k + 1) for k < n, then [n, x] at mu_n^gamma
    return (seq._held_sum(0, n - 1, gamma)
            + (x - n) * seq._held_sum(n - 1, n, gamma))


def sigma_ratio(seq: EigenvalueSequence, gamma: float, x: float, lam: float = 2.0) -> float:
    """sigma(lam x)/sigma(x) for sigma(x) = integral_1^x mu(y)^gamma dy.

    Profile-backed sequences evaluate the per-piece closed forms in log space
    (pieces whose exponent rate vanishes fall back to the logarithmic
    antiderivative); raw sequences integrate the frozen staircase directly,
    which requires lam*x within the cap.
    """
    if lam <= 1.0:
        raise ValueError("lam must exceed 1")
    if seq.profile is not None:
        t = np.log(np.array([x, lam * x]))
        ls = seq.profile.log_sigma(gamma, t)
        return float(np.exp(ls[1] - ls[0]))
    return _staircase_sigma(seq, gamma, lam * x) / _staircase_sigma(seq, gamma, x)


def s_ratio(seq: EigenvalueSequence, gamma: float, x: float, lam: float = 2.0) -> float:
    """s(x/lam)/s(x) for the tail integral s(x) = integral_x^inf mu(y)^gamma dy."""
    if lam <= 1.0:
        raise ValueError("lam must exceed 1")
    if seq.profile is not None:
        t = np.log(np.array([x / lam, x]))
        ls, rem = seq.profile.log_s_tail(gamma, t)
        if rem > ls[1] - 16.0:  # remainder must be negligible at the smaller tail
            raise CapExceeded("profile horizon too small for this tail ratio")
        return float(np.exp(ls[0] - ls[1]))
    lo = seq.power(gamma) if gamma != 1.0 else seq

    def s_at(xx: float) -> float:
        n = int(math.floor(xx))
        tail, _, _ = lo.tail_sum(n)
        if n < 1:
            return tail
        return tail + (n + 1 - xx) * float(lo.values[min(n, lo.cap) - 1])

    return s_at(x / lam) / s_at(x)
