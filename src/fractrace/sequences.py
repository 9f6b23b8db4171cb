"""Eigenvalue sequences, their log-profiles, and partial-sum series.

The central object is a nonincreasing positive sequence mu_1 >= mu_2 >= ...
that vanishes at infinity, held as its values up to a cap.  Sequences built
from closed-form families additionally carry a piecewise-linear profile of

    f(t) = -log mu(e^t),    mu(x) piecewise constant between integer indices,

which lets integral diagnostics reach scales far beyond anything that can be
materialized (f values of several hundred correspond to mu below the float64
underflow threshold).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceeded, NotVanishing, TailUnfittable, Underflow

DEFAULT_CAP = 10**6

NON_TRACE_CLASS = "NON_TRACE_CLASS"
TRACE_CLASS = "TRACE_CLASS"

_TINY_RATE = 1e-12
_JUMP_RATIO = 0.05  # mu_{n+1}/mu_n below this counts as a jump
_SLICE = 1 << 16    # entries per slice of the validation pass


@dataclass
class Estimate:
    """A measured number with the interval [lo, hi] that should hold it."""

    value: float
    lo: float
    hi: float

    def reciprocal(self) -> Estimate:
        """1 / value, the interval ends swapped as 1/x reverses order."""
        return Estimate(1.0 / self.value, 1.0 / self.hi, 1.0 / self.lo)


def _distinct(values) -> np.ndarray:
    """The sorted distinct values of an array, as np.unique gives them.

    np.unique asks numpy.ma whether its input is masked, and importing
    numpy.ma costs a fresh process 10-15 ms on a 2-vCPU machine, so this
    sorts and compares neighbours instead.
    """
    v = np.sort(values, axis=None)
    keep = np.ones(v.size, dtype=bool)
    keep[1:] = v[1:] != v[:-1]
    return v[keep]


def _log_abs_expm1(z):
    """log |e^z - 1|, stable for large positive and large negative z."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    big = z > 33.0
    neg = z < -33.0
    mid = ~(big | neg)
    out[big] = z[big]
    out[neg] = 0.0
    with np.errstate(divide="ignore"):
        out[mid] = np.log(np.abs(np.expm1(z[mid])))
    return out


def _log_exp_integral(g, r, dt):
    """log of integral_0^dt exp(g + r u) du, elementwise.

    Rates below _TINY_RATE in size integrate as constants, g + log dt, and so
    do pieces whose r * dt is subnormal, where it has lost bits and e^(r u)
    is 1 to the last bit anyway.
    """
    flat = (np.abs(r) < _TINY_RATE) | (np.abs(r * dt) < np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g + _log_abs_expm1(r * dt) - np.log(np.abs(np.where(flat, 1.0, r)))
        if flat.any():
            out = np.where(flat, g + np.log(dt), out)
    return out


class LogLinearProfile:
    """Piecewise-linear f(t) = -log mu(e^t) on [knots[0], knots[-1]].

    Pieces are left-open: f on (knots[i], knots[i+1]] is
    f_left[i] + slopes[i] * (t - knots[i]), so staircase profiles (constant
    pieces with jumps at knots) evaluate to the value of the block an index
    belongs to.  Queries beyond the last knot raise CapExceeded; generators
    choose the horizon.
    """

    __slots__ = ("knots", "f_left", "slopes")

    def __init__(self, knots, f_left, slopes):
        knots = np.asarray(knots, dtype=float)
        f_left = np.asarray(f_left, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if knots.ndim != 1 or len(knots) < 2:
            raise ValueError("profile needs at least two knots")
        if len(f_left) != len(knots) - 1 or len(slopes) != len(knots) - 1:
            raise ValueError("f_left and slopes must have one entry per piece")
        if np.any(np.diff(knots) <= 0):
            raise ValueError("knots must be strictly increasing")
        self.knots = knots
        self.f_left = f_left
        self.slopes = slopes

    @property
    def t_max(self) -> float:
        return float(self.knots[-1])

    def _piece_of(self, t):
        t = np.asarray(t, dtype=float)
        slack = 1e-12 * (abs(self.t_max) + 1.0)
        if np.any(t < self.knots[0] - 1e-12) or np.any(t > self.t_max + slack):
            raise CapExceeded(
                f"profile query outside [{self.knots[0]}, {self.t_max}]"
            )
        i = np.searchsorted(self.knots, t, side="left") - 1
        return np.clip(i, 0, len(self.slopes) - 1)

    def f(self, t):
        t = np.asarray(t, dtype=float)
        return self._f_on(self._piece_of(t), t)

    def _f_on(self, i, t):
        """f at t, given the pieces i that hold t."""
        return self.f_left[i] + self.slopes[i] * (t - self.knots[i])

    def scaled(self, alpha: float) -> "LogLinearProfile":
        """Profile of mu^alpha, i.e. alpha * f."""
        return LogLinearProfile(self.knots, alpha * self.f_left, alpha * self.slopes)

    # -- integrals of mu(y)^gamma in log space ------------------------------
    #
    # With y = e^t:  integral mu(y)^gamma dy = integral exp(t - gamma f(t)) dt.
    # On a piece of slope s starting at (t0, f0) the exponent is linear with
    # rate r = 1 - gamma s, so each piece integrates in closed form; sums of
    # pieces are accumulated with logaddexp to survive exponents of +-1000.

    def _piece_log_masses(self, gamma: float):
        """(log mass, rate r, exponent g0 at the left knot) of every piece."""
        r = 1.0 - gamma * self.slopes
        g0 = self.knots[:-1] - gamma * self.f_left
        return _log_exp_integral(g0, r, np.diff(self.knots)), r, g0

    def log_sigma(self, gamma: float, tq):
        """log of integral_{knots[0]}^{tq} mu(e^t)^gamma e^t dt, vectorized in tq."""
        lm, r, g0 = self._piece_log_masses(gamma)
        prefix = np.logaddexp.accumulate(lm)
        tq = np.asarray(tq, dtype=float)
        i = self._piece_of(tq)
        # the integral over (knots[i], tq] of the piece containing tq
        lp = _log_exp_integral(g0[i], r[i], tq - self.knots[i])
        full = np.where(i > 0, prefix[np.maximum(i - 1, 0)], -np.inf)
        return np.logaddexp(full, lp)

    def log_s_tail(self, gamma: float, tq):
        """log of integral_{tq}^{t_max}, plus a log remainder bound past t_max.

        The remainder bound extrapolates the trailing piece masses
        geometrically; it is only meaningful (and only returned finite) when
        those masses decrease, i.e. when the integral converges within the
        generated horizon.
        """
        lm, r, _ = self._piece_log_masses(gamma)
        suffix = np.logaddexp.accumulate(lm[::-1])[::-1]
        tq = np.asarray(tq, dtype=float)
        i = self._piece_of(tq)
        # the integral over (tq, knots[i + 1]] of the piece containing tq
        lp = _log_exp_integral(tq - gamma * self._f_on(i, tq), r[i],
                               self.knots[i + 1] - tq)
        rest = np.where(
            i + 1 < len(lm),
            suffix[np.minimum(i + 1, len(lm) - 1)],
            -np.inf,
        )
        value = np.logaddexp(lp, rest)

        if len(lm) >= 3 and lm[-1] < lm[-2]:
            rho = float(np.exp(lm[-1] - lm[-2]))
            if rho == 0.0:
                # the ratio underflowed; rho / (1 - rho) is rho to the last bit
                rem = 2 * lm[-1] - lm[-2]
            else:
                rem = lm[-1] + np.log(rho / (1.0 - rho)) if rho < 1.0 else np.inf
        else:
            rem = np.inf
        return value, float(rem)

    def converges(self, gamma: float) -> bool:
        """True when the gamma-integral has a summable tail within the horizon."""
        lm, _, _ = self._piece_log_masses(gamma)
        k = min(len(lm), 5)
        tail = lm[-k:]
        return bool(np.all(np.diff(tail) < 0) and (tail[-1] - tail[0]) < -1.0)


def _scan_values(vals, rtol=None, atol=0.0):
    """Jump positions of vals: the 1-based indices n with
    mu_{n+1}/mu_n < _JUMP_RATIO.

    With rtol given, the same pass checks the values, raising ValueError
    where the whole-array tests `vals <= 0` or
    `np.diff(vals) > rtol * vals[:-1] + atol` would, positivity first, and
    naming the first n with mu_{n+1} above mu_n.  The elementwise
    expressions run on slices of _SLICE entries, each reaching one entry
    into the next, so their temporaries stay in cache.
    """
    jumps = [np.zeros(0, dtype=np.intp)]
    rise = None
    for lo in range(0, len(vals), _SLICE):
        v = vals[lo:lo + _SLICE + 1]
        a, b = v[:-1], v[1:]
        if rtol is not None:
            if (v <= 0).any():
                raise ValueError("eigenvalues must be positive")
            up = np.flatnonzero(b - a > rtol * a + atol)
            rise = rise or (lo + int(up[0]) + 1 if up.size else None)
            if rise:
                continue
        jumps.append(np.flatnonzero(b / a < _JUMP_RATIO) + (lo + 1))
    if rise:
        raise ValueError(
            f"eigenvalues must be nonincreasing; they rise at index {rise}")
    return np.concatenate(jumps)


class EigenvalueSequence:
    """Nonincreasing positive sequence mu_1 >= ... >= mu_cap, held as one
    validated float64 array, ``values``; ``cap`` is its length.

    Construct via from_values, from_function, or from_profile.  Values are
    1-indexed.  A function or profile is evaluated once, on 1..cap, when the
    sequence is made.  The sequence is ``complete`` when its values are the
    whole sequence (tails past them are exactly zero) or not (tails are
    fitted); power() keeps the flag and scales the profile.

    The values of each constructor are validated in one blocked pass over
    cache-sized slices, which checks positivity and monotonicity and also
    finds the jump positions (successive ratios below _JUMP_RATIO); a
    sequence that never decreases at all trips the vanishing check.  Powers
    find their jumps on first use, without the checks; they only check that
    their last, smallest value is positive.  The jump positions
    and the prefix sums [0, S_1, ..., S_cap] are cached with the values, so
    every diagnostic reads one array.
    """

    def __init__(self, values, jumps, *, complete: bool,
                 profile: LogLinearProfile | None):
        self.values = values
        self.cap = len(values)
        self.complete = complete
        self.profile = profile
        self._jumps = jumps  # None until first use for powers
        self._sums = None    # [0, S_1, ..., S_cap]

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_values(values, complete: bool = True) -> "EigenvalueSequence":
        values = np.asarray(values, dtype=float)
        if values.ndim != 1 or len(values) == 0:
            raise ValueError("values must be a nonempty 1d array")
        jumps = _scan_values(values, rtol=0.0)
        if values[0] == values[-1] and len(values) > 1:
            raise NotVanishing("sequence is constant over its whole range")
        return EigenvalueSequence(values, jumps, complete=complete,
                                  profile=None)

    @staticmethod
    def from_function(mu_fn, cap=DEFAULT_CAP) -> "EigenvalueSequence":
        return _evaluated(mu_fn, cap, None)

    @staticmethod
    def from_profile(profile: LogLinearProfile,
                     cap=DEFAULT_CAP) -> "EigenvalueSequence":
        """exp(-f(log n)) on 1..cap."""
        return _evaluated(lambda n: np.exp(-profile.f(np.log(n))), cap,
                          profile)

    # -- access --------------------------------------------------------------

    def mu(self, n):
        """Values at 1-based indices n (array-like), inside the cap."""
        n = np.asarray(n)
        if np.any(n < 1) or np.any(n > self.cap):
            raise CapExceeded(f"indices must lie in [1, {self.cap}]")
        return np.asarray(self.values[n.astype(np.int64) - 1])

    def _prefix_sums(self, n: int):
        """[0, S_1, ..., S_n], a view of the sums cached with the values."""
        if self._sums is None:
            sums = np.empty(self.cap + 1)
            sums[0] = 0.0
            np.cumsum(self.values, out=sums[1:])
            self._sums = sums
        return self._sums[:n + 1]

    def _jump_positions(self):
        """1-based indices n <= cap with mu_{n+1}/mu_n below _JUMP_RATIO."""
        if self._jumps is None:
            # powers take their values without a pass
            self._jumps = _scan_values(self.values)
        return self._jumps

    def power(self, alpha: float) -> "EigenvalueSequence":
        """Sequence of mu_n^alpha, with the same ``complete`` flag and the
        profile scaled.  Raises Underflow when mu_cap^alpha rounds to 0:
        powers keep the order, so the last value is the smallest."""
        if alpha <= 0:
            raise ValueError("alpha must be positive")
        values = self.values ** alpha
        if values[-1] == 0.0:
            raise Underflow(f"mu_n^{alpha:g} rounds to 0 at n = {self.cap} "
                            f"(mu_n = {self.values[-1]:.6g})")
        return EigenvalueSequence(
            values, None, complete=self.complete,
            profile=self.profile.scaled(alpha) if self.profile is not None else None,
        )

    # -- tail models ----------------------------------------------------------

    def tail_sum(self, n: int, gamma: float = 1.0):
        """(sum_{k>n} mu_k^gamma, error bound, route name).

        Routes, in preference order: exhausted complete values (exact),
        analytic profile integral (error <= mu_n^gamma per the
        integral-vs-sum comparison, exact for staircase profiles), power-law
        tail fitted on the last decade of the cap.
        """
        n = int(n)
        if self.complete:
            return self._held_sum(n, self.cap, gamma), 0.0, "exhausted"

        if self.profile is not None:
            # log 0 lies outside the profile: the whole sum (n = 0) is mu_1
            # plus the tail beyond n = 1, with the n = 1 error bound
            t = np.log(float(max(n, 1)))
            if self.profile.t_max < t:
                raise CapExceeded("profile horizon below requested index")
            val, rem = self.profile.log_s_tail(gamma, np.array([t]))
            if not np.isfinite(rem):
                raise TailUnfittable("profile tail not summable within horizon")
            total = float(np.exp(val[0]))
            mu_n = float(np.exp(-gamma * self.profile.f(np.array([t]))[0]))
            if n == 0:
                total += mu_n
            # integral vs sum mismatch is at most one term
            return total, mu_n + float(np.exp(rem)), "profile"

        c, a, se = self._fit_tail_power(gamma)
        if not np.isfinite(a) or a <= 1.0 + 3.0 * se:
            raise TailUnfittable(
                "tail exponent does not clear summability by 3 standard errors"
            )
        beyond = c * self.cap ** (1.0 - a) / (a - 1.0)
        lo_a, hi_a = a - 3.0 * se, a + 3.0 * se
        spread = abs(c * self.cap ** (1.0 - lo_a) / (lo_a - 1.0) - beyond) if lo_a > 1 else beyond
        if n > self.cap:
            raise CapExceeded("tail request beyond cap")
        within = self._held_sum(n, self.cap, gamma)
        return within + beyond, spread + abs(beyond) * 1e-3, "power_fit"

    def _held_sum(self, lo: int, hi: int, gamma: float) -> float:
        """sum of mu_k^gamma over the held k in (lo, hi], raising only those.

        Every unweighted sum of held powers goes through here, so each adds
        the same elements in the same order."""
        held = self.values[lo:hi]
        return float((held if gamma == 1.0 else held ** gamma).sum())

    def _fit_tail_power(self, gamma: float):
        """Least squares of log mu^gamma against log n over the last decade."""
        n_hi = self.cap
        n_lo = max(2, n_hi // 10)
        idx = _distinct(np.geomspace(n_lo, n_hi, 64).astype(np.int64))
        y = gamma * np.log(self.mu(idx))
        x = np.log(idx.astype(float))
        A = np.vstack([np.ones_like(x), -x]).T
        coef, res, _, _ = np.linalg.lstsq(A, y, rcond=None)
        logc, a = coef
        dof = max(len(x) - 2, 1)
        rms = float(np.sqrt(res[0] / dof)) if len(res) else 0.0
        xvar = float(np.sum((x - x.mean()) ** 2))
        se = rms / np.sqrt(xvar) if xvar > 0 else np.inf
        return float(np.exp(logc)), float(a), float(se)


def _evaluated(mu_fn, cap, profile) -> EigenvalueSequence:
    """The sequence of mu_fn on 1..cap.  Raises Underflow when the value at
    n = cap, the smallest, rounds to 0.  The values pass the tolerant check,
    which lets rises of rounding size (1e-15 relative) through."""
    if cap < 1:
        raise ValueError("values must be a nonempty 1d array")
    vals = np.asarray(mu_fn(np.arange(1, int(cap) + 1, dtype=np.int64)),
                      dtype=float)
    if vals[-1] == 0.0:
        raise Underflow(f"mu_n rounds to 0 at n = {int(cap)}")
    jumps = _scan_values(vals, rtol=1e-15, atol=1e-300)
    if len(vals) > 1 and vals[0] == vals[-1]:
        raise NotVanishing("sequence constant up to the cap")
    return EigenvalueSequence(vals, jumps, complete=False, profile=profile)


@dataclass
class PartialSumSeries:
    """S_n sampled at chosen indices.

    kind NON_TRACE_CLASS: S_n = sum_{k<=n} mu_k (strictly increasing).
    kind TRACE_CLASS:     S_n = sum_{k>n} mu_k (strictly decreasing, positive),
    computed against a tail model; the residual error bound and the route that
    produced it are recorded.
    """

    kind: str
    indices: np.ndarray
    values: np.ndarray
    tail_error: float = 0.0
    tail_route: str | None = None

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.values = np.asarray(self.values, dtype=float)
        if self.kind not in (NON_TRACE_CLASS, TRACE_CLASS):
            raise ValueError(f"unknown kind {self.kind!r}")
        # increments below one float ulp of S_n collapse to equality; only a
        # move in the wrong direction is an invariant violation
        d = np.diff(self.values[np.argsort(self.indices)])
        if self.kind == NON_TRACE_CLASS and np.any(d < 0):
            raise ValueError("prefix sums must be nondecreasing in n")
        if self.kind == TRACE_CLASS:
            if np.any(self.values <= 0):
                raise ValueError("tail sums must be positive")
            if np.any(d > 0):
                raise ValueError("tail sums must be nonincreasing in n")
