"""Eigenvalue models of Dirac operators built over fractal sets.

Two constructions feed one analysis pipeline.  The gap model lives on the
line: the characteristic values of the inverse operator are the lengths of
the complementary intervals of a compact set, each entered twice, tagged by
the gap endpoints.  The pair model lives over an iterated system in any
dimension: every finite word contributes the distance between the images of
a fixed seed pair, again twice, tagged by the two image points.  A model
stores its values one per entry and its tags one per gap or word.  Functions
act through their values at the tags, which is all the downstream trace
machinery ever reads.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

import numpy as np

from .errors import (EmptySubsequence, Overflow, SBelowDimension,
                     SeedCoincident, Underflow)
from .sequences import EigenvalueSequence, Estimate, _distinct
from .asymptotics import (
    DixmierEstimate,
    OrdEstimate,
    _enough_entries,
    dixmier_trace_estimate,
    eccentricity_scan,
    order_of_infinitesimal,
    resolve_kind,
    singular_trace_estimate,
)
from .fractal_geometry import (
    GapList,
    LimitIfs,
    MinkowskiContent,
    minkowski_content_estimate,
    similarity_dimension,
)

# enumeration budget counts eigen-entries (two per gap or word), not depth;
# depth is not comparable across systems with unequal ratios
DEFAULT_ENTRY_CAP = 2 * 10**6

# log-ratios within this of a rational multiple of each other are lattice
_LATTICE_TOL = 1e-9

# adaptive eccentricity threshold never relaxes past this: at the critical
# exponent the ratio gap closes like 1/log n (slowly but surely), while a
# wrong exponent parks it at |2^(1 - a/d) - 1|, which for |a - d| worth
# caring about sits above 0.1 at any cap
_ADAPTIVE_GAP_CEILING = 0.1

_RESIDUE_DELTAS = np.geomspace(1e-3, 1e-1, 16)


# ---------------------------------------------------------------------------
# models


@dataclass
class TripleModel:
    """Inverse-Dirac eigenvalue data of a two-point spectral triple.

    Every value of |D|^-1 comes twice, once per point of the two-point space
    its operator block acts on, so ``values`` has one row per entry and
    ``tags_x``/``tags_y`` hold those two points one row per block: 1-D for
    gap models, (words, dim) for pair models.  ``tag_matrix()`` gives the
    tags one row per entry.  ``truncated`` records whether entries exist
    beyond the ones held, controlling how zeta tails close.  ``period``,
    of a pair model's ``ifs`` or a gap model's ``gaps.ifs``, gives the
    exact dimension, closed-form zeta and residue.
    """

    values: np.ndarray
    tags_x: np.ndarray
    tags_y: np.ndarray
    truncated: bool

    def __len__(self) -> int:
        return len(self.values)

    @property
    def period(self) -> tuple:
        """One period's level ratios; () with no system that repeats."""
        return getattr(_system(self), "period", ())

    @property
    def dim(self) -> int:
        return 1 if self.tags_x.ndim == 1 else self.tags_x.shape[1]

    @cached_property
    def eigen(self) -> EigenvalueSequence:
        return EigenvalueSequence.from_values(self.values, complete=not self.truncated)

    def tag_matrix(self, n: int | None = None):
        """Tags of the first n entries (all when None) as two (n, dim)
        arrays, one row per entry: each block's row twice."""
        blocks = None if n is None else (n + 1) // 2

        def rows(tags):
            out = np.repeat(tags[:blocks], 2, axis=0)[:n]
            return out.reshape(len(out), self.dim)

        return rows(self.tags_x), rows(self.tags_y)


@dataclass(kw_only=True)
class GapTripleModel(TripleModel):
    """Gap model: each gap (a_n, b_n) of a one-dimensional gap list gives
    the value b_n - a_n, tagged by its endpoints; ``tags_x``/``tags_y`` are
    views of the first gaps of ``gaps``."""

    gaps: GapList


def gap_triple(gaps: GapList) -> GapTripleModel:
    """Model whose eigenvalue list is the gap lengths, each entered twice.

    The gap list arrives sorted by nonincreasing length, so duplication
    preserves the order; equal lengths keep their position order.  Entries
    at or below the list's completeness cutoff are dropped: down there the
    sorted list interleaves with gaps the enumeration has not opened yet,
    and a model must be an exact initial segment of the true sequence or
    every tail statistic downstream is biased.  The gaps kept are a prefix
    of the list, found by bisection, so the model allocates its values and
    nothing else.  A gap whose ends round to one float has lost its length,
    while its copies nearer 0 may keep theirs, so such a list is refused.
    """
    n_gaps = gaps.starts.size
    if n_gaps == 0:
        raise ValueError("gap list has no gaps to build a model from")
    # sorted by length, a gap of length 0 comes last
    if gaps.ends[-1] == gaps.starts[-1]:
        raise Underflow(f"a gap near {gaps.starts[-1]:.6g} rounds to length "
                        "0: the enumeration is deeper than float resolves")
    cutoff = gaps.completeness_cutoff
    k = bisect.bisect_left(
        range(n_gaps), True, key=lambda i: gaps.ends[i] - gaps.starts[i] <= cutoff)
    if k == 0:
        raise ValueError(
            "no gap clears the completeness cutoff; deepen the enumeration")
    values = np.empty(2 * k)
    np.subtract(gaps.ends[:k], gaps.starts[:k], out=values[::2])
    values[1::2] = values[::2]
    truncated = bool((not gaps.residual_solid) and gaps.residual_starts.size > 0)
    return GapTripleModel(
        gaps=gaps,
        values=values,
        tags_x=gaps.starts[:k],
        tags_y=gaps.ends[:k],
        truncated=truncated or k < n_gaps,
    )


@dataclass(kw_only=True)
class PairTripleModel(TripleModel):
    """Word-indexed two-point model over an iterated system.

    Each word sigma gives the value d(x_sigma, y_sigma), with x_sigma,
    y_sigma the images of the seed pair, which are its tags; ``depths``
    holds each word's length, one row per word, in the narrowest unsigned
    type that holds the deepest level the walk kept a word at.
    """

    ifs: LimitIfs
    seed_x: np.ndarray
    seed_y: np.ndarray
    seed_distance: float
    depths: np.ndarray


def _system(model) -> LimitIfs | None:  # None for a finite union's gaps
    return model.gaps.ifs if isinstance(model, GapTripleModel) else model.ifs


# ---------------------------------------------------------------------------
# pair enumeration


def _seed_pair(ifs: LimitIfs, seed):
    level1 = ifs.level(1)
    dim = level1[0].dim
    if seed is None:
        if len(level1) < 2:
            raise ValueError(
                "default seed needs two maps at the first level; pass seed explicitly")
        x, y = level1[0].fixed_point(), level1[1].fixed_point()
    else:
        x, y = (np.asarray(p, dtype=float).reshape(-1) for p in seed)
        if x.size != dim or y.size != dim:
            raise ValueError(f"seed points must have dimension {dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        d0 = float(np.linalg.norm(x - y))
    if not math.isfinite(d0):
        raise ValueError("seed points are too far apart: their distance "
                         "overflows")
    if d0 == 0.0:
        raise SeedCoincident("seed points coincide")
    if ifs.osc_box is not None:
        lo, hi = ifs.osc_box
        slack = 1e-12 * float(np.max(hi - lo))
        for p in (x, y):
            if np.any(p < lo - slack) or np.any(p > hi + slack):
                raise ValueError("seed point outside the declared bounding box")
    return x, y, d0


def pair_triple(ifs: LimitIfs, seed=None, cap: int = DEFAULT_ENTRY_CAP,
                max_depth: int | None = None) -> PairTripleModel:
    """Enumerate the two-point model in nonincreasing eigenvalue order.

    Words are drawn level by level from ``ifs``; the entry for a word is the
    seed distance scaled by the word's ratio product, exact for similarities.
    Every child contracts strictly below its parent, so the tree is walked
    once, each level read once: a word is dropped, with all of its subtree,
    when its entry rounds to 0 or when ``cap`` / 2 words already kept have
    strictly larger products.  A kept word composes its map from its
    parent's and stores its two tags.  The kept words are then sorted and
    cut at ``cap`` / 2.  Equal products go by parent rank, then map index,
    first-level words first.  ``cap`` counts eigen-entries (two per word);
    ``max_depth`` optionally stops the tree at a word length, with 0 giving
    the empty model.  The default seed is the fixed-point pair of the first
    two maps of level 1.
    """
    x, y, d0 = _seed_pair(ifs, seed)

    ceiling = ifs.max_depth
    if max_depth is not None:
        if max_depth < 0:
            raise ValueError("max_depth must be nonnegative")
        ceiling = max_depth if ceiling is None else min(max_depth, ceiling)
    n_words = 0 if ceiling == 0 else int(cap) // 2

    # a lower bound on the n_words-th largest product kept: a word below it
    # has n_words kept words ahead of it, and so has its subtree.  It is taken
    # once n_words words are kept and again after each n_words more, not at
    # every level, which is quadratic on a chain of one word per level.  With
    # no words to keep it is +inf
    floor, limit = (0.0, n_words) if n_words else (math.inf, 0)
    # per kept word: product, row of its parent (-1 on level 1), map index,
    # depth and tags.  Map index and depth take the narrowest unsigned type
    # that holds them, and chunks of different widths promote when joined.
    # The level being expanded also keeps its composed maps; level 1 hangs
    # off a root of product 1
    rows = {k: [] for k in ("lam", "parent", "child", "depth", "tags_x", "tags_y")}
    lam_up, start, n_rows, depth, dropped = np.ones(1), -1, 0, 1, False
    while True:
        level = ifs.level(depth)
        lam = (lam_up[:, None] * np.array([w.ratio for w in level])).ravel()
        keep = np.flatnonzero((lam * d0 > 0) & (lam >= floor))
        if n_rows + keep.size > limit:
            kept = np.concatenate(rows["lam"] + [lam[keep]])
            floor = np.partition(kept, kept.size - n_words)[kept.size - n_words]
            limit = kept.size + n_words
            keep = keep[lam[keep] >= floor]
        dropped = dropped or keep.size < lam.size
        # rows of one depth in stream order, which is by product, then by
        # position in the frontier: parent row, then map index
        keep = keep[np.argsort(-lam[keep], kind="stable")]
        lam_up = lam[keep]
        up, child = np.divmod(keep, len(level))
        child = child.astype(np.min_scalar_type(len(level) - 1))
        lin = np.empty((keep.size, ifs.dim, ifs.dim))
        off = np.empty((keep.size, ifs.dim))
        for j, w in enumerate(level):
            r = child == j
            if depth == 1:
                lin[r], off[r] = w.linear, w.translation
            else:
                u = up[r]
                lin[r], off[r] = lin_up[u] @ w.linear, lin_up[u] @ w.translation + off_up[u]
        lin_up, off_up = lin, off
        for k, v in (("lam", lam_up), ("parent", up + start), ("child", child),
                     ("depth", np.full(keep.size, depth,
                                       dtype=np.min_scalar_type(depth))),
                     ("tags_x", lin @ x + off), ("tags_y", lin @ y + off)):
            _push(rows[k], v)
        start, n_rows = n_rows, n_rows + keep.size
        if keep.size == 0 or depth == ceiling:
            break
        depth += 1
    rows = {k: np.concatenate(v) for k, v in rows.items()}

    # sort by (-lam, rank of parent, map index).  Within a depth the rows
    # already come in that order, so a parent's row stands in for its rank
    # until the ties across depths settle, one more generation per pass
    lam, parent, child = rows["lam"], rows["parent"], rows["child"]
    order = np.lexsort((child, parent, -lam))
    rank = np.empty(len(lam), dtype=np.int64)
    while True:
        rank[order] = np.arange(len(lam))
        new_order = np.lexsort((child, np.where(parent >= 0, rank[parent], -1), -lam))
        if np.array_equal(new_order, order):
            break
        order = new_order
    idx = order[:n_words]

    # the model is complete only when the whole (finite) word tree was walked
    truncated = dropped or len(lam) > len(idx) or (
        ceiling is not None and (ifs.max_depth is None or ceiling < ifs.max_depth))
    return PairTripleModel(
        ifs=ifs,
        seed_x=x,
        seed_y=y,
        seed_distance=d0,
        values=np.repeat(lam[idx] * d0, 2),
        tags_x=rows["tags_x"][idx],
        tags_y=rows["tags_y"][idx],
        depths=rows["depth"][idx],
        truncated=bool(truncated),
    )


def _push(chunks, v):
    """Append the array v to ``chunks``, merging the last two while the later
    is at least as long: a walk of many small levels holds a few arrays, not
    one per level."""
    chunks.append(v)
    while len(chunks) > 1 and len(chunks[-2]) <= len(chunks[-1]):
        chunks[-2:] = [np.concatenate(chunks[-2:])]


# ---------------------------------------------------------------------------
# dimension


@dataclass
class SpectralDimension(Estimate):
    ord_estimate: OrdEstimate
    length_scaling: float | None


def _length_scaling_estimate(lengths: np.ndarray) -> float | None:
    """limsup of log n / |log l_n| over a nonincreasing length list.

    The ratio peaks at the last index of each size class, so the maximum
    over the tail half reads the limsup off directly; entries with l >= 1
    (possible among the first few gaps of a wide set) are skipped, and so
    is n = 1.  The lengths fall, so the entries kept are a suffix, and only
    its tail half is evaluated.
    """
    first = max(1, bisect.bisect_left(range(len(lengths)), True,
                                      key=lambda i: lengths[i] < 1.0))
    kept = len(lengths) - first
    if kept < 4:
        return None
    start = first + kept // 2
    r = np.log(np.arange(start + 1, len(lengths) + 1, dtype=float))
    r /= -np.log(lengths[start:])
    return float(r.max())


def spectral_dimension(model) -> SpectralDimension:
    """Dimension of the model as the reciprocal decay order of mu_n.

    The decay order comes from the fitted order of infinitesimal of the
    eigenvalue sequence; the dimension is its reciprocal with the interval
    endpoints mapped through.  Gap models also carry an independent check
    that needs no fit: the limsup of log n / |log l_n| over the plain
    (single-copy) gap lengths.
    """
    # counted before the sequence is made: a short model's entries may all
    # be equal, which from_values refuses as not vanishing
    _enough_entries(len(model))
    est = order_of_infinitesimal(model.eigen)
    scaling = None
    if isinstance(model, GapTripleModel):
        # one copy per gap; the model's values are trimmed to the complete
        # prefix, which the raw gap list is not
        scaling = _length_scaling_estimate(model.values[::2])
    d = est.reciprocal()
    return SpectralDimension(d.value, d.lo, d.hi, ord_estimate=est,
                             length_scaling=scaling)


# ---------------------------------------------------------------------------
# zeta


def _dimension_floor(model) -> float:
    """The dimension for the s > d guard; exact-ish when the system repeats."""
    if model.period:
        return similarity_dimension(_system(model))
    return order_of_infinitesimal(model.eigen).reciprocal().value


def _residue_problem(ifs: LimitIfs | None, depth: int | None) -> str | None:
    """Why a model over ``ifs`` has no closed-form zeta and residue, which
    sum one period of repeating blocks; None if it has them.  ``depth`` is
    a gap model's (the level of its deepest gap), None on a pair model."""
    if ifs is None or not ifs.period:
        return "not defined for an explicit system"
    if depth is not None and depth < len(ifs.period):
        return "needs the gaps of one whole period"
    return None


def _whole_period(model) -> bool:
    depth = model.gaps.levels.max() if isinstance(model, GapTripleModel) else None
    return _residue_problem(_system(model), depth) is None


def _zeta_numerator(model, s: float) -> float:
    # the complement of a periodic set repeats the pattern of one period
    # inside every cylinder of p levels, so the numerator sums one period:
    # the words of length 1..p, or the gaps opened at levels 1..p
    if isinstance(model, PairTripleModel):
        lams = [sum(r**s for r in level) for level in model.period]
        lam_s = sum(math.prod(lams[:k]) for k in range(1, len(lams) + 1))
        return 2.0 * model.seed_distance**s * lam_s
    first = model.gaps.levels <= len(model.period)
    g1 = model.gaps.ends[first] - model.gaps.starts[first]
    return 2.0 * float(np.sum(g1**s))


def _zeta_closed(model, s: float) -> float:
    lam_s = math.prod(sum(r**s for r in level) for level in model.period)
    if lam_s >= 1.0:
        raise SBelowDimension(
            f"ratio power product at s = {s:.6g} is {lam_s:.6g}; the series diverges")
    return _zeta_numerator(model, s) / (1.0 - lam_s)


@dataclass
class ZetaPartial:
    s: float
    value: float
    truncated_sum: float
    tail: float
    tail_error: float
    tail_route: str
    n_terms: int
    closed_form: float | None


def zeta_partial(model, s: float) -> ZetaPartial:
    """Trace of |D|^{-s} for s above the dimension estimate.

    The sum over all materialized entries is closed with the sequence's tail
    model: exact for complete models, fitted for truncated ones.  A model
    that holds a whole period of a repeating system also gets the geometric
    closed form (the power sum of one period over 1 minus the product of
    the levels' ratio power sums), which the truncated route must agree
    with to within its own tail error; a sum past the float range raises.
    """
    s = float(s)
    floor = _dimension_floor(model)
    if s <= floor:
        raise SBelowDimension(
            f"s = {s:.6g} is not above the dimension estimate {floor:.6g}")
    seq = model.eigen
    n = seq.cap
    try:
        with np.errstate(over="raise"):
            head = seq._held_sum(0, n, s)
            tail, err, route = seq.tail_sum(n, s)
            closed = _zeta_closed(model, s) if _whole_period(model) else None
    except (OverflowError, FloatingPointError):
        raise Overflow(f"zeta at s = {s:.6g} leaves the float range") from None
    return ZetaPartial(
        s=s,
        value=head + tail,
        truncated_sum=head,
        tail=float(tail),
        tail_error=float(err),
        tail_route=route,
        n_terms=n,
        closed_form=closed,
    )


@dataclass
class ZetaResidue:
    d: float
    analytic: float
    numeric: float


def zeta_residue(model) -> ZetaResidue:
    """Residue of the zeta function at the similarity dimension d, computed
    twice, on a model that holds a whole period of a repeating system.

    Analytic route: numerator at d over -F'(d), F(s) = prod_j sum_{r in L_j}
    r^s over the levels of one period, the limit of (s - d) zeta(s) after
    one derivative of the vanishing denominator 1 - F(s).
    Numeric route: delta * zeta(d + delta) on a geometric grid of deltas,
    extrapolated to 0 by a cubic fit.  Both are returned; their spread is
    the caller's consistency check.
    """
    if not _whole_period(model):
        raise ValueError("residue needs a generating system whose blocks "
                         "repeat, and on a gap model the gaps of one period")
    d = similarity_dimension(_system(model))
    lams = [sum(r**d for r in level) for level in model.period]
    denom = sum(math.prod(lams[:j] + lams[j + 1:])
                * sum(r**d * math.log(1.0 / r) for r in level)
                for j, level in enumerate(model.period))
    analytic = _zeta_numerator(model, d) / denom
    grid_values = np.array(
        [delta * _zeta_closed(model, d + delta) for delta in _RESIDUE_DELTAS])
    coef = np.polyfit(_RESIDUE_DELTAS, grid_values, 3)
    return ZetaResidue(
        d=d,
        analytic=float(analytic),
        numeric=float(coef[-1]),
    )


# ---------------------------------------------------------------------------
# functionals


@dataclass
class FunctionalSample:
    """A scalar function materialized at a model's tag points.

    values_x[k] and values_y[k] are the function at the two tags of entry k.
    ``lipschitz`` is the largest per-entry difference quotient
    |f(x_k) - f(y_k)| / d(x_k, y_k), the only commutator information the
    eigenvalue picture retains.
    """

    values_x: np.ndarray
    values_y: np.ndarray
    lipschitz: float

    def __len__(self) -> int:
        return len(self.values_x)


def sample_functional(model, f) -> FunctionalSample:
    """Evaluate the vectorized callable ``f`` at every tag point of
    ``model``: it is fed a flat (n,) array for one-dimensional models, an
    (n, dim) array otherwise.
    """
    if len(model) == 0:
        raise ValueError("model has no entries to sample at")
    tx, ty = model.tag_matrix()
    vx = _eval_callable(f, tx)
    vy = _eval_callable(f, ty)
    if not (np.all(np.isfinite(vx)) and np.all(np.isfinite(vy))):
        raise ValueError("functional produced non-finite values at tag points")
    lip = float(np.max(np.abs(vx - vy) / model.values)) if len(model) else 0.0
    return FunctionalSample(values_x=vx, values_y=vy, lipschitz=lip)


def _eval_callable(f, tags):
    arg = tags[:, 0] if tags.shape[1] == 1 else tags
    return np.asarray(f(arg), dtype=float).reshape(-1)


def _points(points, dim: int, what: str) -> np.ndarray:
    """``points`` as an (n, dim) array; a flat array is n points of the line."""
    pts = np.asarray(points, dtype=float)
    pts = pts[:, None] if pts.ndim == 1 else pts
    if pts.shape[1] != dim:
        raise ValueError(f"{what} has dimension {dim}, points {pts.shape[1]}")
    return pts


def affine_functional(slope, intercept: float = 0.0):
    """f(x) = <slope, x> + intercept over tag arrays of any dimension."""
    s = np.atleast_1d(np.asarray(slope, dtype=float))
    return lambda points: _points(points, s.size, "slope") @ s + intercept


def box_indicator(lo, hi, margin: float = 0.0):
    """Indicator of the box [lo, hi], ramped linearly to 0 over ``margin``.

    margin 0 gives the sharp indicator; a positive margin keeps the function
    Lipschitz with constant 1/margin, which is what a cylinder test function
    needs to have a finite difference-quotient estimate.
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    if lo.shape != hi.shape or np.any(lo >= hi):
        raise ValueError("box must satisfy lo < hi componentwise")

    def f(points):
        pts = _points(points, lo.size, "box")
        outside = np.max(np.maximum(lo - pts, pts - hi), axis=1)
        if margin == 0.0:
            return (outside <= 0.0).astype(float)
        return np.clip(1.0 - np.maximum(outside, 0.0) / margin, 0.0, 1.0)

    return f


@dataclass
class HausdorffFunctional(Estimate):
    exponent: float
    measurable: bool
    n_points: int


def hausdorff_functional(model, f, d: float | None = None,
                         tolerance: float | None = None) -> HausdorffFunctional:
    """State value of f: the ratio limit S_n(f mu^d) / S_n(mu^d).

    Each eigen-entry contributes the average of f at its two tags times
    mu_k^d; the limit is taken with singular_trace_estimate along the
    eccentric subsequence that the eccentricity scan at the same exponent
    finds, with the threshold adapting to the cap unless ``tolerance`` pins
    it.  The constant function 1 returns exactly 1 whatever the
    subsequence: the functional is a state.
    """
    sample = f if isinstance(f, FunctionalSample) else sample_functional(model, f)
    if len(sample) != len(model):
        raise ValueError("functional sample does not match the model's entries")
    if d is None:
        d = _dimension_floor(model)
    d = float(d)
    seq_d = model.eigen.power(d)
    kind = resolve_kind(seq_d)
    subseq = _eccentric_indices(seq_d, kind, tolerance)
    weights = 0.5 * (sample.values_x + sample.values_y)
    tv = singular_trace_estimate(weights, seq_d, subseq, kind)
    return HausdorffFunctional(
        tv.value, tv.lo, tv.hi,
        exponent=d,
        measurable=tv.measurable,
        n_points=len(subseq),
    )


def _eccentric_indices(seq, kind, tolerance):
    """Subsequence indices from the eccentricity scan.

    A pinned tolerance is applied as-is.  With tolerance None the threshold
    adapts to the best the cap can reach: 1.5 times the infimum ratio-gap,
    floored at 0.02 but never above the ceiling, since a critical-exponent
    gap merely closes like 1/log n while an off-exponent gap stays parked
    at a cap-independent level.
    """
    scan = eccentricity_scan(seq, kind, 0.02 if tolerance is None else tolerance)
    if tolerance is None:
        threshold = min(max(1.5 * scan.inf_gap, 0.02), _ADAPTIVE_GAP_CEILING)
        with np.errstate(over="ignore"):
            n = np.floor(np.exp(scan.t_points[scan.gaps <= threshold]))
    else:
        threshold = tolerance
        n = scan.accepted_n
    n = n[np.isfinite(n)]
    n = _distinct(n[(n >= 1) & (n <= seq.cap)].astype(np.int64))
    if len(n) == 0:
        raise EmptySubsequence(
            f"eccentricity scan found no admissible indices "
            f"(closest ratio gap {scan.inf_gap:.4f} vs threshold {threshold:.4f})")
    return n


def functional_spectrum(model, f, exponents, tolerance: float | None = None):
    """hausdorff_functional at every exponent whose eccentricity scan lands.

    Only an explicit system lacks a single similarity dimension (a
    repeating one has the root of its period's product), so each candidate
    exponent is tried and the ones with an eccentric subsequence are
    reported as (exponent, functional) pairs; the rest are skipped.
    """
    sample = f if isinstance(f, FunctionalSample) else sample_functional(model, f)
    out = []
    for a in exponents:
        try:
            out.append((float(a), hausdorff_functional(model, sample, d=float(a),
                                                       tolerance=tolerance)))
        except EmptySubsequence:
            continue
    return out


# ---------------------------------------------------------------------------
# Minkowski link


@dataclass
class MinkowskiLink:
    trace: DixmierEstimate
    content: MinkowskiContent
    scaled_content: Estimate
    d: float
    lattice: bool | None
    asserted: bool
    overlap: bool


def _lattice_ratios(period) -> bool | None:
    """True when the log-ratios of one period's words are all rational
    multiples of the first word's, the words that differ from it at one
    level deciding: sum_j |L_j| of them, not prod_j |L_j|.

    Rationality is tested against denominators up to 1000 at 1e-9; with no
    period (an explicit system) it returns None, not a guess."""
    if not period:
        return None
    first = [level[0] for level in period]
    base = math.log(1.0 / math.prod(first))
    qs = [math.log(1.0 / math.prod(first[:j] + [r] + first[j + 1:])) / base
          for j, level in enumerate(period) for r in level[1:]]
    return all(abs(q - Fraction(q).limit_denominator(1000)) <= _LATTICE_TOL
               for q in qs)


def minkowski_link_check(model: GapTripleModel, d: float | None = None) -> MinkowskiLink:
    """Compare the Dixmier trace of mu^d against 2^d (1-d) times the content.

    The two sides estimate the same number exactly when the complement is
    Minkowski-measurable, which the ratio arithmetic predicts for
    non-lattice systems; lattice systems oscillate on both sides, so only
    the bands are reported and nothing is asserted.  ``overlap`` records
    whether the bands intersect either way.  mu^d is classified first unless
    d is a repeating system's own, where it lies in L^(1,inf).
    """
    if not isinstance(model, GapTripleModel):
        raise ValueError("the content link is a statement about gap models on the line")
    classify = d is not None or not model.period
    if d is None:
        d = _dimension_floor(model)
    d = float(d)
    if not 0.0 < d <= 1.0:
        raise ValueError(f"d must lie in (0, 1], got {d:.6g}")
    trace = dixmier_trace_estimate(model.eigen.power(d), check=classify)
    content = minkowski_content_estimate(model.gaps, d)
    scale = 2.0**d * (1.0 - d)
    lattice = _lattice_ratios(model.period)
    scaled = Estimate(scale * content.value, scale * content.lo,
                      scale * content.hi)
    overlap = max(trace.lo, scaled.lo) <= min(trace.hi, scaled.hi)
    return MinkowskiLink(
        trace=trace,
        content=content,
        scaled_content=scaled,
        d=d,
        lattice=lattice,
        asserted=bool(lattice is False and content.measurable),
        overlap=bool(overlap),
    )
