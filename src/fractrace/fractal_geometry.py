"""Classical-side geometry: iterated function systems and their limit sets.

Covers contracting similarities, level-varying (limit) systems, the
similarity dimension, fixed-point iteration of set contractions with Cauchy
diagnostics, attractor point clouds, cylinder measures, box-counting
dimension estimates, exact gap structure for subsets of the line, and the
one-dimensional Minkowski content with truncation-aware error bands.

Sets are represented as finite point clouds.  The gap code takes images of
an interval in one routine, ``_images``, shared by exact and float runs: in
Fractions when every map it uses and the interval were given exactly (int
or Fraction coefficients), so gap bookkeeping is checked without rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    BudgetExceeded,
    DivergentSpec,
    EpsilonBelowResolution,
    OverlappingImages,
)
from .sequences import Estimate

DEFAULT_WORD_BUDGET = 10**7

_ORTHO_TOL = 1e-12
_BISECTION_TOL = 1e-12
# residual straddle above this fraction of the tube volume means the gap
# truncation is too coarse for that epsilon
_RESIDUAL_STRADDLE = 0.01
_MEASURABLE_OSCILLATION = 0.05
_BOX_OFFSETS = 4  # shifted grid origins averaged per box count


def _exact_number(x):
    """Fraction mirror of x when x was given exactly, else None."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return Fraction(int(x))
    return None


class Similarity:
    """Contracting similarity w(x) = ratio * O x + t with O orthogonal.

    ``translation``, a number or any 1-d array-like, fixes the ambient
    dimension; ``orthogonal`` defaults to the identity.  Passing
    ``ratio``/``translation`` as int or Fraction (in one dimension, with
    O = +-1) keeps an exact affine mirror that the gap machinery uses for
    rational endpoint arithmetic.
    """

    def __init__(self, ratio, translation, orthogonal=None):
        t_raw = list(translation) if np.ndim(translation) == 1 else [translation]
        self.translation = np.asarray([float(v) for v in t_raw], dtype=float)
        n = self.translation.size
        if orthogonal is None:
            self.orthogonal = np.eye(n)
        else:
            self.orthogonal = np.asarray(orthogonal, dtype=float).reshape(n, n)
        self.ratio = float(ratio)
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"contraction ratio must lie in (0, 1), got {self.ratio}")
        defect = np.abs(self.orthogonal @ self.orthogonal.T - np.eye(n)).max()
        if defect > _ORTHO_TOL:
            raise ValueError(f"orthogonal part fails O O^T = I by {defect:.3e}")
        self._exact = self._build_exact(ratio, t_raw)

    def _build_exact(self, ratio, t_raw):
        if self.dim != 1:
            return None
        sign = self.orthogonal[0, 0]
        if sign not in (1.0, -1.0):
            return None
        r = _exact_number(ratio)
        t = _exact_number(t_raw[0])
        if r is None or t is None:
            return None
        return (int(sign) * r, t)

    @property
    def dim(self) -> int:
        return self.translation.size

    @property
    def linear(self) -> np.ndarray:
        """The linear part ratio * O."""
        return self.ratio * self.orthogonal

    def exact_affine(self):
        """(a, b) with w(x) = a x + b in Fractions, or None if unavailable."""
        return self._exact

    def apply(self, points: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return pts @ self.linear.T + self.translation

    def fixed_point(self) -> np.ndarray:
        return np.linalg.solve(np.eye(self.dim) - self.linear, self.translation)

    def __repr__(self):
        return f"Similarity(ratio={self.ratio}, translation={self.translation.tolist()})"


def interval_map(ratio, translation, flip=False) -> Similarity:
    """One-dimensional similarity x -> +-ratio * x + translation."""
    return Similarity(ratio, translation, [[-1.0]] if flip else None)


class LimitIfs:
    """A level-varying iterated function system: its level blocks, and
    whether they repeat.

    Level n runs block (n - 1) mod len(blocks) when the blocks repeat, and
    block n - 1 up to the last one when they do not.  ``period`` holds the
    ratios of each level of one period when the blocks repeat (one level: a
    stationary system), and () when they do not; ``max_depth`` is the
    deepest level, None when the blocks repeat.  ``osc_box`` is the user's
    open set assertion, an axis-aligned box given as (lower corner, upper
    corner); it is recorded, sanity-checkable at finite depth, but never
    proven.
    """

    def __init__(self, blocks, repeats=True, osc_box=None):
        if not blocks or any(len(level) < 1 for level in blocks):
            raise ValueError("every level needs at least one map")
        dims = {w.dim for level in blocks for w in level}
        if len(dims) != 1:
            raise ValueError(f"maps disagree on ambient dimension: {sorted(dims)}")
        self.blocks = [list(level) for level in blocks]
        self.max_depth = None if repeats else len(self.blocks)
        self.period = (tuple(tuple(w.ratio for w in level)
                             for level in self.blocks) if repeats else ())
        self.osc_box = None
        if osc_box is not None:
            lo = np.asarray(osc_box[0], dtype=float).reshape(-1)
            hi = np.asarray(osc_box[1], dtype=float).reshape(-1)
            if lo.size != dims.pop() or lo.size != hi.size or np.any(lo >= hi):
                raise ValueError("osc_box must be a nondegenerate box matching the map dimension")
            self.osc_box = (lo, hi)

    @classmethod
    def stationary(cls, maps, osc_box=None):
        return cls([list(maps)], osc_box=osc_box)

    @classmethod
    def periodic(cls, blocks, osc_box=None):
        return cls(blocks, osc_box=osc_box)

    @classmethod
    def explicit(cls, levels, osc_box=None):
        return cls(levels, repeats=False, osc_box=osc_box)

    @property
    def dim(self) -> int:
        return self.blocks[0][0].dim

    def block_index(self, n: int) -> int:
        if n < 1:
            raise ValueError("levels are 1-based")
        if self.max_depth is None:
            return (n - 1) % len(self.blocks)
        if n > self.max_depth:
            raise ValueError(f"level {n} beyond the {self.max_depth} explicit levels")
        return n - 1

    def level(self, n: int):
        return self.blocks[self.block_index(n)]

    def p(self, n: int) -> int:
        return len(self.level(n))

    def ratios(self, n: int) -> np.ndarray:
        return np.array([w.ratio for w in self.level(n)])

    @property
    def translation_flag(self) -> bool:
        """True when every level uses a single common ratio."""
        return all(len({w.ratio for w in level}) == 1 for level in self.blocks)

    def osc_overlap_evidence(self, depth: int = 1) -> float:
        """Worst pairwise bounding-box overlap volume of level images of the
        asserted open set, up to the given depth.  Zero is consistent with
        the assertion; positive is only a finite-depth warning, box overlap
        being necessary but not sufficient for actual image overlap."""
        if self.osc_box is None:
            raise ValueError("no open set was asserted")
        lo, hi = self.osc_box
        corners = _box_corners(lo, hi)
        worst = 0.0
        for n in range(1, depth + 1):
            images = [w.apply(corners) for w in self.level(n)]
            boxes = [(img.min(axis=0), img.max(axis=0)) for img in images]
            for i in range(len(boxes)):
                for j in range(i + 1, len(boxes)):
                    olo = np.maximum(boxes[i][0], boxes[j][0])
                    ohi = np.minimum(boxes[i][1], boxes[j][1])
                    if np.all(ohi > olo):
                        worst = max(worst, float(np.prod(ohi - olo)))
        return worst


def _box_corners(lo, hi):
    n = lo.size
    corners = np.zeros((2**n, n))
    for i in range(2**n):
        for k in range(n):
            corners[i, k] = hi[k] if (i >> k) & 1 else lo[k]
    return corners


# ---------------------------------------------------------------------------
# similarity dimension

def similarity_dimension(ifs) -> float:
    """Root of prod_j sum_{r in L_j} r^s = 1 over the levels L_j of one
    period: the self-similar system of its p-level words.

    Accepts a LimitIfs whose blocks repeat, or a bare sequence of ratios as
    one level.  One map per level is degenerate (the root is s = 0).
    Bisection on the strictly decreasing product, to width 1e-12.
    """
    period = ifs.period if isinstance(ifs, LimitIfs) else ([float(r) for r in ifs],)
    if not period or not period[0]:
        raise ValueError("similarity dimension needs a ratio and, on a "
                         "LimitIfs, blocks that repeat")
    if any(not 0.0 < r < 1.0 for level in period for r in level):
        raise ValueError("ratios must lie in (0, 1)")
    if max(map(len, period)) == 1:
        return 0.0

    def excess(s):
        return math.prod(sum(r**s for r in level) for level in period) - 1.0

    lo, hi = 0.0, 1.0
    for _ in range(200):
        if excess(hi) <= 0.0:
            break
        lo, hi = hi, 2.0 * hi
    while hi - lo > _BISECTION_TOL:
        mid = 0.5 * (lo + hi)
        if excess(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# point clouds and Hausdorff distance

def _nearest_distances(points: np.ndarray, ref: np.ndarray | None = None) -> np.ndarray:
    """Distance from each row of ``points`` to its nearest row of ``ref``;
    with ``ref`` None, to its nearest other row of ``points`` (a duplicate
    counts, at distance 0; a lone point gets inf).

    One sorted sweep in every dimension.  The reference is sorted on its
    axis of widest spread; each query starts at its np.searchsorted position
    (a self-query at its own sorted position, which it skips) and steps
    outward on both sides, vectorized over the queries still stepping.  A
    side stops once the gap on the sort axis alone reaches the best distance
    found, since every row beyond is at least that far.  On the line a
    distance is the exact |d|; in two or more dimensions it is
    sqrt(d0*d0 + d1*d1 + ...), summed one axis at a time in axis order, and
    the sweep compares squares, gap*gap against the best sum.  See
    hausdorff_distance for how that compares with a kd-tree.
    """
    line = points.shape[1] == 1
    self_query = ref is None
    if self_query:
        ref = points
    axis = int(np.argmax(np.ptp(ref, axis=0)))
    order = np.argsort(ref[:, axis])
    # the sorted reference, one row per axis, between sentinel columns at
    # -inf and +inf on the sort axis: their gap is inf, so a side stops there
    cols = np.full((ref.shape[1], order.size + 2), np.inf)
    cols[axis, 0] = -np.inf
    cols[:, 1:-1] = ref[order].T
    # the queries in the same order, so that each step reads the reference
    # nearly in sequence; per side, the queries still stepping, the column
    # each reads next and the step
    every = np.arange(points.shape[0])
    if self_query:
        # query k is column k + 1 itself, which it skips
        qorder, qcols = order, cols[:, 1:-1]
        sides = [(every, every, -1), (every, every + 2, 1)]
    else:
        qorder = np.argsort(points[:, axis])
        qcols = points[qorder].T.copy()
        start = np.searchsorted(cols[axis], qcols[axis])
        sides = [(every, start - 1, -1), (every, start, 1)]
    best = np.full(points.shape[0], np.inf)
    while any(q.size for q, _, _ in sides):
        for s, (q, j, step) in enumerate(sides):
            gap = qcols[axis][q] - cols[axis][j]
            reach = np.abs(gap) if line else gap * gap
            held = best[q]
            near = np.flatnonzero(reach < held)
            q, j, held = q[near], j[near], held[near]
            if line:
                dist = reach[near]
            else:
                dist = 0.0
                for k in range(points.shape[1]):
                    d = qcols[k][q] - cols[k][j]
                    dist = dist + d * d
            best[q] = np.minimum(held, dist)
            sides[s] = (q, j + step, step)
    out = np.empty_like(best)
    out[qorder] = best if line else np.sqrt(best)
    return out


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite clouds of the same dimension.

    The larger of the two directed distances, each the largest nearest
    distance from one cloud to the other, from the sorted sweep of
    _nearest_distances.  Against a kd-tree (cKDTree), which adds the same
    per-axis squares: in two to seven dimensions the distances are equal bit
    for bit; from eight on the kd-tree adds them in four interleaved partial
    sums, so the last bit can differ.  On the line they equal the kd-tree's
    sqrt(fl(d**2)) while d**2 neither underflows nor overflows (|d| in about
    [1.5e-154, 1.3e154]); outside that window they are the exact |d|, which
    the kd-tree loses.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"clouds have dimensions {a.shape[1]} and {b.shape[1]}")
    d_ab = _nearest_distances(a, b).max()
    d_ba = _nearest_distances(b, a).max()
    return float(max(d_ab, d_ba))


def _as_cloud(points, dim=None):
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 0:
        pts = pts.reshape(1, 1)
    elif pts.ndim == 1:
        # ambiguous: a bare vector is one point in R^n unless dim says otherwise
        pts = pts.reshape(-1, 1) if dim == 1 else pts.reshape(1, -1)
    if dim is not None and pts.shape[1] != dim:
        raise ValueError(f"points have dimension {pts.shape[1]}, maps expect {dim}")
    return pts


def _check_words(ifs: LimitIfs, depth: int, budget: int, points: int = 1):
    """The word budget, checked before a walk to ``depth`` builds a level:
    BudgetExceeded at the first level whose words place more than ``budget``
    images of ``points`` points.  A period of single maps adds no word."""
    words = 1
    for n in range(1, depth + 1):
        words *= ifs.p(n)
        if words * points > budget:
            raise BudgetExceeded(f"level {n} needs {words * points} points, budget {budget}")
        if words == 1 and n == len(ifs.blocks) and ifs.period:
            return


def _word_maps(ifs: LimitIfs, depth: int):
    """Yield (maps, lin, off) for n = 1..depth: the level-n maps, and the
    linear parts (words, dim, dim) and offsets (words, dim) of the composed
    maps W_1 o ... o W_n, one per word of length n in lexicographic order."""
    dim = ifs.dim
    lin = np.eye(dim)[None, :, :]
    off = np.zeros((1, dim))
    for n in range(1, depth + 1):
        maps = ifs.level(n)
        count = lin.shape[0] * len(maps)
        lmat = np.stack([w.linear for w in maps])
        loff = np.stack([w.translation for w in maps])
        off = (np.einsum("wij,mj->wmi", lin, loff) + off[:, None, :]).reshape(count, dim)
        lin = np.einsum("wij,mjk->wmik", lin, lmat).reshape(count, dim, dim)
        yield maps, lin, off


@dataclass
class ContractionRun:
    """Iterates of K -> W_1 ... W_n(K) with Cauchy diagnostics.

    rho[i] is the Hausdorff distance between the depth i+1 and depth i+2
    clouds; step_bounds[i] is the matching product of per-level worst
    contraction ratios, so rho <= m * step_bounds with m the largest
    single-level displacement of the seed.
    """

    cloud: np.ndarray
    rho: np.ndarray
    step_bounds: np.ndarray
    level_displacements: np.ndarray

    def bound_margin(self) -> float:
        """max rho / (displacement * product) over the run; <= 1 up to
        rounding when the contraction inequality holds."""
        bounds = self.step_bounds * self.level_displacements[1:]
        good = bounds > 0
        if not np.any(good):
            return 0.0
        return float((self.rho[good] / bounds[good]).max())


def contraction_limit(ifs: LimitIfs, seed, depth: int,
                      budget: int = DEFAULT_WORD_BUDGET) -> ContractionRun:
    """Iterate the level set-contractions from the outside in.

    Runs S_n = W_1 o ... o W_n on the seed cloud for n up to depth and
    records the Hausdorff step distances, which the contraction argument
    bounds by (product of level ratios) * (displacement of the seed by the
    next level).  Refuses specs whose ratio products show no decay over the
    generated range: the tail-half product above 0.99 means the sum of
    products is growing essentially linearly there, and the limit argument
    has no finite evidence to stand on.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    seed_pts = _as_cloud(seed, ifs.dim)
    worst = np.array([max(w.ratio for w in ifs.level(n)) for n in range(1, depth + 1)])
    products = np.cumprod(worst)
    if depth >= 4 and products[-1] > 0.99 * products[(depth - 1) // 2]:
        raise DivergentSpec(
            "ratio products decayed by less than 1% over the tail half of "
            f"{depth} levels; sum of products diverges over this range")
    _check_words(ifs, depth, budget, len(seed_pts))

    displacements = np.empty(depth)
    for n in range(1, depth + 1):
        image = np.vstack([w.apply(seed_pts) for w in ifs.level(n)])
        displacements[n - 1] = hausdorff_distance(image, seed_pts)

    prev = None
    rho = []
    for _, lin, off in _word_maps(ifs, depth):
        cloud = (np.einsum("wij,sj->wsi", lin, seed_pts)
                 + off[:, None, :]).reshape(-1, ifs.dim)
        if prev is not None:
            rho.append(hausdorff_distance(cloud, prev))
        prev = cloud

    return ContractionRun(
        cloud=prev,
        rho=np.array(rho),
        step_bounds=products[: depth - 1],
        level_displacements=displacements,
    )


@dataclass
class AttractorCloud:
    """One point per word of the given depth, in lexicographic word order."""

    points: np.ndarray       # (n_words, dim)
    word_ratios: np.ndarray  # composed contraction ratio per word
    depth: int

    def diameter(self) -> float:
        span = self.points.max(axis=0) - self.points.min(axis=0)
        return float(np.linalg.norm(span))

    @property
    def resolution(self) -> float:
        """Scale below which the cloud says nothing: diameter times the
        largest composed ratio."""
        return self.diameter() * float(self.word_ratios.max())


def attractor_cloud(ifs: LimitIfs, depth: int, seed=None,
                    budget: int = DEFAULT_WORD_BUDGET) -> AttractorCloud:
    """Images of a single seed point under all depth-m composed maps."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    dim = ifs.dim
    seed_pt = np.zeros(dim) if seed is None else _as_cloud(seed, dim)[0]
    _check_words(ifs, depth, budget)
    lin, off = np.eye(dim)[None, :, :], np.zeros((1, dim))
    ratios = np.ones(1)
    for maps, lin, off in _word_maps(ifs, depth):
        ratios = (ratios[:, None] * np.array([w.ratio for w in maps])[None, :]).ravel()
    points = lin @ seed_pt + off
    return AttractorCloud(points=points, word_ratios=ratios, depth=depth)


# ---------------------------------------------------------------------------
# cylinder measures

@dataclass
class CylinderMeasure:
    """Weights of the depth-m cylinders under the self-similar measure with
    exponent s: weight(word) = prod_k ratio_{k,digit}^s / sum_j ratio_{k,j}^s."""

    s: float
    depth: int
    weights: np.ndarray           # lexicographic word order
    level_weights: list           # normalized per-level weight vectors

    def weight(self, word) -> float:
        """Mass of the cylinder named by ``word``; words shorter than the
        table depth get the whole cylinder (their descendants' sum, which by
        normalization is the per-level product)."""
        if len(word) > self.depth:
            raise ValueError(f"word of length {len(word)} exceeds depth {self.depth}")
        out = 1.0
        for k, digit in enumerate(word):
            p = len(self.level_weights[k])
            if not 1 <= digit <= p:
                raise ValueError(f"digit {digit} out of range at level {k + 1}")
            out *= float(self.level_weights[k][digit - 1])
        return out


def cylinder_measure(ifs: LimitIfs, s: float, depth: int,
                     budget: int = DEFAULT_WORD_BUDGET) -> CylinderMeasure:
    if s <= 0:
        raise ValueError("the measure exponent must be positive")
    if depth < 0:
        raise ValueError("depth must be >= 0")
    _check_words(ifs, depth, budget)
    level_weights = []
    weights = np.ones(1)
    for n in range(1, depth + 1):
        raw = ifs.ratios(n) ** s
        w = raw / raw.sum()
        # force the level to sum to 1 exactly so cylinder mass never drifts
        w[np.argmax(w)] += 1.0 - w.sum()
        level_weights.append(w)
        weights = (weights[:, None] * w[None, :]).ravel()
    total = weights.sum()
    if abs(total - 1.0) > 1e-12:
        raise ArithmeticError(f"cylinder weights sum to {total}, drifted past 1e-12")
    return CylinderMeasure(s=float(s), depth=depth, weights=weights, level_weights=level_weights)


# ---------------------------------------------------------------------------
# box-counting dimension

@dataclass
class BoxDimensionEstimate(Estimate):
    """The global log N vs log 1/eps slope, in the windowed slopes' range."""

    eps: np.ndarray
    counts: np.ndarray


def box_dimension_estimate(cloud, eps=None, resolution=None,
                           window: int = 16) -> BoxDimensionEstimate:
    """Axis-aligned box counting over a geometric epsilon grid.

    The cloud only resolves scales above (diameter x largest composed
    ratio), so the default grid stops a little above that and explicit
    grids below it are rejected.  Counts are averaged over _BOX_OFFSETS
    shifted grid origins to wash out alignment artifacts.  A count is the number of
    distinct rows of integer box indices floor((x - min + shift) / eps): the
    rows are put in order with one np.lexsort and the changes between
    neighbouring rows are counted, in any dimension.  The windowed slopes of
    log N vs log 1/eps give the lower/upper statistics standing in for
    liminf/limsup.  Windows need to span a few multiplicative periods of
    any lattice structure, hence the long default.
    """
    if isinstance(cloud, AttractorCloud):
        pts = cloud.points
        if resolution is None:
            resolution = cloud.resolution
    else:
        pts = _as_cloud(cloud)
    pts = np.atleast_2d(pts)
    span = pts.max(axis=0) - pts.min(axis=0)
    diam = float(np.linalg.norm(span))
    if diam == 0.0:
        one = np.ones(1)
        return BoxDimensionEstimate(0.0, 0.0, 0.0, one, one)
    if resolution is None:
        # finest meaningful scale for a bare cloud: its largest nearest-neighbor gap
        resolution = float(_nearest_distances(pts).max())

    if eps is None:
        hi = diam / 8.0
        lo = max(4.0 * resolution, diam * 1e-9)
        if lo >= hi:
            raise EpsilonBelowResolution(
                f"cloud resolution {resolution:.3e} leaves no usable grid below {hi:.3e}")
        n_steps = max(int(math.log(hi / lo) / math.log(1 / 0.75)) + 1, 8)
        eps = np.geomspace(hi, lo, n_steps)
    else:
        eps = np.sort(np.asarray(eps, dtype=float))[::-1]
        if eps[-1] < resolution * (1 - 1e-9):
            raise EpsilonBelowResolution(
                f"requested eps {eps[-1]:.3e} is below the cloud resolution {resolution:.3e}")

    shifted = pts - pts.min(axis=0)
    counts = np.empty(eps.size)
    for i, e in enumerate(eps):
        acc = 0
        for k in range(_BOX_OFFSETS):
            boxes = np.floor((shifted + e * k / _BOX_OFFSETS) / e).astype(np.int64)
            rows = boxes[np.lexsort(boxes.T)]
            acc += 1 + np.count_nonzero((rows[1:] != rows[:-1]).any(axis=1))
        counts[i] = acc / _BOX_OFFSETS

    x = -np.log(eps)
    y = np.log(counts)
    value = float(np.polyfit(x, y, 1)[0])
    window = min(window, eps.size)
    if window < 2:
        window = 2
    slopes = np.array([
        np.polyfit(x[i:i + window], y[i:i + window], 1)[0]
        for i in range(eps.size - window + 1)
    ])
    return BoxDimensionEstimate(
        value=value,
        lo=float(slopes.min()),
        hi=float(slopes.max()),
        eps=eps,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# gap structure on the line

@dataclass
class GapList:
    """Open complementary intervals of a compact F inside [a, b].

    starts/ends are sorted by nonincreasing length, and ``levels`` gives the
    level each gap opened at (0 for a finite union), in the narrowest
    unsigned type that holds the enumeration depth.  Residual intervals are
    the undecided depth-m cylinders unless residual_solid says they belong
    to F itself (finite unions).  ``exact`` means every endpoint and the
    conservation identity were computed exactly, as integer numerators over
    one common denominator, and each endpoint was rounded to float once.
    ``ifs`` is the system enumerated, None for a finite union.
    """

    a: float
    b: float
    starts: np.ndarray
    ends: np.ndarray
    levels: np.ndarray
    residual_starts: np.ndarray
    residual_ends: np.ndarray
    exact: bool
    residual_solid: bool
    conservation_defect: float
    ifs: LimitIfs | None = None
    # gaps are emitted by depth, not by size, so with unequal ratios the
    # small end of the sorted list interleaves with gaps the enumeration has
    # not reached yet.  Lengths strictly above this cutoff form a complete
    # prefix of the true length sequence; 0 when the list is exhaustive.
    completeness_cutoff: float = 0.0

    @property
    def lengths(self) -> np.ndarray:
        return self.ends - self.starts

    @property
    def residual_lengths(self) -> np.ndarray:
        return self.residual_ends - self.residual_starts

    @property
    def diameter(self) -> float:
        return self.b - self.a

    def min_gap(self) -> float:
        if self.starts.size == 0:
            raise ValueError("no gaps recorded")
        return float(self.lengths.min())

    @classmethod
    def from_intervals(cls, intervals) -> "GapList":
        """Gap list of a finite union of closed intervals (solid residuals);
        exact only when every endpoint is an int or a Fraction, else every
        endpoint becomes a float before any arithmetic."""
        given = [(lo, hi) for lo, hi in intervals]
        exact = all(_exact_number(x) is not None for iv in given for x in iv)
        ivs = [tuple(map(_exact_number if exact else float, iv)) for iv in given]
        if not all(lo < hi for lo, hi in ivs):
            raise ValueError("intervals must be nondegenerate")
        ivs.sort(key=lambda iv: float(iv[0]))
        for (_, h1), (l2, _) in zip(ivs, ivs[1:]):
            if not h1 < l2:
                raise OverlappingImages("intervals must be pairwise disjoint and separated")
        gaps = [(h1, l2) for (_, h1), (l2, _) in zip(ivs, ivs[1:])]
        a, b = ivs[0][0], ivs[-1][1]
        defect = (b - a) - sum(h - l for l, h in gaps) - sum(h - l for l, h in ivs)
        starts = np.array([float(l) for l, _ in gaps])
        ends = np.array([float(h) for _, h in gaps])
        order = np.lexsort((starts, -(ends - starts)))
        return cls(
            a=float(a), b=float(b),
            starts=starts[order], ends=ends[order],
            levels=np.zeros(len(gaps), dtype=np.uint8),
            residual_starts=np.array([float(l) for l, _ in ivs]),
            residual_ends=np.array([float(h) for _, h in ivs]),
            exact=exact, residual_solid=True,
            conservation_defect=float(defect),
        )


def _affine(w, exact):
    """(alpha, beta) with w(x) = alpha x + beta for a map of the line: the
    Fraction mirror when exact (None if the map has none), floats otherwise."""
    if exact:
        return w.exact_affine()
    return float(w.orthogonal[0, 0]) * w.ratio, float(w.translation[0])


def _images(maps, a, b, exact):
    """Images (lo, hi, alpha, beta) of [a, b] under each map, sorted by lo;
    in Fractions when exact, floats otherwise."""
    ivs = []
    for w in maps:
        aa, bb = _affine(w, exact)
        lo, hi = aa * a + bb, aa * b + bb
        ivs.append((lo, hi, aa, bb) if aa > 0 else (hi, lo, aa, bb))
    ivs.sort(key=lambda iv: iv[0])
    return ivs


def _stationary_hull(maps):
    """Smallest [a, b] with every map image inside and touching the ends.

    One map leaves only its fixed point invariant, which is both ends.
    Float iteration finds the hull of several.  When every map is exact,
    the maps whose images realize its ends give the two defining equations
    a = w(a or b) and b = w'(a or b), solved in Fractions; the solve is kept
    only if it reproduces a touching invariant hull exactly.
    """
    fixed = [t / (1 - a) for a, t in (_affine(w, False) for w in maps)]
    if len(maps) == 1:
        return fixed[0], fixed[0]
    lo, hi = min(fixed), max(fixed)
    if hi <= lo:
        hi = lo + 1.0
    for _ in range(200):
        ivs = _images(maps, lo, hi, False)
        new_lo, new_hi = ivs[0][0], max(iv[1] for iv in ivs)
        settled = (abs(new_lo - lo) < 1e-14 * (1 + abs(lo))
                   and abs(new_hi - hi) < 1e-14 * (1 + abs(hi)))
        lo, hi = new_lo, new_hi
        if settled:
            break
    if any(_affine(w, True) is None for w in maps):
        return lo, hi
    ivs = _images(maps, Fraction(lo), Fraction(hi), True)
    a1, b1 = ivs[0][2:]
    a2, b2 = max(ivs, key=lambda iv: iv[1])[2:]
    # [[1 - p1, -n1], [-n2, 1 - p2]] (a, b) = (b1, b2), where p and n are the
    # positive and negative parts of each slope
    p1, n1, p2, n2 = max(a1, 0), min(a1, 0), max(a2, 0), min(a2, 0)
    det = (1 - p1) * (1 - p2) - n1 * n2
    ea = (b1 * (1 - p2) + n1 * b2) / det
    eb = (b2 * (1 - p1) + n2 * b1) / det
    ivs = _images(maps, ea, eb, True)
    if ivs[0][0] == ea and max(iv[1] for iv in ivs) == eb and ea < eb:
        return ea, eb
    return lo, hi


def _level_max_gap(maps, a: float, b: float) -> float:
    """Largest uncovered spacing of the float images of [a, b], edges included.

    Unlike _gap_frame this never rejects: overlapping images just
    cover more, so the result stays a valid upper bound for the gaps any
    deeper enumeration of that level can open.
    """
    ivs = _images(maps, a, b, False)
    best, cover = max(ivs[0][0] - a, 0.0), ivs[0][1]
    for lo, hi, _, _ in ivs[1:]:
        best, cover = max(best, lo - cover), max(cover, hi)
    return max(best, b - cover)


def _future_gap_factor(ifs: LimitIfs, depth: int, a: float, b: float) -> float:
    """sup over k > depth of (product of levels' max ratios up to k-1 beyond
    depth) times the max gap of the level-k pattern; the largest gap a unit
    copy of [a, b] subdivided from level depth+1 onward can still open,
    relative to the copy's own scale.

    Stationary and periodic systems stop after one period of levels: a later
    term is an earlier one's gap times a smaller float product, so it cannot
    raise the sup.  Explicit systems run to their last level.
    """
    last = depth + len(ifs.blocks) if ifs.max_depth is None else ifs.max_depth
    width = b - a
    best, prod = 0.0, 1.0
    for k in range(depth + 1, last + 1):
        maps = ifs.level(k)
        best = max(best, prod * _level_max_gap(maps, a, b))
        prod *= max(w.ratio for w in maps)
        # every later term is below prod * width
        if prod * width <= best:
            break
    return best


def _gap_frame(ifs: LimitIfs, depth: int, interval=None, exact="auto"):
    """Every reason a gap analysis of ``ifs`` to ``depth`` cannot run,
    checked before a level is built.  Returns the bounding interval a < b,
    whether the run is exact, and, for each block that levels 1..depth use,
    read once, its sorted images (lo, hi, alpha, beta) of [a, b] and gaps.

    The system must be one-dimensional and, if explicit, reach ``depth``.
    The interval is ``interval``, else the ``osc_box``, else, when the
    blocks repeat, the smallest interval that every map of one period maps
    into itself (_stationary_hull of all of them).  Each used block's closed
    images of it must be pairwise disjoint and inside it.  exact="auto" is
    exact when the used maps and both ends are (int or Fraction); True
    insists, False runs in floats.
    """
    if ifs.dim != 1:
        raise ValueError("gap analysis needs a one-dimensional system")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if interval is not None:
        a_raw, b_raw = interval
    elif ifs.osc_box is not None:
        a_raw, b_raw = float(ifs.osc_box[0][0]), float(ifs.osc_box[1][0])
    elif ifs.period:
        a_raw, b_raw = _stationary_hull([w for level in ifs.blocks for w in level])
    else:
        raise ValueError("explicit systems need a bounding interval or osc_box")
    ifs.block_index(depth)   # an explicit system ends at its last level

    used = [ifs.blocks[i] for i in range(min(depth, len(ifs.blocks)))]
    a_e, b_e = _exact_number(a_raw), _exact_number(b_raw)
    use_exact = exact is not False and a_e is not None and b_e is not None \
        and all(_affine(w, True) is not None for maps in used for w in maps)
    if exact is True and not use_exact:
        raise ValueError("exact arithmetic requested but maps or interval are not exact")

    a, b = (a_e, b_e) if use_exact else (float(a_raw), float(b_raw))
    if not a < b:
        raise ValueError("bounding interval is degenerate")
    images = []
    for maps in used:
        ivs = _images(maps, a, b, use_exact)
        for (_, h1, _, _), (l2, _, _, _) in zip(ivs, ivs[1:]):
            if not h1 < l2:
                raise OverlappingImages(
                    f"level images [..{float(h1):.6g}] and [{float(l2):.6g}..] touch or overlap")
        if ivs[0][0] < a or ivs[-1][1] > b:
            raise OverlappingImages(
                f"level images leave [{float(a):.6g}, {float(b):.6g}]")
        # a, lo_1, hi_1, ..., lo_p, hi_p, b: every (hi, next lo) pair is a
        # gap, and so are the two edge pairs when they are not empty
        ends = [a] + [x for iv in ivs for x in iv[:2]] + [b]
        images.append((ivs, [(h1, l2) for h1, l2 in zip(ends[::2], ends[1::2])
                             if h1 < l2]))
    return a, b, use_exact, images


def gaps_from_interval_ifs(ifs: LimitIfs, depth: int, interval=None,
                           exact="auto", budget: int = DEFAULT_WORD_BUDGET) -> GapList:
    """Exact complement structure of a one-dimensional limit set.

    Each level must map the bounding interval to pairwise disjoint ordered
    subintervals; the gaps that opens are final, so the depth-m gap list is
    a true initial segment of the complement.  _gap_frame states that and
    the other preconditions, the default interval and the exactness rule;
    they and the word budget are checked before any level is built.

    Exact and float runs share one vectorized enumeration: exact endpoints
    are Python-int numerators over one common denominator (no width limit),
    rounded correctly to float at the end, and the conservation defect is an
    integer identity.  A float run holds its endpoint arrays once, so its
    working set stays within about twice the arrays it returns.
    """
    a, b, use_exact, images = _gap_frame(ifs, depth, interval, exact)
    _check_words(ifs, depth, budget)
    lo, hi, glevels, res_lo, res_hi, denom = _gap_numerators(
        [images[ifs.block_index(n)] for n in range(1, depth + 1)], a, b, use_exact)

    def to_float(x):
        # int / int rounds correctly, to the value float(Fraction) gives; a
        # float run's endpoints are floats already
        return np.asarray(x / denom, dtype=float) if use_exact else x

    # from here on every array is released as soon as it is used, and each
    # sorted copy replaces its source before the next is made
    rlen = res_hi - res_lo
    # rounding is monotone, so the rounded max is the max of the rounded
    r_max = float(to_float(rlen.max()))
    # left-to-right sums, as Python's sum adds, each in place over its own
    # array of lengths
    r_sum = np.cumsum(rlen, out=rlen)[-1]
    del rlen
    glen = hi - lo
    total = (np.cumsum(glen, out=glen)[-1] if glen.size else 0) + r_sum
    del glen
    defect = ((b - a) * denom - total) / denom
    cutoff = r_max / (float(b) - float(a)) * _future_gap_factor(
        ifs, depth, float(a), float(b))

    res_starts, res_ends = to_float(res_lo), to_float(res_hi)
    del res_lo, res_hi
    ridx = np.argsort(res_starts)
    res_starts = res_starts[ridx]
    res_ends = res_ends[ridx]
    del ridx
    starts, ends = to_float(lo), to_float(hi)
    del lo, hi
    key = ends - starts
    order = np.lexsort((starts, np.negative(key, out=key)))
    del key
    starts = starts[order]
    ends = ends[order]
    glevels = glevels[order]
    return GapList(
        a=float(a), b=float(b),
        starts=starts, ends=ends, levels=glevels,
        residual_starts=res_starts, residual_ends=res_ends,
        exact=use_exact, residual_solid=False,
        conservation_defect=float(defect),
        ifs=ifs,
        completeness_cutoff=cutoff,
    )


def _gap_numerators(levels, a, b, exact):
    """Gap and residual endpoints of levels 1..m as numerators over one
    denominator S, one broadcasting pass per level.

    A word map x -> alpha x + beta is carried as (alpha D^n, beta S).  Exact
    runs hold Python ints in object arrays with S = D^m E, D the lcm of the
    map denominators and E that of a and b; float runs hold float64 with S
    and every scale 1.0.  Returns (gap_lo, gap_hi, gap_level, res_lo,
    res_hi, S), level by level and in word order within a level.  Each level
    writes its gaps into arrays sized for every level, so no chunk is
    copied; a word that reverses orientation swaps its two ends at the end.
    """
    m = len(levels)
    dtype, den, scales = float, 1.0, [1.0] * (m + 1)
    if exact:
        dtype = object
        den = math.lcm(*(x.denominator for ivs, _ in levels
                         for _, _, aa, bb in ivs for x in (aa, bb)))
        scales = [den ** (m - n) * math.lcm(a.denominator, b.denominator)
                  for n in range(m + 1)]

    def scaled(values, k):
        out = [v * k for v in values]
        if exact:
            assert all(x.denominator == 1 for x in out), "S misses an endpoint"
            out = [x.numerator for x in out]
        return np.array(out, dtype=dtype)

    words = [1]
    for ivs, _ in levels:
        words.append(words[-1] * len(ivs))
    n_gaps = sum(w * len(lgaps) for w, (_, lgaps) in zip(words, levels))
    gap_lo, gap_hi = np.empty(n_gaps, dtype=dtype), np.empty(n_gaps, dtype=dtype)
    gap_level = np.empty(n_gaps, dtype=np.min_scalar_type(m))

    alpha, beta = np.ones(1, dtype=dtype), np.zeros(1, dtype=dtype)
    start = 0
    for n, (ivs, lgaps) in enumerate(levels, start=1):
        rows = slice(start, start + alpha.size * len(lgaps))
        start = rows.stop
        for out, k in ((gap_lo, 0), (gap_hi, 1)):
            # alpha g + beta over every word and gap, written in place
            block = out[rows].reshape(alpha.size, len(lgaps))
            np.multiply(alpha[:, None], scaled([g[k] for g in lgaps], scales[n - 1]),
                        out=block)
            block += beta[:, None]
        gap_level[rows] = n
        lb = alpha[:, None] * scaled([iv[3] for iv in ivs], scales[n - 1])
        lb += beta[:, None]
        beta = lb.ravel()
        alpha = (alpha[:, None] * scaled([iv[2] for iv in ivs], den)).ravel()
    # the last level's words map [a, b] onto the residual cylinders; alpha
    # turns into their upper ends in place
    res_lo = alpha * scaled([a], scales[m])
    res_lo += beta
    res_hi = alpha
    res_hi *= scaled([b], scales[m])
    res_hi += beta
    del alpha, beta
    for lo, hi in ((gap_lo, gap_hi), (res_lo, res_hi)):
        flip = lo > hi
        lo[flip], hi[flip] = hi[flip], lo[flip]
    return gap_lo, gap_hi, gap_level, res_lo, res_hi, scales[0]


# ---------------------------------------------------------------------------
# Minkowski content in R

@dataclass
class MinkowskiContent(Estimate):
    """vol S_eps(F) / eps^(1-d) statistics over an epsilon window.

    The accepted epsilons are split into a coarse and a fine half; value and
    [lo, hi] come from the fine half.  Measurability is read off the relative
    band widths: a band that keeps shrinking as the window slides toward
    eps -> 0 is the numerical face of Minkowski measurability, one that
    stays put over several multiplicative periods is the lattice case.
    """

    measurable: bool
    oscillation: float          # relative band width over the fine half
    oscillation_coarse: float   # same over the coarse half
    eps: np.ndarray
    ratio_lo: np.ndarray
    ratio_hi: np.ndarray


def _covered_sum(lengths_sorted, prefix, x):
    """sum over min(length, x) for lengths sorted ascending, vectorized in x."""
    pos = np.searchsorted(lengths_sorted, x, side="right")
    small = np.where(pos > 0, prefix[pos - 1], 0.0)
    return small + (lengths_sorted.size - pos) * x


def minkowski_content_estimate(gaps: GapList, d: float) -> MinkowskiContent:
    """Tube volume statistics vol S_eps / eps^(1-d) for F on the line.

    The epsilon grid is geometric with ratio 0.9, from half the diameter
    down to ten times the smallest gap (1e-5 times the start for solid
    residuals).  vol S_eps is exact given the full gap list; with a
    truncated list the undecided cylinders pin it between covering only
    their endpoints and covering them whole, and epsilons where that
    straddle exceeds 1% of the volume are dropped.
    """
    if not 0.0 < d <= 1.0:
        raise ValueError("the content exponent must lie in (0, 1]")
    g = np.sort(gaps.lengths)
    gp = np.cumsum(g)
    r = np.sort(gaps.residual_lengths)
    rp = np.cumsum(r)
    diam = gaps.diameter

    hi = diam / 2.0
    if gaps.residual_solid:
        # no truncation to respect: go deep enough to see the limit
        lo = hi * 1e-5
    else:
        lo = gaps.min_gap() * 10.0 if g.size else hi / 100.0
        if lo == 0.0:
            raise EpsilonBelowResolution(
                "the smallest gap is 0: no tube width resolves the gaps")
        lo = min(lo, hi / 2.0)
    n_steps = int(math.log(hi / lo) / math.log(1 / 0.9)) + 2
    eps = np.geomspace(hi, lo, n_steps)

    gap_part = _covered_sum(g, gp, 2.0 * eps) if g.size else np.zeros(eps.size)
    res_full = rp[-1] if r.size else 0.0
    if gaps.residual_solid:
        res_lo = res_hi = np.full(eps.size, res_full)
    else:
        res_lo = _covered_sum(r, rp, 2.0 * eps) if r.size else np.zeros(eps.size)
        res_hi = np.full(eps.size, res_full)
    vol_lo = 2.0 * eps + gap_part + res_lo
    vol_hi = 2.0 * eps + gap_part + res_hi
    straddle = (vol_hi - vol_lo) / vol_lo

    # the first eps, diam / 2, covers every residual whole: its straddle is
    # zero, so it always survives
    ok = straddle <= _RESIDUAL_STRADDLE
    eps, vol_lo, vol_hi = eps[ok], vol_lo[ok], vol_hi[ok]

    scale = eps ** (1.0 - d)
    ratio_lo = vol_lo / scale
    ratio_hi = vol_hi / scale

    def rel_width(sl):
        lo_w, hi_w = ratio_lo[sl], ratio_hi[sl]
        # the median as np.median takes it, which would import numpy.ma: the
        # mean of the one or two middle values
        mid = np.sort(0.5 * (lo_w + hi_w))
        mid = float(np.mean(mid[(mid.size - 1) // 2:mid.size // 2 + 1]))
        if mid <= 0:
            return math.inf
        return (hi_w.max() - lo_w.min()) / mid

    n_fine = max(eps.size // 2, 1)
    fine = slice(eps.size - n_fine, eps.size)
    coarse = slice(0, eps.size - n_fine) if eps.size > n_fine else fine
    osc_fine = rel_width(fine)
    osc_coarse = rel_width(coarse)
    value = float(np.mean(0.5 * (ratio_lo[fine] + ratio_hi[fine])))
    # measurable: the fine band is narrow and either clearly still shrinking
    # or already negligible
    measurable = osc_fine <= _MEASURABLE_OSCILLATION and (
        osc_fine <= 0.5 * osc_coarse or osc_fine <= 0.005)
    return MinkowskiContent(
        value=value,
        lo=float(ratio_lo[fine].min()),
        hi=float(ratio_hi[fine].max()),
        measurable=bool(measurable),
        oscillation=float(osc_fine),
        oscillation_coarse=float(osc_coarse),
        eps=eps, ratio_lo=ratio_lo, ratio_hi=ratio_hi,
    )


# ---------------------------------------------------------------------------
# translation-fractal dimension formula

@dataclass
class TranslationDimension(Estimate):
    """The limsup statistic of the partial ratios, in [liminf, limsup]."""

    closed_form: bool


def translation_dimension_formula(ifs: LimitIfs, depth: int) -> TranslationDimension:
    """Partial ratios sum(log p_k) / sum(log 1/lambda_k) up to depth.

    Needs a common ratio per level.  Periodic and stationary systems get the
    exact block-sum closed form; explicit ones report max/min over the tail
    half of the partials as the limsup/liminf estimates, with the limsup as
    the headline value.
    """
    if not ifs.translation_flag:
        raise ValueError("the dimension formula needs one common ratio per level")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if ifs.max_depth is None:
        num = sum(math.log(len(level)) for level in ifs.blocks)
        den = sum(math.log(1.0 / level[0].ratio) for level in ifs.blocks)
        d = num / den
        return TranslationDimension(value=d, lo=d, hi=d, closed_form=True)
    log_p = np.array([math.log(ifs.p(n)) for n in range(1, depth + 1)])
    log_inv = np.array([math.log(1.0 / ifs.ratios(n)[0]) for n in range(1, depth + 1)])
    partials = np.cumsum(log_p) / np.cumsum(log_inv)
    tail = partials[(depth - 1) // 2:]
    return TranslationDimension(
        value=float(tail.max()),
        lo=float(tail.min()),
        hi=float(tail.max()),
        closed_form=False,
    )
