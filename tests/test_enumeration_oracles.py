"""Independent oracles for the two enumerations.

The pair model is checked against a best-first walk of the word tree over a
priority queue, the gap list against a level-by-level Fraction loop.  Both
oracles follow the definitions word by word, so they are slow but easy to
trust; every array they produce must match the library to the last bit.
"""

import heapq
import math
from fractions import Fraction

import numpy as np
import pytest

from fractrace.fractal_geometry import (
    LimitIfs,
    Similarity,
    _future_gap_factor,
    gaps_from_interval_ifs,
    interval_map,
)
from fractrace.spectral_triples import gap_triple, pair_triple
from systems import (
    make_cantor,
    make_periodic,
    make_periodic_gapped,
    make_planar,
    make_uneven,
    random_explicit,
    within,
)


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- pair model -----------------------------------------------------------------

def heap_words(ifs, cap, ceiling):
    """Pop the largest ratio product, push its children; ties go to the
    earlier push.  Returns (lam, lin, off, depth) per popped word and
    whether unpopped words remain."""
    heap = [] if ceiling == 0 else [
        (-w.ratio, j, w.ratio, w.linear, w.translation, 1)
        for j, w in enumerate(ifs.level(1))]
    heapq.heapify(heap)
    serial, popped = len(heap), []
    while heap and len(popped) < cap // 2:
        _, _, lam, lin, off, depth = heapq.heappop(heap)
        popped.append((lam, lin, off, depth))
        if ceiling is None or depth < ceiling:
            for w in ifs.level(depth + 1):
                heapq.heappush(heap, (-(lam * w.ratio), serial, lam * w.ratio,
                                      lin @ w.linear, lin @ w.translation + off,
                                      depth + 1))
                serial += 1
    return popped, bool(heap)


def assert_matches_heap(ifs, cap, max_depth=None, seconds=None):
    """The model against the heap, with pair_triple bounded to ``seconds``
    of wall time when given."""
    def build():
        return pair_triple(ifs, cap=cap, max_depth=max_depth)

    model = build() if seconds is None else within(seconds, build)
    ceiling = ifs.max_depth
    if max_depth is not None:
        ceiling = max_depth if ceiling is None else min(ceiling, max_depth)
    popped, left = heap_words(ifs, cap, ceiling)
    lam, lin, off, depth = (np.array(col) for col in zip(*popped)) if popped \
        else (np.zeros(0), np.zeros((0, ifs.dim, ifs.dim)), np.zeros((0, ifs.dim)),
              np.zeros(0, dtype=np.int64))
    # word lengths in the narrowest unsigned type that holds the deepest
    depth = depth.astype(np.min_scalar_type(depth.max(initial=0)))
    x, y = model.seed_x, model.seed_y
    assert same(model.values, np.repeat(lam * model.seed_distance, 2))
    # two entries per word, one tag row and one depth per word
    assert same(model.tags_x, lin @ x + off)
    assert same(model.tags_y, lin @ y + off)
    assert same(model.depths, depth)
    below_ceiling = ceiling is not None and (
        ifs.max_depth is None or ceiling < ifs.max_depth)
    assert model.truncated == (left or below_ceiling)
    return model


def rotation(theta):
    c, s = math.cos(theta), math.sin(theta)
    return [[c, -s], [s, c]]


def make_rotated() -> LimitIfs:
    return LimitIfs.stationary([Similarity(0.3, [0.0, 0.0], rotation(0.7)),
                                Similarity(0.35, [0.6, 0.1], rotation(2.1)),
                                Similarity(0.25, [0.1, 0.7], rotation(-1.3))])


def make_dyadic() -> LimitIfs:
    """Ratios 1/2 and 1/4: equal products at different word lengths."""
    return LimitIfs.stationary([interval_map(0.5, 0.0), interval_map(0.25, 0.75)])


@pytest.mark.parametrize("build", [make_cantor, make_uneven, make_planar,
                                   make_periodic, make_periodic_gapped,
                                   make_rotated, make_dyadic])
@pytest.mark.parametrize("cap", [1, 2, 3, 2000, 30_000])
def test_pair_order_matches_the_heap(build, cap):
    model = assert_matches_heap(build(), cap)
    assert model.truncated


def make_near_one() -> LimitIfs:
    """A ratio within 4e-12 of 1 beside 0.772: the top words of a cap below
    about 1e11 are the chain of the first map's powers, one per level."""
    return LimitIfs.stationary([interval_map(0.9999999999966, 0.0),
                                interval_map(0.772, 0.228)])


@pytest.mark.parametrize("cap, max_depth, seconds, depth", [
    (20_000, 12, 1.0, 12), (2000, None, 2.0, 1000)], ids=["ceiling", "chain"])
def test_pair_ratio_near_one_ends_in_time(cap, max_depth, seconds, depth):
    """A threshold lowered by a factor of the largest ratio once took about
    1e11 steps here; one walk of the tree ends within the bound.  The chain
    passes depth 255, so its depths promote from uint8 to uint16."""
    model = assert_matches_heap(make_near_one(), cap, max_depth, seconds)
    assert model.truncated and model.depths.max() == depth
    assert model.depths.dtype == np.min_scalar_type(depth)


def test_pair_cap_cutting_a_tie_group():
    # Cantor words of length 5 all share the product 3^-5 and fill ranks
    # 31..62; a cap of 40 words stops inside that group
    model = assert_matches_heap(make_cantor(), 80)
    assert model.depths[-1] == 5 and model.depths.tolist().count(5) == 10


def test_pair_max_depth_zero_and_ceiling():
    assert len(assert_matches_heap(make_uneven(), 1000, max_depth=0)) == 0
    model = assert_matches_heap(make_uneven(), 10**6, max_depth=6)
    assert len(model) == 2 * (2**7 - 2)


@pytest.mark.parametrize("seed", range(4))
def test_pair_explicit_tree_walked_to_the_end(seed):
    ifs = random_explicit(np.random.default_rng(seed), n_levels=6)
    model = assert_matches_heap(ifs, 10**6)
    assert not model.truncated
    assert_matches_heap(ifs, 500)


@pytest.mark.parametrize("build", [
    lambda: gap_triple(gaps_from_interval_ifs(make_cantor(), 8)),
    lambda: gap_triple(gaps_from_interval_ifs(make_uneven(), 12)),
    lambda: pair_triple(make_uneven(), cap=3000),
    lambda: pair_triple(make_planar(), cap=3000),
    lambda: pair_triple(make_rotated(), cap=3000),
], ids=["gap-cantor", "gap-uneven", "pair-uneven", "pair-planar", "pair-rotated"])
def test_tag_matrix_repeats_each_tag_row_for_both_entries(build):
    """Models store one tag row per gap or word; the per-entry tags are each
    row twice, as (entries, dim) arrays, and the tags of the first n entries
    are the first n of those rows."""
    model = build()
    rows = (len(model) // 2, -1)
    tx, ty = model.tag_matrix()
    assert same(tx, np.repeat(model.tags_x.reshape(rows), 2, axis=0))
    assert same(ty, np.repeat(model.tags_y.reshape(rows), 2, axis=0))
    for n in (0, 1, 2, 7, len(model) - 1, len(model), len(model) + 3):
        head_x, head_y = model.tag_matrix(n)
        assert same(head_x, tx[:n]) and same(head_y, ty[:n])


def test_pair_cap_below_one_word_is_empty_and_truncated():
    model = pair_triple(make_cantor(), cap=1)
    assert len(model) == 0 and model.truncated


# --- exact gaps -----------------------------------------------------------------

def fraction_gaps(ifs, depth, a, b):
    """Gaps, their levels and the residual cylinders, one Fraction word at a
    time: each level's pattern of gaps is mapped by every word before it."""
    words, gaps, levels = [(Fraction(1), Fraction(0))], [], []
    for n in range(1, depth + 1):
        maps = [w.exact_affine() for w in ifs.level(n)]
        images = sorted(tuple(sorted((r * a + t, r * b + t))) for r, t in maps)
        cuts = [a] + [e for iv in images for e in iv] + [b]
        pattern = [(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]) if lo < hi]
        for r, t in words:
            for lo, hi in pattern:
                gaps.append(tuple(sorted((r * lo + t, r * hi + t))))
                levels.append(n)
        words = [(r * rr, r * tt + t) for r, t in words for rr, tt in maps]
    residuals = [tuple(sorted((r * a + t, r * b + t))) for r, t in words]
    return gaps, levels, residuals


def assert_matches_fractions(ifs, depth, interval=None):
    g = gaps_from_interval_ifs(ifs, depth, interval=interval, exact=True)
    a, b = Fraction(g.a), Fraction(g.b)   # every hull here is [0, 1]
    assert (a, b) == (0, 1)
    gaps, levels, residuals = fraction_gaps(ifs, depth, a, b)
    starts = np.array([float(lo) for lo, _ in gaps])
    ends = np.array([float(hi) for _, hi in gaps])
    order = np.lexsort((starts, -(ends - starts)))
    assert g.exact
    assert same(g.starts, starts[order]) and same(g.ends, ends[order])
    assert same(g.levels, np.array(levels, dtype=np.min_scalar_type(depth))[order])
    res_starts = np.array([float(lo) for lo, _ in residuals])
    res_ends = np.array([float(hi) for _, hi in residuals])
    ridx = np.argsort(res_starts)
    assert same(g.residual_starts, res_starts[ridx])
    assert same(g.residual_ends, res_ends[ridx])
    assert (b - a) - sum(hi - lo for lo, hi in gaps + residuals) == 0
    assert g.conservation_defect == 0.0
    r_max = float(max(hi - lo for lo, hi in residuals))
    assert g.completeness_cutoff == r_max / (g.b - g.a) * _future_gap_factor(
        ifs, depth, g.a, g.b)
    return g


def test_exact_gaps_with_a_flipped_map():
    ifs = LimitIfs.stationary([
        interval_map(Fraction(1, 3), Fraction(1, 3), flip=True),
        interval_map(Fraction(2, 5), Fraction(3, 5))])
    g = assert_matches_fractions(ifs, 9)
    assert len(g.starts) == 2**9 - 1


def test_exact_gaps_on_periodic_and_explicit_systems():
    quarter, fifth = Fraction(1, 4), Fraction(1, 5)
    periodic = LimitIfs.periodic([
        [interval_map(quarter, 0), interval_map(quarter, Fraction(3, 4))],
        [interval_map(fifth, 0), interval_map(fifth, Fraction(2, 5)),
         interval_map(fifth, Fraction(4, 5))]])
    assert_matches_fractions(periodic, 8, interval=(0, 1))
    explicit = LimitIfs.explicit([
        [interval_map(Fraction(1, 3), 0), interval_map(Fraction(1, 6), Fraction(5, 6))],
        [interval_map(Fraction(2, 7), Fraction(2, 7), flip=True),
         interval_map(Fraction(1, 7), Fraction(3, 7)),
         interval_map(Fraction(1, 4), Fraction(3, 4))],
        [interval_map(Fraction(3, 8), 0), interval_map(Fraction(1, 2), Fraction(1, 2))]])
    assert_matches_fractions(explicit, 3, interval=(0, 1))


def test_exact_gaps_past_int64():
    # D = 77, so the common denominator 77^11 exceeds 2^63
    ifs = LimitIfs.stationary([
        interval_map(Fraction(2, 7), 0),
        interval_map(Fraction(3, 11), Fraction(8, 11))])
    assert 77**11 > 2**63
    g = assert_matches_fractions(ifs, 11)
    assert g.min_gap() > 0.0
