"""Similarity systems, limit-set geometry, gaps, contents, dimensions."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fractrace.errors import (
    BudgetExceeded,
    DivergentSpec,
    EpsilonBelowResolution,
    OverlappingImages,
)
from fractrace.fractal_geometry import (
    GapList,
    LimitIfs,
    Similarity,
    _level_max_gap,
    attractor_cloud,
    box_dimension_estimate,
    contraction_limit,
    cylinder_measure,
    gaps_from_interval_ifs,
    hausdorff_distance,
    interval_map,
    minkowski_content_estimate,
    similarity_dimension,
    translation_dimension_formula,
)
from systems import (
    make_cantor,
    make_periodic,
    make_segment,
    make_planar,
    make_uneven,
    random_explicit,
    within,
)

LOG23 = math.log(2.0) / math.log(3.0)


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# --- similarities ---------------------------------------------------------------

def test_similarity_rejects_bad_ratio_and_orthogonal():
    with pytest.raises(ValueError):
        Similarity(1.0, 0.0)
    with pytest.raises(ValueError):
        Similarity(0.0, 0.0)
    with pytest.raises(ValueError):
        Similarity(0.5, [0.0, 0.0], [[1.0, 0.5], [0.0, 1.0]])


@given(theta=st.floats(0.0, 6.28), ratio=st.floats(0.05, 0.95),
       seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_similarity_scales_all_distances(theta, ratio, seed):
    rng = np.random.default_rng(seed)
    w = Similarity(ratio, [0.3, -1.2], rotation(theta))
    pts = rng.normal(size=(8, 2))
    img = w.apply(pts)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d0 = np.linalg.norm(pts[i] - pts[j])
            d1 = np.linalg.norm(img[i] - img[j])
            assert d1 == pytest.approx(ratio * d0, rel=1e-10)


def test_fixed_point_is_fixed():
    w = Similarity(0.5, [1.0, 2.0], rotation(1.0))
    fp = w.fixed_point()
    np.testing.assert_allclose(w.apply(fp)[0], fp, atol=1e-12)


def test_exact_affine_mirror_for_rational_maps():
    w = interval_map(Fraction(1, 3), Fraction(2, 3))
    a, b = w.exact_affine()
    assert a == Fraction(1, 3) and b == Fraction(2, 3)
    assert interval_map(1 / 3, 0.0).exact_affine() is None
    flip = interval_map(Fraction(1, 2), 1, flip=True)
    a, b = flip.exact_affine()
    assert a == Fraction(-1, 2) and b == 1


def test_flip_map_reverses_orientation():
    w = interval_map(0.5, 1.0, flip=True)
    assert w.apply(np.array([[0.0]]))[0, 0] == pytest.approx(1.0)
    assert w.apply(np.array([[1.0]]))[0, 0] == pytest.approx(0.5)


# --- system structure -------------------------------------------------------------

def test_stationary_repeats_its_block():
    ifs = make_cantor()
    assert ifs.dim == 1
    assert ifs.max_depth is None
    np.testing.assert_allclose(ifs.ratios(1), ifs.ratios(7))


def test_periodic_cycles_blocks():
    ifs = make_periodic()
    assert ifs.p(1) == 2 and ifs.p(2) == 3
    assert ifs.p(3) == 2  # cycle wraps
    np.testing.assert_allclose(ifs.ratios(4), [1 / 3, 1 / 3, 1 / 3])


def test_explicit_levels_run_out():
    rng = np.random.default_rng(0)
    ifs = random_explicit(rng, n_levels=4)
    assert ifs.max_depth == 4
    with pytest.raises(ValueError):
        ifs.level(5)
    # a run past the last level is refused where the level is looked up
    for run in (lambda: gaps_from_interval_ifs(ifs, 5, interval=(0.0, 1.0)),
                lambda: translation_dimension_formula(ifs, 5)):
        with pytest.raises(ValueError, match="level 5 beyond the 4 explicit"):
            run()


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        LimitIfs.stationary([interval_map(0.5, 0.0),
                             Similarity(0.5, [0.0, 0.0])])


def test_osc_box_assertion_recorded_and_checked():
    ifs = LimitIfs.stationary(
        [interval_map(1 / 3, 0.0), interval_map(1 / 3, 2 / 3)],
        osc_box=([0.0], [1.0]))
    assert ifs.osc_box is not None
    assert ifs.osc_overlap_evidence(depth=2) == 0.0
    bad = LimitIfs.stationary(
        [interval_map(0.6, 0.0), interval_map(0.6, 0.4)],
        osc_box=([0.0], [1.0]))
    assert bad.osc_overlap_evidence() > 0.0


# --- similarity dimension ----------------------------------------------------------

def test_similarity_dimension_middle_thirds():
    assert similarity_dimension(make_cantor()) == pytest.approx(LOG23, abs=1e-12)


def test_similarity_dimension_full_interval():
    assert similarity_dimension(make_segment()) == pytest.approx(1.0, abs=1e-12)


def test_similarity_dimension_single_map_degenerate():
    assert similarity_dimension([0.5]) == pytest.approx(0.0, abs=1e-12)


def test_similarity_dimension_against_root_finder():
    got = similarity_dimension(make_uneven())
    want = brentq(lambda s: 0.5**s + (1.0 / 3.0) ** s - 1.0, 0.1, 1.0,
                  xtol=1e-14)
    assert got == pytest.approx(want, abs=1e-10)


@given(r1=st.floats(0.05, 0.6), r2=st.floats(0.05, 0.35))
@settings(max_examples=30, deadline=None)
def test_similarity_dimension_solves_the_moment_equation(r1, r2):
    d = similarity_dimension([r1, r2])
    assert r1**d + r2**d == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("ifs", [
    lambda: random_explicit(np.random.default_rng(0)), list],
    ids=["explicit", "no-ratio"])
def test_similarity_dimension_refuses(ifs):
    with pytest.raises(ValueError):
        similarity_dimension(ifs())


# --- hausdorff distance ---------------------------------------------------------------

def test_hausdorff_distance_hand_case():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.25]])
    # sup over a of dist to b is 0.75; sup over b of dist to a is 0.25
    assert hausdorff_distance(a, b) == pytest.approx(0.75)
    assert hausdorff_distance(b, a) == pytest.approx(0.75)


def test_hausdorff_distance_zero_on_equal_clouds():
    pts = np.random.default_rng(3).normal(size=(20, 2))
    assert hausdorff_distance(pts, pts) == 0.0


# --- contraction runs ------------------------------------------------------------------

def test_single_map_contracts_to_fixed_point():
    ifs = LimitIfs.stationary([interval_map(0.5, 0.0)])
    run = contraction_limit(ifs, [1.0], depth=30)
    assert abs(run.cloud[0, 0]) < 1e-8
    np.testing.assert_allclose(run.rho[1:] / run.rho[:-1], 0.5, rtol=1e-9)
    assert run.bound_margin() <= 1.0 + 1e-9


def test_cantor_iterates_are_cauchy():
    ifs = make_cantor()
    r12 = contraction_limit(ifs, [0.0], depth=12)
    r13 = contraction_limit(ifs, [0.0], depth=13)
    assert hausdorff_distance(r12.cloud, r13.cloud) <= 3.0**-12 + 1e-15
    assert run_margin_ok(r12)


def run_margin_ok(run) -> bool:
    return run.bound_margin() <= 1.0 + 1e-9


def test_contraction_bound_on_random_nonstationary_specs():
    # the step distance never exceeds displacement x ratio product
    rng = np.random.default_rng(42)
    for _ in range(10):
        ifs = random_explicit(rng, n_levels=8)
        run = contraction_limit(ifs, [0.5], depth=8)
        assert run_margin_ok(run)
        assert np.all(run.rho >= 0.0)


def test_contraction_seed_independence_bound():
    ifs = make_uneven()
    a = contraction_limit(ifs, [0.0], depth=10)
    b = contraction_limit(ifs, [5.0], depth=10)
    prod = 0.5**10  # product of per-level worst ratios
    assert hausdorff_distance(a.cloud, b.cloud) <= prod * 5.0 + 1e-12


def test_contraction_refuses_non_contracting_runs():
    # ratio products decay by well under 1% across the tail half, so the
    # refusal has to come from the upfront product check, not the budget
    ifs = LimitIfs.stationary([interval_map(0.9999, 0.0),
                               interval_map(0.9999, 0.001)])
    with pytest.raises(DivergentSpec):
        contraction_limit(ifs, [1.0], depth=24, budget=100_000)


def test_contraction_budget_guard():
    with pytest.raises(BudgetExceeded):
        contraction_limit(make_cantor(), [0.0], depth=40, budget=10_000)


def test_the_contraction_budget_counts_every_seed_point():
    """Three seed points under the two Cantor maps are 3 * 2**n points at
    depth n: a budget of 100 takes depth 5 (96) and refuses level 6 (192)."""
    seed = [0.0, 0.5, 1.0]
    run = contraction_limit(make_cantor(), seed, depth=5, budget=100)
    assert run.cloud.shape == (96, 1)
    with pytest.raises(BudgetExceeded, match="level 6 needs 192 points"):
        contraction_limit(make_cantor(), seed, depth=6, budget=100)


# --- attractor clouds ---------------------------------------------------------------------

def test_cantor_depth2_points():
    cloud = attractor_cloud(make_cantor(), depth=2, seed=[0.0])
    got = np.sort(cloud.points[:, 0])
    np.testing.assert_allclose(got, [0.0, 2.0 / 9.0, 2.0 / 3.0, 8.0 / 9.0],
                               atol=1e-15)
    np.testing.assert_allclose(cloud.word_ratios, 1.0 / 9.0)


def test_depth_zero_cloud_is_the_seed():
    cloud = attractor_cloud(make_cantor(), depth=0, seed=[0.3])
    assert cloud.points.shape == (1, 1)
    assert cloud.points[0, 0] == 0.3


def test_cloud_seed_independence_within_contraction_bound():
    ifs = make_planar()
    a = attractor_cloud(ifs, depth=6, seed=[0.0, 0.0])
    b = attractor_cloud(ifs, depth=6, seed=[1.0, 1.0])
    bound = (1.0 / 3.0) ** 6 * math.sqrt(2.0)
    assert hausdorff_distance(a.points, b.points) <= bound + 1e-12


def test_cloud_resolution_tracks_depth():
    c1 = attractor_cloud(make_cantor(), depth=4)
    c2 = attractor_cloud(make_cantor(), depth=8)
    assert c1.resolution == pytest.approx(c1.diameter() * 3.0**-4, rel=1e-12)
    assert c2.resolution < c1.resolution
    assert c1.points.shape[0] == 16


def test_cloud_budget_guard():
    with pytest.raises(BudgetExceeded):
        attractor_cloud(make_cantor(), depth=40, budget=100_000)


# --- cylinder measures -----------------------------------------------------------------------

def test_stationary_weights_are_ratio_powers():
    ifs = make_uneven()
    d = similarity_dimension(ifs)
    cm = cylinder_measure(ifs, d, depth=3)
    lam = (0.5, 1.0 / 3.0)
    for word in [(1, 1, 1), (1, 2, 1), (2, 2, 2), (2, 1, 2)]:
        want = np.prod([lam[j - 1] for j in word]) ** d
        assert cm.weight(word) == pytest.approx(want, rel=1e-12)


def test_weights_normalize_exactly():
    cm = cylinder_measure(make_uneven(), 0.7, depth=6)
    assert cm.weights.sum() == pytest.approx(1.0, abs=1e-14)


def test_children_sum_exactly_to_parent():
    ifs = make_uneven()
    c3 = cylinder_measure(ifs, 0.7, depth=3)
    c4 = cylinder_measure(ifs, 0.7, depth=4)
    w4 = c4.weights.reshape(-1, 2)  # group the level-4 digit
    np.testing.assert_allclose(w4.sum(axis=1), c3.weights, rtol=1e-14)


def test_translation_weights_ignore_the_exponent():
    ifs = make_periodic()
    a = cylinder_measure(ifs, 0.3, depth=4).weights
    b = cylinder_measure(ifs, 1.7, depth=4).weights
    np.testing.assert_allclose(a, b, rtol=1e-14)
    # and they are the uniform digit products 1/p_1 ... 1/p_m
    assert a[0] == pytest.approx(1.0 / (2 * 3 * 2 * 3), rel=1e-14)


def test_cantor_level1_split_is_even():
    cm = cylinder_measure(make_cantor(), 1.0, depth=1)
    np.testing.assert_allclose(cm.weights, [0.5, 0.5], rtol=1e-15)


def test_cylinder_measure_input_guards():
    with pytest.raises(ValueError):
        cylinder_measure(make_cantor(), 0.0, depth=2)
    cm = cylinder_measure(make_cantor(), 1.0, depth=2)
    with pytest.raises(ValueError):
        cm.weight((1, 3))  # digit out of range
    with pytest.raises(ValueError):
        cm.weight((1, 2, 1))  # word longer than depth
    with pytest.raises(BudgetExceeded) as e:
        cylinder_measure(make_cantor(), 1.0, depth=4, budget=10)
    assert e.value.code == "BUDGET_EXCEEDED"


# --- box counting -----------------------------------------------------------------------------

def test_box_dimension_of_a_segment():
    pts = np.linspace(0.0, 1.0, 20_000).reshape(-1, 1)
    est = box_dimension_estimate(pts)
    assert est.value == pytest.approx(1.0, abs=0.05)
    assert est.lo <= est.value <= est.hi


def test_box_dimension_of_the_middle_thirds_set():
    cloud = attractor_cloud(make_cantor(), depth=12)
    est = box_dimension_estimate(cloud)
    assert est.value == pytest.approx(LOG23, abs=0.03)


def test_box_dimension_single_point_is_zero():
    est = box_dimension_estimate(np.zeros((1, 2)))
    assert est.value == pytest.approx(0.0, abs=1e-9)


def test_box_grid_below_resolution_rejected():
    cloud = attractor_cloud(make_cantor(), depth=6)
    with pytest.raises(EpsilonBelowResolution):
        box_dimension_estimate(cloud, eps=np.geomspace(1e-2, 1e-9, 30))
    # two points resolve nothing finer than their distance, above the
    # default grid's top of diameter / 8
    with pytest.raises(EpsilonBelowResolution, match="no usable grid") as e:
        box_dimension_estimate(np.array([[0.0], [1.0]]))
    assert e.value.code == "EPSILON_BELOW_RESOLUTION"


# --- gap lists ---------------------------------------------------------------------------------

def test_cantor_first_gap():
    gaps = gaps_from_interval_ifs(make_cantor(), depth=1)
    assert gaps.exact
    assert gaps.starts[0] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert gaps.ends[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert gaps.conservation_defect == 0.0


def test_cantor_depth3_multiset():
    gaps = gaps_from_interval_ifs(make_cantor(), depth=3)
    assert len(gaps.lengths) == 7
    want = np.array([1 / 3, 1 / 9, 1 / 9, 1 / 27, 1 / 27, 1 / 27, 1 / 27])
    # endpoints round to float individually, so lengths are off by ~1 ulp
    np.testing.assert_allclose(gaps.lengths, want, rtol=1e-12)
    np.testing.assert_array_equal(np.sort(gaps.levels), [1, 2, 2, 3, 3, 3, 3])
    assert gaps.min_gap() == pytest.approx(3.0**-3, rel=1e-15)
    assert gaps.min_gap() > gaps.completeness_cutoff


def test_uneven_depth2_hand_enumeration():
    gaps = gaps_from_interval_ifs(make_uneven(), depth=2)
    np.testing.assert_allclose(np.sort(gaps.lengths)[::-1],
                               [1 / 6, 1 / 12, 1 / 18], rtol=1e-12)
    assert gaps.exact
    assert gaps.conservation_defect == 0.0


def test_truncated_list_is_a_complete_prefix():
    # every length strictly above the cutoff is final: deeper enumeration
    # inserts nothing among them
    shallow = gaps_from_interval_ifs(make_uneven(), depth=6)
    deep = gaps_from_interval_ifs(make_uneven(), depth=10)
    assert shallow.completeness_cutoff > 0.0
    kept = shallow.lengths[shallow.lengths > shallow.completeness_cutoff]
    assert len(kept) > 20
    np.testing.assert_array_equal(kept, deep.lengths[: len(kept)])


NEAR_ONE = [interval_map(0.999999999923, 0.0), interval_map(3.9e-76, 0.9999999999)]


@pytest.mark.parametrize("ifs, interval", [
    (LimitIfs.stationary(NEAR_ONE), None),
    (LimitIfs.periodic([[interval_map(0.9999999999, 0.0),
                         interval_map(1e-11, 1.0 - 1e-11)],
                        [interval_map(0.999999999923, 0.0),
                         interval_map(1e-12, 1.0 - 1e-12)]]), (0.0, 1.0)),
], ids=["stationary", "periodic"])
def test_a_ratio_near_one_leaves_the_cutoff_quick(ifs, interval):
    """A largest ratio within 1e-10 of 1 once made the completeness cutoff
    step through about 1e11 levels.  One period of levels past the depth
    gives the sup: the first level's gap on a stationary system, the larger
    of the first gap and the second scaled by the first largest ratio on a
    period of two."""
    gaps = within(2.0, lambda: gaps_from_interval_ifs(ifs, 11, interval=interval))
    unit = gaps.residual_lengths.max() / (gaps.b - gaps.a)
    terms = [_level_max_gap(ifs.level(k), gaps.a, gaps.b) for k in (12, 13)]
    if len(ifs.period) == 1:
        sup = terms[0]
    else:
        sup = max(terms[0], max(w.ratio for w in ifs.level(12)) * terms[1])
    assert gaps.completeness_cutoff == unit * sup > 0.0


def test_gap_conservation_against_residuals():
    gaps = gaps_from_interval_ifs(make_uneven(), depth=8)
    total = gaps.lengths.sum() + gaps.residual_lengths.sum()
    assert total == pytest.approx(gaps.diameter, abs=1e-12)
    assert gaps.conservation_defect == 0.0


def test_exact_arithmetic_requires_rational_maps():
    float_cantor = LimitIfs.stationary([interval_map(1 / 3, 0.0),
                                        interval_map(1 / 3, 2 / 3)])
    with pytest.raises(ValueError):
        gaps_from_interval_ifs(float_cantor, depth=3, exact=True)
    auto = gaps_from_interval_ifs(float_cantor, depth=3)
    assert not auto.exact
    assert abs(auto.conservation_defect) < 1e-12


def test_an_exact_hull_needs_every_map_exact():
    """Two exact maps realize both ends of the hull and a third is given in
    floats: the hull, and with it the whole gap list, is the float one, bit
    for bit the list of the same system given all in floats."""
    third = interval_map(0.1, 0.45)
    mixed = LimitIfs.stationary([interval_map(Fraction(1, 3), Fraction(0)),
                                 interval_map(Fraction(1, 3), Fraction(2, 3)),
                                 third])
    floats = LimitIfs.stationary([interval_map(1 / 3, 0.0),
                                  interval_map(1 / 3, 2 / 3), third])
    got = gaps_from_interval_ifs(mixed, depth=5)
    want = gaps_from_interval_ifs(floats, depth=5)
    assert not got.exact
    for name in ("starts", "ends", "levels", "residual_starts",
                 "residual_ends"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for name in ("a", "b", "conservation_defect", "completeness_cutoff"):
        assert getattr(got, name) == getattr(want, name)


def test_the_box_is_the_default_interval():
    """With no interval the asserted box bounds the analysis, here wider
    than the hull [0, 1]: the list is the one with the box as interval."""
    maps = [interval_map(0.3, 0.0), interval_map(0.3, 0.7)]
    boxed = LimitIfs.stationary(maps, osc_box=([-0.1], [1.1]))
    got = gaps_from_interval_ifs(boxed, depth=6)
    want = gaps_from_interval_ifs(LimitIfs.stationary(maps), depth=6,
                                  interval=(-0.1, 1.1))
    assert (got.a, got.b) == (-0.1, 1.1)
    for name in ("starts", "ends", "levels", "residual_starts",
                 "residual_ends"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    for name in ("exact", "conservation_defect", "completeness_cutoff"):
        assert getattr(got, name) == getattr(want, name)


def test_a_float_run_of_exact_maps_matches_the_exact_list():
    """exact=False on a rational system, one map flipped: the count and the
    level of each gap are the exact run's, each endpoint within 4 ulps of
    the hull's scale (its upper end, 1), where the float words round."""
    ifs = LimitIfs.stationary([interval_map(Fraction(1, 3), Fraction(1, 3),
                                            flip=True),
                               interval_map(Fraction(1, 4), Fraction(3, 4))])
    exact = gaps_from_interval_ifs(ifs, depth=9)
    floats = gaps_from_interval_ifs(ifs, depth=9, exact=False)
    assert exact.exact and not floats.exact
    assert len(floats.starts) == len(exact.starts) == 2**9 - 1
    # equal lengths may sort apart by an ulp: compare in position order
    e, f = np.argsort(exact.starts), np.argsort(floats.starts)
    assert (floats.levels[f] == exact.levels[e]).all()
    for name in ("starts", "ends"):
        want = getattr(exact, name)[e]
        assert (np.abs(getattr(floats, name)[f] - want)
                <= 4 * np.spacing(exact.b)).all()


@pytest.mark.parametrize("flip_left", [False, True])
@pytest.mark.parametrize("flip_right", [False, True])
def test_exact_hull_for_every_orientation(flip_left, flip_right):
    """The exact hull of two maps onto [0, 1/3] and [3/4, 1], each in either
    orientation, is [0, 1] in Fractions."""
    left = interval_map(Fraction(1, 3), Fraction(1, 3) if flip_left else 0,
                        flip=flip_left)
    right = interval_map(Fraction(1, 4), 1 if flip_right else Fraction(3, 4),
                         flip=flip_right)
    gaps = gaps_from_interval_ifs(LimitIfs.stationary([left, right]), 2)
    assert gaps.exact
    assert (gaps.a, gaps.b) == (0.0, 1.0)
    assert (gaps.starts[0], gaps.ends[0]) == (1 / 3, 3 / 4)


@pytest.mark.parametrize("one", [interval_map(0.5, 0.3),
                                 interval_map(Fraction(1, 2), Fraction(3, 10))])
def test_one_map_has_no_default_bounding_interval(one):
    """x -> x/2 + 3/10 leaves only its fixed point 3/5 invariant, so the
    default bounding interval is degenerate, in floats and in Fractions."""
    with pytest.raises(ValueError, match="bounding interval is degenerate"):
        gaps_from_interval_ifs(LimitIfs.stationary([one]), depth=4)


def test_overlapping_images_rejected():
    bad = LimitIfs.stationary([interval_map(0.6, 0.0),
                               interval_map(0.6, 0.4)])
    with pytest.raises(OverlappingImages):
        gaps_from_interval_ifs(bad, depth=2)


def test_touching_images_rejected_for_gap_analysis():
    # abutting halves leave no decided gaps at any depth, and the endpoint
    # arithmetic cannot certify finality: refused rather than guessed
    with pytest.raises(OverlappingImages):
        gaps_from_interval_ifs(make_segment(), depth=5)


def test_min_gap_needs_at_least_one_gap():
    gaps = GapList.from_intervals([(0.0, 0.25), (0.5, 1.0)])
    assert gaps.min_gap() == pytest.approx(0.25)
    with pytest.raises(ValueError):
        GapList.from_intervals([(0.0, 1.0)]).min_gap()


def test_gap_budget_guard():
    with pytest.raises(BudgetExceeded):
        gaps_from_interval_ifs(make_cantor(), depth=30, budget=1000)


def test_from_intervals_finite_union():
    gaps = GapList.from_intervals([(0, Fraction(1, 4)), (Fraction(1, 2), 1)])
    assert gaps.residual_solid
    assert gaps.exact
    np.testing.assert_allclose(gaps.lengths, [0.25])
    assert gaps.conservation_defect == 0.0
    with pytest.raises(OverlappingImages):
        GapList.from_intervals([(0.0, 0.5), (0.4, 1.0)])
    with pytest.raises(ValueError):
        GapList.from_intervals([(0.5, 0.5)])


def test_from_intervals_decides_exactness_for_the_whole_list():
    """One float endpoint makes every endpoint a float, so a mixed list is
    its all-float version to the last bit; all-Fraction lists stay exact."""
    mixed = GapList.from_intervals([(0, Fraction(9, 97)),
                                    (Fraction(1, 3), Fraction(33, 97)),
                                    (2 / 3, 1.0)])
    floats = GapList.from_intervals([(0.0, 9 / 97), (1 / 3, 33 / 97),
                                     (2 / 3, 1.0)])
    assert not mixed.exact
    for f in dataclasses.fields(GapList):
        a, b = getattr(mixed, f.name), getattr(floats, f.name)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), f.name
    exact = GapList.from_intervals([(0, Fraction(9, 97)),
                                    (Fraction(1, 3), Fraction(33, 97)),
                                    (Fraction(2, 3), 1)])
    assert exact.exact and exact.conservation_defect == 0.0


# --- tube volumes ------------------------------------------------------------------------------

def test_finite_union_content_at_full_dimension():
    gaps = GapList.from_intervals([(0.0, 0.25), (0.5, 0.75)])
    mc = minkowski_content_estimate(gaps, 1.0)
    # vol S_eps -> total length as eps -> 0 when d = 1
    assert mc.value == pytest.approx(0.5, rel=0.05)


def test_middle_thirds_content_oscillates():
    gaps = gaps_from_interval_ifs(make_cantor(), depth=14)
    mc = minkowski_content_estimate(gaps, LOG23)
    assert not mc.measurable
    assert mc.oscillation > 0.002
    assert 2.3 < mc.value < 2.7


def test_uneven_content_settles():
    gaps = gaps_from_interval_ifs(make_uneven(), depth=18)
    d = similarity_dimension(make_uneven())
    mc = minkowski_content_estimate(gaps, d)
    assert mc.measurable
    assert mc.oscillation < mc.oscillation_coarse
    assert mc.lo <= mc.value <= mc.hi


@given(r1=st.floats(0.05, 0.45), r2=st.floats(0.05, 0.45),
       depth=st.integers(1, 8), d=st.floats(0.05, 1.0))
@settings(max_examples=60, deadline=None)
def test_content_keeps_the_first_epsilon(r1, r2, depth, d):
    """The grid starts at half the diameter, where 2 eps covers every
    residual interval whole, so that eps has no straddle and is kept."""
    ifs = LimitIfs.stationary([interval_map(r1, 0.0),
                               interval_map(r2, 1.0 - r2)])
    gaps = gaps_from_interval_ifs(ifs, depth)
    mc = minkowski_content_estimate(gaps, d)
    assert mc.eps[0] == gaps.diameter / 2


def test_content_exponent_domain():
    gaps = gaps_from_interval_ifs(make_cantor(), depth=6)
    with pytest.raises(ValueError):
        minkowski_content_estimate(gaps, 0.0)
    with pytest.raises(ValueError):
        minkowski_content_estimate(gaps, 1.5)


def test_content_of_gaps_that_round_to_0_fails_typed():
    """Depth-3 gaps of two maps of ratio 1e-200 round to 0, so no tube width
    resolves them."""
    ifs = LimitIfs.stationary([interval_map(1e-200, 0.0),
                               interval_map(1e-200, 0.5)])
    gaps = gaps_from_interval_ifs(ifs, depth=3)
    assert gaps.min_gap() == 0.0
    with pytest.raises(EpsilonBelowResolution, match="smallest gap is 0"):
        minkowski_content_estimate(gaps, 0.5)


# --- common-ratio dimension formula --------------------------------------------------------------

def test_formula_matches_middle_thirds():
    td = translation_dimension_formula(make_cantor(), depth=8)
    assert td.closed_form
    assert td.value == pytest.approx(LOG23, abs=1e-12)


def test_formula_periodic_closed_form():
    td = translation_dimension_formula(make_periodic(), depth=6)
    want = (math.log(2) + math.log(3)) / (math.log(4) + math.log(3))
    assert td.closed_form
    assert td.value == pytest.approx(want, abs=1e-12)
    assert td.hi == td.lo == td.value


def test_formula_explicit_runs_spread_bounds():
    # doubling runs of two block types: the partial ratios keep swinging,
    # so limsup and liminf stay apart
    levels = []
    for k in range(6):
        block = [interval_map(0.25, 0.0), interval_map(0.25, 0.75)] \
            if k % 2 == 0 else \
            [interval_map(1 / 3, 0.0), interval_map(1 / 3, 1 / 3),
             interval_map(1 / 3, 2 / 3)]
        levels.extend([block] * 2**k)
    ifs = LimitIfs.explicit(levels)
    td = translation_dimension_formula(ifs, depth=len(levels))
    assert not td.closed_form
    assert td.hi > td.lo + 0.01
    assert td.value == td.hi


def test_formula_needs_common_ratio_per_level():
    with pytest.raises(ValueError):
        translation_dimension_formula(make_uneven(), depth=4)
    with pytest.raises(ValueError):
        translation_dimension_formula(make_cantor(), depth=0)
