"""Eigenvalue models over gap lists and word trees, zeta data, functionals."""

import dataclasses
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractrace import reporting
from fractrace.asymptotics import eccentricity_scan, resolve_kind
from fractrace.errors import (EmptySubsequence, Overflow, SBelowDimension,
                              SeedCoincident, Underflow)
from fractrace.fractal_geometry import (
    GapList,
    LimitIfs,
    Similarity,
    gaps_from_interval_ifs,
    similarity_dimension,
)
from fractrace.spectral_triples import (
    affine_functional,
    box_indicator,
    functional_spectrum,
    gap_triple,
    hausdorff_functional,
    minkowski_link_check,
    pair_triple,
    sample_functional,
    spectral_dimension,
    zeta_partial,
    zeta_residue,
)
from systems import (
    make_cantor,
    make_planar,
    make_segment,
    make_uneven,
    random_explicit,
    within,
)

LOG23 = math.log(2.0) / math.log(3.0)


def cantor_gap_model(depth):
    return gap_triple(gaps_from_interval_ifs(make_cantor(), depth=depth))


def middle_thirds_intervals(depth):
    """Level-``depth`` construction intervals of the middle-thirds set, exact."""
    ints = [(Fraction(0), Fraction(1))]
    for _ in range(depth):
        step = []
        for a, b in ints:
            w = (b - a) / 3
            step += [(a, a + w), (b - w, b)]
        ints = step
    return ints


# --- models ---------------------------------------------------------------------

def test_gap_model_doubles_each_gap():
    model = cantor_gap_model(3)
    assert len(model) == 14
    assert np.array_equal(model.values[0::2], model.values[1::2])
    expected = np.repeat([1 / 3, 1 / 9, 1 / 9, 1 / 27, 1 / 27, 1 / 27, 1 / 27], 2)
    np.testing.assert_allclose(model.values, expected, rtol=1e-12)
    assert np.repeat(model.gaps.levels, 2).tolist() == [1, 1, 2, 2, 2, 2] + [3] * 8
    assert model.truncated


def test_gap_model_tags_subtract_to_values():
    model = cantor_gap_model(5)
    # lengths are stored as end minus start, so this holds to the last bit
    # for both entries of every gap
    assert model.tags_x.shape == (len(model) // 2,)
    for copy in (model.values[0::2], model.values[1::2]):
        assert np.array_equal(model.tags_y - model.tags_x, copy)
    tx, ty = model.tag_matrix()
    assert tx.shape == (len(model), 1) and ty.shape == (len(model), 1)


def test_a_model_is_complete_unless_truncated():
    truncated = cantor_gap_model(5)
    complete = gap_triple(GapList.from_intervals(middle_thirds_intervals(5)))
    for model in (truncated, complete):
        assert model.eigen.complete is not model.truncated
        assert np.shares_memory(model.eigen.values, model.values)


def test_gap_model_needs_gaps():
    with pytest.raises(ValueError, match="no gaps"):
        gap_triple(GapList.from_intervals([(0.0, 1.0)]))


def test_gap_model_refuses_gaps_that_round_to_length_0():
    """Depth-3 gaps of two maps of ratio 1e-150: 4 of the 7 round to length
    0, among them the copies near 0.5 of the gaps of 5e-151 and 5e-301 near
    0."""
    ifs = LimitIfs.stationary([Similarity(1e-150, [0.0]),
                               Similarity(1e-150, [0.5])])
    gaps = gaps_from_interval_ifs(ifs, depth=3)
    assert np.count_nonzero(gaps.lengths) == 3
    with pytest.raises(Underflow, match="rounds to length 0"):
        gap_triple(gaps)


def test_pair_model_enumerates_level_two():
    model = pair_triple(make_cantor(), seed=((0.0,), (1.0,)), max_depth=2)
    assert len(model) == 12
    assert model.seed_distance == 1.0
    expected = np.repeat([1 / 3, 1 / 3, 1 / 9, 1 / 9, 1 / 9, 1 / 9], 2)
    np.testing.assert_allclose(model.values, expected, rtol=1e-12)
    assert set(model.depths.tolist()) == {1, 2}
    assert model.truncated


def test_pair_enumeration_stops_at_float_underflow():
    """Two maps of ratio 1e-103 have 14 words whose ratio products stay
    above float underflow.  A cap that asks for more gets those, marked
    truncated, within a second: the walk drops the words whose entries
    round to 0, and with them the rest of the tree."""
    ifs = LimitIfs.stationary([Similarity(1e-103, 0.0),
                               Similarity(1e-103, 1.0 - 1e-103)])
    model = within(1.0, lambda: pair_triple(ifs, cap=30))
    assert len(model) == 28 and model.truncated
    assert np.all(model.values > 0)


def test_pair_entries_that_round_to_zero_stay_out():
    """Two maps of ratio 3.2e-162 at seed distance 0.1: the depth-2 words
    have a positive ratio product, but their entries round to 0."""
    ifs = LimitIfs.stationary([Similarity(3.2e-162, 0.0),
                               Similarity(3.2e-162, 0.1)])
    model = pair_triple(ifs, cap=16)
    assert model.truncated and len(model) == 4
    assert np.all(model.values > 0)


def test_pair_model_tags_lie_at_value_distance():
    model = pair_triple(make_cantor(), seed=((0.0,), (1.0,)), max_depth=6)
    dist = np.linalg.norm(model.tags_x - model.tags_y, axis=1)
    for copy in (model.values[0::2], model.values[1::2]):
        np.testing.assert_allclose(dist, copy, rtol=1e-12)


def test_pair_model_depth_zero_is_empty():
    model = pair_triple(make_cantor(), max_depth=0)
    assert len(model) == 0
    with pytest.raises(ValueError, match="no entries"):
        sample_functional(model, lambda x: x)


def test_pair_enumeration_matches_sorted_oracle():
    ifs = make_uneven()
    level = ifs.level(1)
    ratios = [float(w.ratio) for w in level]
    d0 = abs(level[0].fixed_point()[0] - level[1].fixed_point()[0])
    brute = []
    for k in range(1, 9):
        for word in itertools.product(ratios, repeat=k):
            brute.append(float(np.prod(word)) * d0)
    brute = np.sort(np.asarray(brute))[::-1]
    model = pair_triple(ifs, max_depth=8, cap=10**9)
    assert len(model) == 2 * len(brute)
    # the pruned level-wise frontier yields exactly the order a full sort would
    assert np.array_equal(model.values[0::2], brute)
    assert np.all(np.diff(model.values) <= 0.0)


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_pair_model_shape_invariants(seed):
    ifs = random_explicit(np.random.default_rng(seed), n_levels=6)
    model = pair_triple(ifs, seed=((0.0,), (1.0,)), cap=2000)
    assert np.all(np.diff(model.values) <= 0.0)
    assert np.array_equal(model.values[0::2], model.values[1::2])
    dist = np.linalg.norm(model.tags_x - model.tags_y, axis=1)
    for copy in (model.values[0::2], model.values[1::2]):
        np.testing.assert_allclose(dist, copy, rtol=1e-9)


def test_pair_seed_guards():
    with pytest.raises(SeedCoincident):
        pair_triple(make_planar(), seed=((0.3, 0.3), (0.3, 0.3)))
    boxed = LimitIfs.stationary(
        [Similarity(1 / 3, [0.0, 0.0]), Similarity(1 / 3, [2 / 3, 0.0])],
        osc_box=([0.0, 0.0], [1.0, 1.0]))
    with pytest.raises(ValueError, match="bounding box"):
        pair_triple(boxed, seed=((-5.0, 0.0), (1.0, 1.0)))
    lonely = LimitIfs.stationary([Similarity(1 / 2, [0.0])])
    with pytest.raises(ValueError, match="seed"):
        pair_triple(lonely)
    with pytest.raises(ValueError):
        pair_triple(make_cantor(), max_depth=-1)


def test_a_seed_distance_that_overflows_is_refused():
    """|x - y| = 2e308 leaves the float range: a ValueError, with no
    RuntimeWarning on the way."""
    ifs = LimitIfs.stationary([Similarity(0.3, [0.0]), Similarity(0.4, [0.6])])
    with pytest.raises(ValueError, match="distance overflows"):
        pair_triple(ifs, seed=((-1e308,), (1e308,)), cap=2000)


def test_pair_default_seed_is_fixed_point_pair():
    model = pair_triple(make_cantor(), max_depth=1)
    assert model.seed_x[0] == 0.0
    assert model.seed_distance == pytest.approx(1.0, abs=1e-12)


def test_pair_model_scaling_covariance():
    def system(scale):
        return LimitIfs.stationary([
            Similarity(Fraction(1, 2), [Fraction(0) * scale]),
            Similarity(Fraction(1, 3), [Fraction(2, 3) * scale]),
        ])

    base = pair_triple(system(1), cap=40_000)
    wide = pair_triple(system(4), cap=40_000)
    # stretching space by 4 stretches every eigenvalue by exactly 4
    assert np.array_equal(wide.values, 4.0 * base.values)
    d_base = spectral_dimension(base)
    d_wide = spectral_dimension(wide)
    assert abs(d_base.value - d_wide.value) < 0.01


def write_entries(tmp_path, name, model, max_rows):
    """A model's entries CSV as the reporting runners write it."""
    out = reporting._Series(SimpleNamespace(series=True, name=name), tmp_path)
    out.write("entries", *reporting._entries_table(model, max_rows),
              max_rows, numbered=True)
    return tmp_path / out.files["entries"]


def test_model_csv_round_trip(tmp_path):
    gap_path = write_entries(tmp_path, "gaps", cantor_gap_model(3), 5)
    lines = gap_path.read_text().splitlines()
    assert lines[0] == "k,mu_k,tag_x,tag_y"
    assert len(lines) == 6
    assert [float(c) for c in lines[1].split(",")] == [1.0, 1 / 3, 1 / 3, 2 / 3]

    pair_path = write_entries(tmp_path, "pairs",
                              pair_triple(make_planar(), cap=100), 3)
    lines = pair_path.read_text().splitlines()
    assert lines[0] == "k,mu_k,tag_x_1,tag_x_2,tag_y_1,tag_y_2"
    assert len(lines) == 4


# --- spectral dimension -----------------------------------------------------------

def test_gap_dimension_recovers_cantor():
    est = spectral_dimension(cantor_gap_model(14))
    assert abs(est.value - LOG23) < 0.01
    assert est.lo <= est.value <= est.hi
    # the no-fit route reads the same exponent off the raw length list
    assert est.length_scaling == pytest.approx(LOG23, abs=1e-3)


def test_pair_dimension_recovers_cantor():
    est = spectral_dimension(pair_triple(make_cantor(), cap=2 * 10**5))
    assert abs(est.value - LOG23) < 0.01
    assert est.length_scaling is None


def test_pair_dimension_recovers_full_interval():
    est = spectral_dimension(pair_triple(make_segment(), cap=10**5))
    assert abs(est.value - 1.0) < 0.01


def test_pair_dimension_planar_system():
    est = spectral_dimension(pair_triple(make_planar(), cap=10**5))
    assert abs(est.value - 1.0) < 0.05


def test_dimension_does_not_depend_on_seed():
    for ifs in (make_uneven(), make_cantor()):
        a = spectral_dimension(pair_triple(ifs, seed=((0.0,), (1.0,)), cap=5 * 10**4))
        b = spectral_dimension(pair_triple(ifs, seed=((0.2,), (0.9,)), cap=5 * 10**4))
        assert max(a.lo, b.lo) <= min(a.hi, b.hi)


# --- zeta -------------------------------------------------------------------------

def test_zeta_decreases_in_s():
    model = cantor_gap_model(14)
    values = [zeta_partial(model, s).value for s in (0.75, 0.9, 1.05, 1.2)]
    assert all(u > v for u, v in zip(values, values[1:]))


def test_zeta_agrees_with_geometric_closed_form():
    model = cantor_gap_model(14)
    for s in (0.9, 1.2):
        z = zeta_partial(model, s)
        closed = 2.0 * 3.0**-s / (1.0 - 2.0 * 3.0**-s)
        assert z.closed_form == pytest.approx(closed, rel=1e-12)
        assert abs(z.value - z.closed_form) <= z.tail_error

    pair = pair_triple(make_cantor(), seed=((0.0,), (1.0,)), cap=2 * 10**5)
    z = zeta_partial(pair, 0.8)
    closed = 2.0 * 2.0 * 3.0**-0.8 / (1.0 - 2.0 * 3.0**-0.8)
    assert z.closed_form == pytest.approx(closed, rel=1e-12)
    assert abs(z.value - z.closed_form) <= z.tail_error


def test_zeta_rejects_s_at_or_below_dimension():
    model = cantor_gap_model(10)
    for s in (similarity_dimension([1 / 3, 1 / 3]), 0.5):
        with pytest.raises(SBelowDimension):
            zeta_partial(model, s)
    # full-interval systems put the wall at 1
    with pytest.raises(SBelowDimension):
        zeta_partial(pair_triple(make_segment(), cap=10**4), 0.9)


def test_zeta_past_the_float_range_is_a_typed_overflow():
    """mu_1 = 4e149, so mu_1^3 is past the float range: a typed error, with
    no RuntimeWarning on the way (a warning fails the test)."""
    ifs = LimitIfs.stationary([Similarity(0.3, [0.0]), Similarity(0.4, [0.6])])
    model = pair_triple(ifs, seed=((0.0,), (1e150,)), cap=2000)
    with pytest.raises(Overflow, match="leaves the float range"):
        zeta_partial(model, 3.0)
    assert math.isfinite(zeta_partial(model, 2.0).value)


def test_zeta_respects_entry_cap():
    model = pair_triple(make_cantor(), seed=((0.0,), (1.0,)), cap=5000)
    z = zeta_partial(model, 1.2)
    assert z.n_terms == 5000
    assert abs(z.value - z.closed_form) <= z.tail_error


def test_zeta_exhausts_complete_models():
    model = gap_triple(GapList.from_intervals(middle_thirds_intervals(10)))
    assert not model.truncated
    z = zeta_partial(model, 1.2)
    assert z.tail_route == "exhausted"
    assert z.tail == 0.0 and z.tail_error == 0.0
    assert z.closed_form is None
    oracle = 2.0 * sum(2 ** (k - 1) * 3.0 ** (-1.2 * k) for k in range(1, 11))
    assert z.value == pytest.approx(oracle, rel=1e-12)


def test_residue_routes_agree_on_full_interval():
    model = pair_triple(make_segment(), cap=10**4)
    res = zeta_residue(model)
    assert res.analytic == pytest.approx(2.0 / math.log(2.0), abs=1e-12)
    assert abs(res.numeric - res.analytic) <= 1e-6
    assert res.d == pytest.approx(1.0, abs=1e-9)


def test_residue_routes_agree_on_cantor_gaps():
    res = zeta_residue(cantor_gap_model(10))
    # 2 sum g_n^s telescopes to 2x/(1-2x) at x = 3^-s, whose residue is 1/log 3
    assert res.d == pytest.approx(LOG23, abs=1e-9)
    assert res.analytic == pytest.approx(1.0 / math.log(3.0), abs=1e-12)
    assert abs(res.numeric - res.analytic) <= 1e-6


def test_residue_guards():
    levels = [[Similarity(1 / 3, [0.0]), Similarity(1 / 3, [2 / 3])],
              [Similarity(1 / 4, [0.0]), Similarity(1 / 4, [0.75])]] * 3
    explicit = pair_triple(LimitIfs.explicit(levels), cap=10**4)
    with pytest.raises(ValueError, match="blocks repeat"):
        zeta_residue(explicit)


def assert_same_fields(a, b, skip=()):
    for f in dataclasses.fields(a):
        if f.name not in skip:
            x, y = getattr(a, f.name), getattr(b, f.name)
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype, f.name
                np.testing.assert_array_equal(x, y, err_msg=f.name)
            else:
                assert x == y, f.name


@pytest.mark.parametrize("build", [make_cantor, make_uneven, make_planar],
                         ids=lambda b: b.__name__)
def test_a_periodic_system_of_one_block_is_the_stationary_one(build):
    """Both repeat the one block forever, so they are one system: the same
    ratios, no last level, and the same gap list (on the interval the maps
    leave invariant) and pair model."""
    maps = build().level(1)
    stationary, periodic = LimitIfs.stationary(maps), LimitIfs.periodic([maps])
    assert periodic.period == stationary.period \
        == (tuple(w.ratio for w in maps),)
    assert periodic.max_depth is stationary.max_depth is None
    if stationary.dim == 1:
        gaps = [gaps_from_interval_ifs(ifs, depth=8)
                for ifs in (stationary, periodic)]
        assert_same_fields(*gaps, skip=("ifs",))
    models = [pair_triple(ifs, cap=2000) for ifs in (stationary, periodic)]
    assert_same_fields(*models, skip=("ifs",))


# --- functionals ------------------------------------------------------------------

def test_constant_function_is_a_state():
    model = cantor_gap_model(14)
    est = hausdorff_functional(model, lambda x: np.ones_like(x), d=LOG23)
    assert est.value == 1.0
    assert (est.lo, est.hi) == (1.0, 1.0)
    assert est.measurable


def test_box_functional_recovers_cylinder_mass():
    # the left first-level cylinder carries half the mass; the ramp margin
    # stays inside the central gap so no limit point sees a partial value
    box = box_indicator(0.0, 1 / 3, margin=0.1)
    for model in (cantor_gap_model(14),
                  pair_triple(make_cantor(), cap=2 * 10**5)):
        est = hausdorff_functional(model, box, d=LOG23)
        assert abs(est.value - 0.5) <= 0.05
        assert est.hi - est.lo < 0.05


def test_nested_boxes_give_monotone_states():
    model = pair_triple(make_cantor(), cap=10**5)
    inner = hausdorff_functional(model, box_indicator(0.0, 0.3, margin=0.05), d=LOG23)
    outer = hausdorff_functional(model, box_indicator(-0.05, 0.75, margin=0.05), d=LOG23)
    assert inner.value <= outer.value + 1e-12


def test_affine_difference_quotient_is_exact_on_dyadic_tags():
    model = pair_triple(make_segment(), cap=10**4)
    sample = sample_functional(model, affine_functional(2.0))
    assert sample.lipschitz == 2.0


def test_affine_difference_quotient_bounded_by_slope_norm():
    model = pair_triple(make_planar(), cap=3 * 10**4)
    sample = sample_functional(model, affine_functional([1.0, 0.0]))
    assert sample.lipschitz <= 1.0 + 1e-9


def test_sample_must_match_model():
    small = cantor_gap_model(3)
    big = cantor_gap_model(8)
    sample = sample_functional(small, lambda x: np.ones_like(x))
    with pytest.raises(ValueError, match="does not match"):
        hausdorff_functional(big, sample, d=LOG23)


def test_box_indicator_guards_and_margin():
    with pytest.raises(ValueError):
        box_indicator(1.0, 0.0)
    for f in (box_indicator([0.0] * 3, [1.0] * 3), affine_functional(1.0)):
        with pytest.raises(ValueError, match="dimension"):
            f(np.zeros((4, 2)))
    model = cantor_gap_model(10)
    sample = sample_functional(model, box_indicator(0.0, 1 / 3, margin=0.1))
    # the ramp is 1/margin-Lipschitz, and tag pairs can only see less
    assert sample.lipschitz <= 10.0 + 1e-9


def test_functional_needs_the_right_exponent():
    model = cantor_gap_model(14)
    one = sample_functional(model, lambda x: np.ones_like(x))
    with pytest.raises(EmptySubsequence):
        hausdorff_functional(model, one, d=LOG23 - 0.15)
    landed = functional_spectrum(model, one, [LOG23 - 0.15, LOG23])
    assert [a for a, _ in landed] == [LOG23]
    assert landed[0][1].value == 1.0


def test_eccentricity_rejects_off_exponents_outright():
    eigen = cantor_gap_model(14).eigen
    for off in (-0.15, 0.15):
        seq = eigen.power(LOG23 + off)
        scan = eccentricity_scan(seq, resolve_kind(seq), 0.02)
        assert not scan.nonempty
        assert scan.inf_gap > 0.05


def test_gap_power_sums_balance_at_dimension():
    model = cantor_gap_model(10)
    for level in range(1, 6):
        sel = model.gaps.levels == level
        total = np.sum(model.gaps.lengths[sel] ** LOG23)
        assert total == pytest.approx(0.5, abs=1e-9)


# --- content link ------------------------------------------------------------------

def test_link_asserted_for_nonlattice_ratios():
    gaps = gaps_from_interval_ifs(make_uneven(), depth=16)
    link = minkowski_link_check(gap_triple(gaps))
    assert link.lattice is False
    assert link.content.measurable
    assert link.asserted
    # both routes bracket the same number, so the bands must intersect
    assert link.overlap
    assert link.d == pytest.approx(similarity_dimension([1 / 2, 1 / 3]), abs=1e-9)


def test_link_reports_lattice_without_asserting():
    link = minkowski_link_check(cantor_gap_model(14))
    assert link.lattice is True
    assert not link.asserted
    assert link.scaled_content.lo < link.scaled_content.hi


def test_link_guards():
    model = cantor_gap_model(8)
    for bad_d in (0.0, 1.5):
        with pytest.raises(ValueError, match="d must lie"):
            minkowski_link_check(model, d=bad_d)
    pair = pair_triple(make_cantor(), cap=10**4)
    with pytest.raises(ValueError, match="gap models"):
        minkowski_link_check(pair)
