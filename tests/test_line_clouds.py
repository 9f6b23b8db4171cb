"""Nearest distances on the line and sort-based box counting, against the
code they replaced.

``cKDTree`` was the nearest-distance route for clouds of every dimension,
and ``np.unique(boxes, axis=0)`` counted the boxes.  Both stay the oracles
here: the sorted route must give the kd-tree's distances bit for bit inside
its exactness window, and the lexsort count must give the same counts in one
to three dimensions.  Outside the window the kd-tree's sqrt(fl(d**2)) loses
d, and the sorted route keeps the exact |d|; one test states that change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from fractrace.fractal_geometry import (
    _nearest_distances,
    box_dimension_estimate,
    hausdorff_distance,
)

# nonzero magnitudes in [1e-100, 1e150]: every nonzero difference of two such
# values, and its square, stays clear of underflow and overflow
MAGNITUDES = st.one_of(
    st.just(0.0),
    st.floats(1e-100, 1e150).flatmap(lambda x: st.sampled_from([x, -x])),
    st.integers(-50, 50).map(float),
)


@st.composite
def line_clouds(draw):
    """Unsorted (n, 1) clouds with duplicates and one-ulp neighbours."""
    base = draw(st.lists(MAGNITUDES, min_size=1, max_size=40))
    moves = st.sampled_from(["same", "up", "down"])
    extra = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), moves),
                          max_size=20))
    # a step from 0 would leave the window, so 0 only repeats
    step = {"same": lambda x: x,
            "up": lambda x: np.nextafter(x, np.inf) if x else x,
            "down": lambda x: np.nextafter(x, -np.inf) if x else x}
    pts = base + [float(step[m](base[i])) for i, m in extra]
    order = draw(st.permutations(range(len(pts))))
    return np.array(pts)[list(order)].reshape(-1, 1)


def kd_hausdorff(a, b):
    return float(max(cKDTree(b).query(a)[0].max(),
                     cKDTree(a).query(b)[0].max()))


@given(line_clouds(), line_clouds())
@settings(max_examples=200, deadline=None)
def test_line_nearest_distances_match_the_kd_tree(a, b):
    np.testing.assert_array_equal(_nearest_distances(a, b),
                                  cKDTree(b).query(a)[0])
    np.testing.assert_array_equal(_nearest_distances(a),
                                  cKDTree(a).query(a, k=2)[0][:, 1])
    assert hausdorff_distance(a, b) == kd_hausdorff(a, b)
    assert hausdorff_distance(b, a) == kd_hausdorff(a, b)


def test_hausdorff_distance_takes_both_directions():
    near = np.array([[0.0], [1.0]])
    far = np.array([[0.0], [1.0], [5.0]])
    # near is inside far, so only the far -> near direction sees the 5
    assert hausdorff_distance(near, far) == 4.0
    assert hausdorff_distance(far, near) == 4.0


def test_planar_clouds_keep_the_kd_tree():
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(30, 2)), rng.normal(size=(17, 2))
    assert hausdorff_distance(a, b) == kd_hausdorff(a, b)
    np.testing.assert_array_equal(_nearest_distances(a),
                                  cKDTree(a).query(a, k=2)[0][:, 1])


def test_clouds_of_different_dimensions_are_refused():
    with pytest.raises(ValueError, match="dimensions 1 and 2"):
        hausdorff_distance(np.zeros((3, 1)), np.zeros((3, 2)))


@pytest.mark.parametrize("d", [1e-170, 1e-160, 3e-155, 1e160, 1e200])
def test_outside_the_window_the_line_route_is_exact(d):
    """A documented change: below about 1.5e-154 the kd-tree's d**2 goes
    subnormal or to 0, above about 1.3e154 it overflows; the sorted route
    returns d itself."""
    a, b = np.array([[0.0]]), np.array([[d]])
    assert hausdorff_distance(a, b) == d
    assert kd_hausdorff(a, b) != d


def unique_counts(pts, eps, n_offsets):
    """Box counts of box_dimension_estimate, counted with np.unique."""
    shifted = pts - pts.min(axis=0)
    counts = np.empty(eps.size)
    for i, e in enumerate(eps):
        acc = 0
        for k in range(n_offsets):
            boxes = np.floor((shifted + e * k / n_offsets) / e).astype(np.int64)
            acc += np.unique(boxes, axis=0).shape[0]
        counts[i] = acc / n_offsets
    return counts


@given(dim=st.integers(1, 3), n=st.integers(2, 200), repeats=st.integers(0, 50),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_box_counts_match_unique_rows(dim, n, repeats, seed):
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0, size=dim)
    pts = np.vstack([pts, pts[rng.integers(0, n, size=repeats)]])
    pts = pts[rng.permutation(len(pts))]
    eps = np.geomspace(1.0, 1e-3, 7)
    est = box_dimension_estimate(pts, eps=eps, resolution=0.0, window=3)
    np.testing.assert_array_equal(est.eps, eps)
    np.testing.assert_array_equal(est.counts, unique_counts(pts, eps, 4))
