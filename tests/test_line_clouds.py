"""The sorted nearest-distance sweep and sort-based box counting, against
the code they replaced.

``cKDTree`` was the nearest-distance route for clouds of every dimension,
and ``np.unique(boxes, axis=0)`` counted the boxes.  Both stay the oracles
here.  In two or more dimensions the sweep must give the kd-tree's
distances bit for bit, on random clouds and on degenerate ones: many points
sharing a coordinate, and grids.  On the line it must give them inside its
exactness window, where sqrt(fl(d**2)) equals |d|; outside the window the
kd-tree loses d, and the sweep keeps the exact |d|, which one test states.
The lexsort count must give np.unique's counts in one to three dimensions.
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
def clouds(draw, dim):
    """Unsorted (n, dim) clouds with duplicates, ties and, on each axis,
    one-ulp neighbours."""
    base = draw(st.lists(st.lists(MAGNITUDES, min_size=dim, max_size=dim),
                         min_size=1, max_size=40))
    moves = st.sampled_from(["same", "up", "down"])
    extra = draw(st.lists(st.tuples(st.integers(0, len(base) - 1),
                                    st.integers(0, dim - 1), moves),
                          max_size=20))
    # a step from 0 would leave the window, so 0 only repeats
    step = {"same": lambda x: x,
            "up": lambda x: np.nextafter(x, np.inf) if x else x,
            "down": lambda x: np.nextafter(x, -np.inf) if x else x}
    pts = [list(p) for p in base]
    for i, axis, move in extra:
        p = list(base[i])
        p[axis] = float(step[move](p[axis]))
        pts.append(p)
    order = draw(st.permutations(range(len(pts))))
    return np.array(pts)[list(order)].reshape(-1, dim)


cloud_pairs = st.integers(1, 3).flatmap(
    lambda dim: st.tuples(clouds(dim), clouds(dim)))


def kd_hausdorff(a, b):
    return float(max(cKDTree(b).query(a)[0].max(),
                     cKDTree(a).query(b)[0].max()))


def assert_matches_the_kd_tree(a, b):
    np.testing.assert_array_equal(_nearest_distances(a, b),
                                  cKDTree(b).query(a)[0])
    np.testing.assert_array_equal(_nearest_distances(a),
                                  cKDTree(a).query(a, k=2)[0][:, 1])
    assert hausdorff_distance(a, b) == kd_hausdorff(a, b)
    assert hausdorff_distance(b, a) == kd_hausdorff(a, b)


@given(cloud_pairs)
@settings(max_examples=300, deadline=None)
def test_nearest_distances_match_the_kd_tree(pair):
    assert_matches_the_kd_tree(*pair)


def test_hausdorff_distance_takes_both_directions():
    near = np.array([[0.0], [1.0]])
    far = np.array([[0.0], [1.0], [5.0]])
    # near is inside far, so only the far -> near direction sees the 5
    assert hausdorff_distance(near, far) == 4.0
    assert hausdorff_distance(far, near) == 4.0


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_random_clouds_match_the_kd_tree(dim):
    """Sums of three or more squares in another order, or through
    np.einsum, differ from the kd-tree's in the last bit here."""
    rng = np.random.default_rng(11)
    a, b = rng.normal(size=(300, dim)), rng.normal(size=(170, dim))
    assert_matches_the_kd_tree(a, b)


def grid(*sides):
    return np.stack(np.meshgrid(*[np.arange(n, dtype=float) for n in sides],
                                indexing="ij"), axis=-1).reshape(-1, len(sides))


def shared_coordinate(rng):
    """Two lines of 150 points at x = 0 and x = 3, spread over y in [0, 1]:
    x is the axis of widest spread, and every point ties on it with 149
    others."""
    y = rng.uniform(0.0, 1.0, size=(300, 1))
    x = np.repeat([[0.0], [3.0]], 150, axis=0)
    return np.hstack([x, y])


@pytest.mark.parametrize("make", [
    shared_coordinate,
    lambda rng: grid(15, 15),
    lambda rng: grid(6, 5, 4) * [1.0, 0.5, 2.0],
    lambda rng: np.vstack([grid(12, 12), grid(12, 12)[::5]]),
], ids=["shared-coordinate", "grid", "grid-3d", "grid-with-duplicates"])
def test_degenerate_clouds_match_the_kd_tree(make):
    rng = np.random.default_rng(5)
    a = make(rng)
    a = a[rng.permutation(len(a))]
    b = a[rng.integers(0, len(a), size=len(a) // 3)] + rng.choice(
        [0.0, 0.5, 1.0], size=(len(a) // 3, a.shape[1]))
    assert_matches_the_kd_tree(a, b)


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
