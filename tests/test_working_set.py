"""Working-set guards for gap enumeration and the two models.

tracemalloc sees the bytes numpy allocates for array data, so the peak read
around one call is the most that call held at once.  A float gap list holds
its endpoint arrays once and sorts them in place of copies; a gap model
allocates its values and reads its tags as views of the gap list; each model
stores one tag row per gap or word, not one per entry.  Gap levels take the
narrowest unsigned type that holds the enumeration depth.
"""

import tracemalloc

import numpy as np
import pytest

from fractrace.fractal_geometry import LimitIfs, gaps_from_interval_ifs, interval_map
from fractrace.spectral_triples import gap_triple, pair_triple
from systems import make_cantor, make_planar, make_uneven

# the Python objects a call makes besides its arrays: the model or list
# instance, array headers, a closure
OBJECT_SLACK = 4096


def traced_peak(fn):
    """(fn(), the tracemalloc peak in bytes while fn ran)."""
    tracemalloc.start()
    try:
        out = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def float_system() -> LimitIfs:
    return LimitIfs.stationary([interval_map(0.3, 0.0), interval_map(0.4, 0.6)])


def test_a_float_gap_list_holds_at_most_twice_what_it_returns():
    ifs = float_system()
    gaps_from_interval_ifs(ifs, 4)   # module-level caches, once
    gaps, peak = traced_peak(lambda: gaps_from_interval_ifs(ifs, 16))
    returned = sum(x.nbytes for x in (gaps.starts, gaps.ends, gaps.levels,
                                      gaps.residual_starts, gaps.residual_ends))
    assert len(gaps.starts) == 2**16 - 1
    assert peak <= 2 * returned


@pytest.mark.parametrize("ifs", [make_cantor(exact=False), make_uneven(),
                                 float_system()], ids=["cantor", "uneven", "float"])
def test_a_gap_model_allocates_its_values_and_nothing_else(ifs):
    gaps = gaps_from_interval_ifs(ifs, 14)
    model, peak = traced_peak(lambda: gap_triple(gaps))
    assert peak <= model.values.nbytes + OBJECT_SLACK


def test_models_hold_one_tag_row_per_gap_or_word():
    gaps = gaps_from_interval_ifs(make_uneven(), 12)
    gap = gap_triple(gaps)
    n_gaps = len(gap) // 2
    assert gap.tags_x.shape == gap.tags_y.shape == (n_gaps,)
    assert np.shares_memory(gap.tags_x, gaps.starts)
    assert np.shares_memory(gap.tags_y, gaps.ends)
    pair = pair_triple(make_planar(), cap=4000)
    n_words = len(pair) // 2
    assert pair.tags_x.shape == pair.tags_y.shape == (n_words, 2)
    assert pair.depths.shape == (n_words,)


def test_gap_levels_take_the_narrowest_type_that_holds_the_depth():
    """Depth 18 fits one byte; one map of ratio 1/2 opens one gap per level,
    and at depth 300 its levels need two bytes, with the values an int64
    column would hold."""
    assert gaps_from_interval_ifs(float_system(), 18).levels.dtype == np.uint8
    halving = LimitIfs.stationary([interval_map(0.5, 0.0)])
    gaps = gaps_from_interval_ifs(halving, 300, interval=(0, 1))
    assert gaps.levels.dtype == np.uint16
    assert np.array_equal(gaps.levels, np.arange(1, 301, dtype=np.int64))
