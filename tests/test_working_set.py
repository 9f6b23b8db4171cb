"""Working-set guards for gap enumeration and the two models.

tracemalloc sees the bytes numpy allocates for array data, so the peak read
around one call is the most that call held at once.  A float gap list holds
its endpoint arrays once and sorts them in place of copies; a gap model
allocates its values and reads its tags as views of the gap list; each model
stores one tag row per gap or word, not one per entry.  Gap levels take the
narrowest unsigned type that holds the enumeration depth.  A power sequence
is computed in the one float copy of its indices.  A batch holds each config
value once: a ``values`` list lives on as its validated array alone, so no
experiment, and no process a batch forks, holds the parsed list.  A word
walk over its budget is refused before it builds a level.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest

from fractrace import reporting
from fractrace.errors import BudgetExceeded
from fractrace.fractal_geometry import (LimitIfs, attractor_cloud,
                                        contraction_limit, cylinder_measure,
                                        gaps_from_interval_ifs, interval_map)
from fractrace.reporting import Experiment, parse_config
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


@pytest.mark.parametrize("walk", [
    lambda ifs: attractor_cloud(ifs, 40),
    lambda ifs: contraction_limit(ifs, [0.0], 10**4),
    lambda ifs: cylinder_measure(ifs, 0.5, 40),
    lambda ifs: gaps_from_interval_ifs(ifs, 3 * 10**6),
], ids=["cloud", "contraction", "cylinders", "gaps"])
def test_a_walk_over_the_word_budget_is_refused_before_it_builds(walk):
    """Level 24 of Cantor has 2**24 words, past the default budget of 10**7:
    each walk refuses it holding under 1 MB."""
    def refused():
        with pytest.raises(BudgetExceeded,
                           match="level 24 needs 16777216 points"):
            walk(make_cantor())

    _, peak = traced_peak(refused)
    assert peak < 10**6


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


def test_a_power_sequence_is_computed_in_one_float_buffer(monkeypatch):
    """At cap 1e6 the build holds the int64 indices and one float array:
    c n^-a is computed in place, with no array for n^-a besides."""
    cap = 10**6
    exp, = parse_config({"kind": "SEQUENCE_ANALYSIS", "parameters": {
        "mu": {"form": "power", "coefficient": 0.7, "exponent": 1.5},
        "cap": cap}})
    monkeypatch.setattr(reporting, "_sequence_entries",
                        lambda p, out, seq, build, parameters: seq)
    seq, peak = traced_peak(
        lambda: reporting._run_sequence_analysis(exp, None))
    assert seq.cap == cap
    assert peak <= 2 * cap * 8 + OBJECT_SLACK


def _reached(root):
    """Every object reachable from ``root`` through containers and
    experiments; types, functions and modules are not entered."""
    seen, stack = set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        yield obj
        if isinstance(obj, (dict, list, tuple, Experiment)):
            stack.extend(gc.get_referents(obj))


def _power_list(n):
    return [2.0 * k ** -1.5 for k in range(1, n + 1)]


def test_an_experiment_holds_its_values_as_the_array_alone():
    n = 3001
    values = _power_list(n)
    exp, = parse_config({"kind": "SEQUENCE_ANALYSIS",
                         "parameters": {"values": values}})
    assert not any(isinstance(x, list) and len(x) == n
                   for x in _reached(exp))
    arr = exp.params["values"]
    assert isinstance(arr, np.ndarray) and not arr.flags.writeable
    assert arr.tolist() == values
    assert exp.raw["parameters"]["values"] is arr


def test_the_batch_starts_with_the_parsed_document_released(tmp_path,
                                                            monkeypatch):
    n = 3001
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"kind": "SEQUENCE_ANALYSIS", "series": False,
                                  "parameters": {"values": _power_list(n)}}))
    alive = []
    run_experiment = reporting.run_experiment

    def first_checked(exp, out_dir):
        alive.append(any(type(x) is list and len(x) == n
                         for x in gc.get_objects()))
        return run_experiment(exp, out_dir)

    monkeypatch.setattr(reporting, "run_experiment", first_checked)
    code = reporting.run(str(config), str(tmp_path / "out"), quiet=True)
    assert code == 0
    assert alive == [False]
