"""Validation agrees with the constructors it asks.

A PAIR_TRIPLE config names a seed pair and a functional over its system.
Validation asks ``spectral_triples._seed_pair`` for the pair and evaluates
the functional once at a point of the system's dimension, so it refuses a
config exactly when one of those raises.  A config it accepts then builds
its model and samples its functional without an error, except where a
tag's value leaves the float range: validation evaluates the functional at
one point, so that case runs and fails as a typed ``Overflow`` (exit 3).

A GAP_TRIPLE or LINK_CHECK config names a gap analysis.  Validation asks
``fractal_geometry._gap_frame`` whether it can run, so it refuses a config
exactly when ``gaps_from_interval_ifs`` refuses it.
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractrace import cli, spectral_triples
from fractrace.errors import FractraceError, Overflow, ValidationError
from fractrace.fractal_geometry import (LimitIfs, Similarity,
                                        gaps_from_interval_ifs, interval_map)
from fractrace.reporting import (GAP_TRIPLE, LINK_CHECK, PAIR_TRIPLE,
                                 parse_config)

SYSTEMS = {1: [(0.3, [0.0]), (0.4, [0.6])],
           2: [(0.3, [0.0, 0.0]), (0.3, [0.7, 0.0]), (0.3, [0.0, 0.7])]}
HUGE = 1.7e308


def _coords(dim):
    return st.lists(st.floats(-0.5, 1.5), min_size=dim, max_size=dim)


@st.composite
def seed_pairs(draw, dim):
    """None (the default pair), or equal points, points of another
    dimension, points near the float range or points anywhere near the
    unit box, which may lie outside it."""
    kind = draw(st.sampled_from(["default", "equal", "dimension", "huge",
                                 "near"]))
    if kind == "default":
        return None
    if kind == "equal":
        x = draw(_coords(dim))
        return [x, list(x)]
    if kind == "dimension":
        return [draw(_coords(draw(st.sampled_from([1, 2, 3])))),
                draw(_coords(draw(st.sampled_from([1, 2, 3]))))]
    if kind == "huge":
        big = st.builds(lambda sign, v: sign * v, st.sampled_from([-1.0, 1.0]),
                        st.floats(1e307, HUGE))
        return [draw(st.lists(big, min_size=dim, max_size=dim)),
                draw(st.lists(big, min_size=dim, max_size=dim))]
    return [draw(_coords(dim)), draw(_coords(dim))]


@st.composite
def functionals(draw):
    """None, an affine slope or box corners of dimension 1-3; the corners
    may be reversed."""
    kind = draw(st.sampled_from([None, "affine", "box_indicator"]))
    if kind is None:
        return None
    dim = draw(st.sampled_from([1, 2, 3]))
    if kind == "affine":
        return {"type": kind, "slope": draw(st.lists(
            st.floats(-1.0, 1.0), min_size=dim, max_size=dim))}
    lo = draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
    width = draw(st.sampled_from([1.0, -1.0]))
    return {"type": kind, "lo": lo, "hi": [v + width for v in lo]}


@st.composite
def configs(draw):
    dim = draw(st.sampled_from([1, 2]))
    return (dim, draw(st.booleans()), draw(seed_pairs(dim)),
            draw(functionals()))


def _config(dim, boxed, seed, functional):
    ifs = {"generation": "stationary",
           "maps": [{"ratio": r, "translation": t} for r, t in SYSTEMS[dim]]}
    if boxed:
        ifs["box"] = [[0.0] * dim, [1.0] * dim]
    parameters = {"ifs": ifs, "cap": 500}
    if seed is not None:
        parameters["seed_pair"] = seed
    if functional is not None:
        parameters["functional"] = functional
    return {"kind": PAIR_TRIPLE, "parameters": parameters}


def _constructors_refuse(dim, boxed, seed, functional) -> bool:
    ifs = LimitIfs.stationary(
        [Similarity(r, t) for r, t in SYSTEMS[dim]],
        osc_box=([0.0] * dim, [1.0] * dim) if boxed else None)
    try:
        spectral_triples._seed_pair(ifs, seed)
        if functional is not None:
            f = spectral_triples.affine_functional(functional["slope"]) \
                if functional["type"] == "affine" \
                else spectral_triples.box_indicator(functional["lo"],
                                                    functional["hi"])
            f(np.zeros((1, dim)))
    except (ValueError, FractraceError):
        return True
    return False


@settings(max_examples=200, derandomize=True, deadline=None)
@given(configs())
@example((1, False, [[0.5], [0.5]], None))
@example((1, True, [[0.0], [2.0]], None))
@example((2, False, None, {"type": "affine", "slope": [1.0]}))
@example((2, False, None, {"type": "box_indicator", "lo": [0.0] * 3,
                           "hi": [1.0] * 3}))
def test_validation_refuses_what_the_constructors_refuse(drawn):
    _check(drawn)


def _check(drawn):
    try:
        (exp,) = parse_config(_config(*drawn))
    except ValidationError:
        assert _constructors_refuse(*drawn)
        return
    assert not _constructors_refuse(*drawn)
    p = exp.params
    model = spectral_triples.pair_triple(p["ifs"], seed=p["seed_pair"],
                                         cap=500)
    if p["functional"] is not None:
        spectral_triples.sample_functional(model, p["functional"][0])


# Seed points near the float range that differ in a small coordinate are a
# finite distance apart; slope 4 takes their images' first coordinate,
# 5.1e307, past the float range.
FAR = (2, False, [[1.7e308, 0.5], [1.7e308, 0.7]],
       {"type": "affine", "slope": [4.0, 0.0]})


def test_a_functional_past_the_float_range_raises_overflow():
    with pytest.raises(Overflow, match="leaves the float range"):
        _check(FAR)


def test_a_functional_past_the_float_range_exits_3_as_overflow(tmp_path,
                                                               capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(_config(*FAR)))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(config), "--out-dir", str(out),
                     "--quiet"]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "pair_triple: OVERFLOW: functional leaves the float range at tag "
        "points"]
    assert not list(out.glob("*.report.json"))


@pytest.mark.parametrize("far", [1e160, 1e-170], ids=["huge", "tiny"])
def test_a_seed_distance_outside_the_squares_range_is_kept(far):
    """The squares of 1e160 and 1e-170 leave the float range, the distances
    do not: validation accepts both seeds and the model starts from them."""
    seed = [[0.0], [far]]
    (exp,) = parse_config(_config(1, False, seed, None))
    model = spectral_triples.pair_triple(exp.params["ifs"],
                                         seed=exp.params["seed_pair"], cap=500)
    assert model.seed_distance == far
    assert model.values[0] == 0.4 * far


# blocks of maps of the line as (ratio, translation, flip): disjoint,
# touching, overlapping, and single maps
BLOCKS = {
    "cantor": [(1 / 3, 0.0, False), (1 / 3, 2 / 3, False)],
    "uneven": [(0.3, 0.0, False), (0.4, 0.6, False)],
    "flipped": [(0.3, 0.3, True), (0.25, 0.75, False)],
    "touching": [(0.5, 0.0, False), (0.5, 0.5, False)],
    "overlapping": [(0.6, 0.0, False), (0.6, 0.4, False)],
    "left": [(0.5, 0.0, False)],
    "right": [(0.5, 0.5, False)],
    "top": [(1 / 3, 2 / 3, False)],
}
SINGLE = ("left", "right", "top")


@st.composite
def gap_configs(draw):
    """(kind, generation, block names, depth, interval, box): stationary,
    periodic or explicit line systems, with or without interval or box."""
    generation = draw(st.sampled_from(["stationary", "periodic", "explicit"]))
    names = st.sampled_from(sorted(BLOCKS))
    if generation == "stationary":
        blocks = [draw(names)]
    elif generation == "periodic":
        blocks = draw(st.one_of(st.lists(names, min_size=2, max_size=3),
                                st.lists(st.sampled_from(SINGLE),
                                         min_size=2, max_size=3)))
    else:
        blocks = draw(st.lists(names, min_size=1, max_size=4))
    # a link check with no exponent needs a dimension: not one map per level
    kind = GAP_TRIPLE if set(blocks) <= set(SINGLE) \
        else draw(st.sampled_from([GAP_TRIPLE, LINK_CHECK]))
    ends = st.sampled_from([None, (0.0, 1.0), (0.0, 0.5), (-0.1, 1.1)])
    return (kind, generation, blocks, draw(st.integers(1, 10)), draw(ends),
            draw(ends))


def _gap_config(kind, generation, blocks, depth, interval, box):
    levels = [[{"ratio": r, "translation": t, "flip": f}
               for r, t, f in BLOCKS[name]] for name in blocks]
    key = {"stationary": "maps", "periodic": "blocks",
           "explicit": "levels"}[generation]
    ifs = {"generation": generation,
           key: levels[0] if generation == "stationary" else levels}
    if box is not None:
        ifs["box"] = [[box[0]], [box[1]]]
    parameters = {"ifs": ifs, "depth": depth}
    if interval is not None:
        parameters["interval"] = list(interval)
    return {"kind": kind, "parameters": parameters}


def _gaps_refused(kind, generation, blocks, depth, interval, box) -> bool:
    levels = [[interval_map(r, t, flip=f) for r, t, f in BLOCKS[name]]
              for name in blocks]
    ifs = LimitIfs(levels, repeats=generation != "explicit",
                   osc_box=None if box is None else ([box[0]], [box[1]]))
    try:
        gaps_from_interval_ifs(ifs, depth, interval=interval)
    except (ValueError, FractraceError):
        return True
    return False


@settings(max_examples=200, derandomize=True, deadline=None)
@given(gap_configs())
@example((GAP_TRIPLE, "stationary", ["touching"], 6, None, None))
@example((GAP_TRIPLE, "stationary", ["uneven"], 6, (0.0, 0.5), None))
@example((LINK_CHECK, "stationary", ["overlapping"], 6, None, None))
@example((GAP_TRIPLE, "explicit", ["cantor", "uneven"], 3, (0.0, 1.0), None))
@example((GAP_TRIPLE, "periodic", ["left", "right"], 8, None, None))
@example((GAP_TRIPLE, "stationary", ["left"], 4, None, None))
def test_validation_refuses_what_the_gap_analysis_refuses(drawn):
    try:
        parse_config(_gap_config(*drawn))
    except ValidationError:
        assert _gaps_refused(*drawn)
        return
    assert not _gaps_refused(*drawn)
