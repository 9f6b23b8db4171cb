"""Validation agrees with the constructors it asks.

A PAIR_TRIPLE config names a seed pair and a functional over its system.
Validation asks ``spectral_triples._seed_pair`` for the pair and evaluates
the functional once at a point of the system's dimension, so it refuses a
config exactly when one of those raises.  A config it accepts then builds
its model and samples its functional without an error, except where a
tag's value leaves the float range: validation evaluates the functional at
one point, so that case runs and fails as a typed ``Overflow`` (exit 3).
"""

import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractrace import cli, spectral_triples
from fractrace.errors import FractraceError, Overflow, ValidationError
from fractrace.fractal_geometry import LimitIfs, Similarity
from fractrace.reporting import PAIR_TRIPLE, parse_config

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
