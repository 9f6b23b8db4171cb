"""Canonical JSON against a recursive reference emitter, and the one-pass
validation of explicit ``values`` lists."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fractrace import reporting
from fractrace.asymptotics import MIN_CAP
from fractrace.errors import ValidationError
from fractrace.reporting import dumps_canonical, parse_config


# ---------------------------------------------------------------------------
# the recursive emitter, one call per element, kept as the reference

def _reference_float(x) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _reference_emit(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _reference_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_reference_emit(v, indent + 1) for v in obj]
        if all(not isinstance(v, (list, tuple, dict)) for v in obj) \
                and sum(len(s) for s in items) < 72:
            return "[" + ", ".join(items) + "]"
        inner = ",\n".join(pad + "  " + s for s in items)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = []
        for k in sorted(obj):
            parts.append(pad + "  " + json.dumps(k, ensure_ascii=False) + ": "
                         + _reference_emit(obj[k], indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(doc) -> str:
    return _reference_emit(doc, 0) + "\n"


# ---------------------------------------------------------------------------
# generated documents

# where the '.0' suffix and the exponent form meet: 2**53 is the first float
# with no fractional bits, 1e16 the first with 17 digits, 1e17 the first
# written in exponent form, 9.999999999999998e16 the last integer before it
EDGES = [0.0, 1.0, float(2**53), 1e16, 9.999999999999998e16, 1e17,
         0.5, 1e-4, 1e-5, 123456789012345.67, 4503599627370495.5]
EDGES += [-x for x in EDGES]
NON_FINITE = [math.nan, math.inf, -math.inf]
SUBNORMAL = [5e-324, -5e-324, 2.225073858507201e-308, 1e-310]

floats = st.one_of(
    st.sampled_from(EDGES + SUBNORMAL),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True,
              min_value=-1e-300, max_value=1e-300),
    st.integers(-2**60, 2**60).map(float),
)
any_float = st.one_of(floats, st.sampled_from(NON_FINITE))
# texts of 3 to 6 characters, so lists of 12 to 25 of them total near the
# 72-character limit between the inline and the one-per-line layout
short_floats = st.sampled_from([0.5, 1.0, -1.0, 2.0, 0.25, -0.25, 10.0, 0.125,
                                0.0625, 100.0])
scalars = st.one_of(any_float, st.integers(-10**20, 10**20), st.booleans(),
                    st.none(), st.text(max_size=5))


def float_lists(min_size=0):
    return st.one_of(
        st.lists(floats, min_size=min_size, max_size=40),
        st.lists(any_float, min_size=min_size, max_size=12),
        st.lists(short_floats, min_size=max(min_size, 12), max_size=25),
        # numpy scalars, bools and ints among floats
        st.lists(st.one_of(floats, floats.map(np.float64), st.booleans(),
                           st.integers(-10**6, 10**6)),
                 min_size=min_size, max_size=12),
    )


leaves = st.one_of(scalars, float_lists(), float_lists().map(tuple))


def documents(depth: int):
    """Nested dicts, lists and tuples at most ``depth`` levels deep."""
    if depth == 0:
        return leaves
    inner = documents(depth - 1)
    return st.one_of(
        leaves,
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    )


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 3).flatmap(documents))
@example([])
@example([0.0, -0.0])
@example([float(2**53), 1e16, 9.999999999999998e16, 1e17])
@example({"values": [1e17, -9.999999999999998e16, 5e-324, 3.0] * 30})
@example([[1.0, 2.0], (math.nan, 0.5), {"x": [np.float64(0.1), 1.0]}])
def test_dumps_matches_the_recursive_emitter(doc):
    assert dumps_canonical(doc) == reference_dumps(doc)


@pytest.mark.parametrize("texts_total, inline", [(71, True), (72, False),
                                                 (73, False)])
@pytest.mark.parametrize("wrap", [list, tuple])
@pytest.mark.parametrize("depth", [0, 2])
def test_layout_switches_at_72_characters(texts_total, inline, wrap, depth):
    # 22 texts "0.5" (66 characters) and one text of 5, 6 or 7 characters
    last = {71: 0.125, 72: 0.0625, 73: 0.03125}[texts_total]
    xs = wrap([0.5] * 22 + [last])
    doc = xs
    for _ in range(depth):
        doc = {"k": [doc]}
    text = dumps_canonical(doc)
    assert text == reference_dumps(doc)
    assert (", ".join(["0.5"] * 22 + [repr(last)]) in text) == inline
    assert text.count("\n") == 1 + (0 if inline else 24) + 4 * depth


def test_integral_floats_keep_the_point_zero():
    doc = [2.0, -0.0, float(2**53), 9.999999999999998e16, 1e17]
    assert dumps_canonical(doc) == (
        "[2.0, -0.0, 9007199254740992.0, 99999999999999984.0, 1e+17]\n")


def test_non_finite_and_numpy_elements_fall_back():
    doc = [1.0, math.nan, -math.inf, np.float64(0.1), True, 3]
    assert dumps_canonical(doc) == (
        '[1.0, "nan", "-inf", 0.10000000000000001, true, 3]\n')


# ---------------------------------------------------------------------------
# validation of explicit values: one type scan and one numpy test, against
# the per-element check

def _problems(values):
    doc = {"kind": "SEQUENCE_ANALYSIS", "parameters": {"values": values}}
    try:
        (exp,) = parse_config(doc)
    except ValidationError as e:
        return e.problems, None
    return [], exp.params["values"]


BAD = "$.parameters.values: must be a list of at least 16 positive numbers"

# MORE brings each case of four elements up to MIN_CAP with valid numbers,
# so the case fails for its first four alone; the case of three is one short
MORE = [1.0] * (MIN_CAP - 4)

CASES = [
    ([4.0, 3, 2.5, 1] + MORE, None),
    ([4.0, 3.0, True, 1.0] + MORE, BAD),
    ([4.0, 3.0, None, 1.0] + MORE, BAD),
    ([4.0, 3.0, "2", 1.0] + MORE, BAD),
    ([4.0, 3.0, math.nan, 1.0] + MORE, BAD),
    ([math.inf, 3.0, 2.0, 1.0] + MORE, BAD),
    ([4.0, 3.0, 2.0, 0] + MORE, BAD),
    ([4.0, 3.0, 2.0, 0.0] + MORE, BAD),
    ([4.0, 3.0, -2.0, 1.0] + MORE, BAD),
    ([3.0, 2.0, 1.0] + MORE, BAD),
    ([10**400, 3, 2, 1] + MORE, BAD),
    ([4, 3, 2, 10**400] + MORE, BAD),
    ([np.float64(4.0), np.float64(3.0), 2.0, 1] + MORE, None),
    ([np.float64(4.0), np.float64(math.nan), 2.0, 1] + MORE, BAD),
]


def _per_element_ok(values):
    """The reference verdict: every element is checked on its own."""
    return all(reporting._is_num(v) and v > 0 for v in values)


@pytest.mark.parametrize("values, problem", CASES)
def test_values_check_agrees_with_the_per_element_check(values, problem):
    problems, params = _problems(values)
    assert problems == ([problem] if problem else [])
    assert _per_element_ok(values) == (problem is None
                                       or len(values) < MIN_CAP)
    if problem is None:
        assert params.dtype == np.float64
        assert params.tolist() == [float(v) for v in values]
        assert not params.flags.writeable
