"""Configuration-driven experiment runner with replayable JSON reports.

A config file describes one experiment (or a batch under "experiments"); the
runner validates it, executes the requested operations, and writes one
report per experiment plus optional CSV series.  These rules shape
everything here:

* Validation is exhaustive.  Every schema violation is collected with its
  JSON path before anything runs, so a config is fixed in one round trip.
  A validated ``Experiment`` carries the budget it was validated against,
  which its run and its report use.
  One field table, ``_OBJECTS``, drives the validation and renders the
  ``schema`` document.  A rule across fields belongs to the numeric
  constructor it guards: validation builds or asks that object and reports
  its error once, at the path of the object it was built from.
* Every float measurement in a report carries an interval.  Point values get
  the degenerate [v, v]; estimates carry the band the producing operation
  reported.  ``compare`` then has a uniform significance test: two values
  differ significantly iff their intervals are disjoint.
* Report bytes are deterministic.  Keys are sorted, floats are written with
  17 significant digits (enough to round-trip exactly), and the only fields
  a replay can change are meta.wall_time_s and meta.package, which is
  ``fractrace.__version__`` of the source that ran.
* A report echoes its experiment's config, with one exception: a field of
  type ``values`` is echoed as ``{"n": N, "sha256": HEX}``, its length and
  the SHA-256 of the validated list as little-endian float64 bytes, so ``1``
  and ``1.0`` give one digest.  From the config file's list ``xs``:
  ``hashlib.sha256(struct.pack("<%dd" % len(xs), *xs)).hexdigest()``.  So a
  report plus its config file, not the report alone, replays a ``values``
  experiment.
* This module writes every file a run leaves; the numeric modules only
  compute.  CSV series are plain columns, written by ``_write_csv`` here as
  ``<name>.<key>.csv`` and listed under the report's ``series``.  Integer
  cells are written with ``str`` and float cells with ``repr``, the
  shortest text that round-trips the float64 (so ``0.1`` stays ``0.1``,
  where the report JSON writes 17 significant digits and quotes nan and
  infinities; CSV writes them bare).  A model's entries CSV has one row per
  entry: each gap or word gives two equal rows, repeated from the one tag
  row the model stores for it.
* A batch runs on every CPU the process may use.  The process count P is
  the size of the CPU affinity mask (``os.sched_getaffinity``), at most the
  number of experiments.  Experiments are dealt round-robin by config
  index: the calling process runs 0, P, 2P, …, and P - 1 forked helpers run
  the rest.  Lines are printed in config order, so streams and exit code
  are those of a one-by-one run.  Each report's meta.wall_time_s is measured
  in the process that ran it, and memory can hold up to P experiments at
  once.  ``taskset -c 0 fractrace run …`` gives a one-CPU run.

Exit codes, used by the CLI and mirrored in ``run``'s return value: 0 on
success, 2 for config or schema violations, 3 for numeric precondition
failures raised by the underlying operations, 1 when a helper process died
and took experiments with it (each is named on stderr as LOST).
"""

from __future__ import annotations

import json
import math
import os
import selectors
import signal
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from . import __version__
from . import asymptotics as asy
from . import exemplars as ex
from . import fractal_geometry as fg
from . import spectral_triples as st
from .errors import (BudgetExceeded, FractraceError, KindMismatch,
                     ValidationError)
from .sequences import (NON_TRACE_CLASS, EigenvalueSequence, _distinct,
                        _scan_values)

SEQUENCE_ANALYSIS = "SEQUENCE_ANALYSIS"
EXEMPLAR = "EXEMPLAR"
IFS_CLASSICAL = "IFS_CLASSICAL"
GAP_TRIPLE = "GAP_TRIPLE"
PAIR_TRIPLE = "PAIR_TRIPLE"
LINK_CHECK = "LINK_CHECK"
KINDS = (SEQUENCE_ANALYSIS, EXEMPLAR, IFS_CLASSICAL, GAP_TRIPLE, PAIR_TRIPLE,
         LINK_CHECK)

DEFAULT_ENTRY_BUDGET = st.DEFAULT_ENTRY_CAP
DEFAULT_WORD_BUDGET = fg.DEFAULT_WORD_BUDGET
DEFAULT_SERIES_ROWS = 10**5
REPORT_FORMAT = "fractrace-report/2"
DIFF_FORMAT = "fractrace-diff/1"


@dataclass(frozen=True)
class Budget:
    """Global resource caps shared by every experiment in a run."""

    entries: int = DEFAULT_ENTRY_BUDGET
    words: int = DEFAULT_WORD_BUDGET


# ---------------------------------------------------------------------------
# deterministic JSON

def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _emit(obj, indent: int) -> str:
    pad = "  " * indent
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [_emit(v, indent + 1) for v in obj]
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
            if not isinstance(k, str):
                raise TypeError(f"non-string key {k!r}")
            parts.append(pad + "  " + json.dumps(k, ensure_ascii=False) + ": "
                         + _emit(obj[k], indent + 1))
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_canonical(doc) -> str:
    """Deterministic JSON text: sorted keys, 17-significant-digit floats."""
    return _emit(doc, 0) + "\n"


def _val(value, lo=None, hi=None) -> dict:
    """A float with an interval built here; [v, v] when exact.  An estimate
    the package returns goes through ``_band``."""
    v = float(value)
    lo = v if lo is None else float(lo)
    hi = v if hi is None else float(hi)
    return {"value": v, "interval": [lo, hi]}


# ---------------------------------------------------------------------------
# config fields: one table drives validation and the schema document

_NAME_OK = "letters, digits, '.', '_', '-', not starting with a separator"


def _is_name(s) -> bool:
    return (isinstance(s, str) and 0 < len(s) <= 80
            and all(c.isalnum() or c in "._-" for c in s)
            and s[0].isalnum())


def _is_num(x) -> bool:
    """A finite int or float, not a bool; an int beyond float64 range
    counts as not finite."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _positive_values(raw: list):
    """``raw`` as a read-only float64 array when every element is a finite
    positive number, else None.  Each distinct element type is checked once
    (an int or float subclass, not bool), then one numpy test checks the
    values."""
    if not all(issubclass(t, (int, float)) and not issubclass(t, bool)
               for t in set(map(type, raw))):
        return None
    try:
        arr = np.array(raw, dtype=float)
    except OverflowError:  # an int beyond float64 range
        return None
    if not (np.isfinite(arr).all() and (arr > 0).all()):
        return None
    arr.flags.writeable = False
    return arr


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class _Ctx:
    """Problem accumulator; each entry is '<json path>: <message>'.  A given
    field that failed its check (its path is in ``invalid``) reaches the
    rules as None, like an absent one; it keeps its own problem alone."""

    def __init__(self, budget):
        self.budget = budget
        self.problems = []
        self.invalid = set()

    def fail(self, path, msg):
        if path not in self.invalid:
            self.problems.append(f"{path}: {msg}")
        return None

    def check_keys(self, obj, path, allowed):
        for k in sorted(obj):
            if k not in allowed:
                self.fail(f"{path}.{k}", "unknown field")


_ENTRIES = "entry budget"  # a bound that is the run's entry budget
_PER_KIND = "parameters"   # the object named by the experiment's kind


class _F(NamedTuple):
    """One config field of the table.

    ``type`` is a value type of ``_VALUE_TYPES``, an object of ``_OBJECTS``,
    or ``T[]``, a nonempty list of T.  ``lo``/``hi`` bound a number
    (strictly where ``lo_open``/``hi_open``); ``hi`` may be ``_ENTRIES``,
    which also caps an integer default.  ``when`` lists the discriminator
    values that use the field.  ``msg`` replaces the type's problem text,
    also for a missing required field; ``missing`` is the text for a missing
    field, put at the object's path.  ``stop`` ends the walk of the object
    at a problem with the field.  ``flag`` lets an object be given as true
    (all defaults), or as false or null (off); ``null`` reads null as absent,
    which every flag does too; ``excludes`` names a field that may not be
    given together with this one.
    """

    type: str
    doc: str = ""
    req: bool = False
    default: object = None
    lo: float | None = None
    hi: object = None
    lo_open: bool = False
    hi_open: bool = False
    when: tuple | None = None
    choices: tuple = ()
    msg: str | None = None
    missing: str | None = None
    stop: bool = False
    flag: bool = False
    null: bool = False
    excludes: str | None = None


class _Obj(NamedTuple):
    """A config object: its fields in walk order, its discriminator and the
    named check of its rules that are not local to one field.

    ``tag`` is a choice field whose value selects the fields in use, or
    'a|b' when exactly one of the fields a and b must be given.  With
    ``off`` set, keys are checked against every field first and a field of
    another variant gets ``off`` (formatted with the variant) as its
    problem; without it the tag is checked first and such a field is
    unknown.  ``check(ctx, values, path)`` returns the object's
    value, or None; its docstring lists the rules it checks.
    """

    fields: dict
    tag: str | None = None
    off: str | None = None
    check: object = None


def _choice(*choices, msg=None, **kw) -> _F:
    quoted = [f"'{c}'" for c in choices]
    text = quoted[0] if len(quoted) == 1 \
        else ", ".join(quoted[:-1]) + " or " + quoted[-1]
    return _F("choice", choices=choices, msg=msg or "must be " + text,
              req=True, **kw)


def _bounded(ctx, x, path, f):
    hi = ctx.budget.entries if f.hi is _ENTRIES else f.hi
    if f.lo is not None and (x <= f.lo if f.lo_open else x < f.lo):
        op = ">" if f.lo_open else ">="
        return ctx.fail(path, f.msg or f"must be {op} {f.lo}")
    if hi is not None and (x >= hi if f.hi_open else x > hi):
        op = "<" if f.hi_open else "<="
        return ctx.fail(path, f.msg or f"must be {op} {hi}")
    return x


def _number(ctx, x, path, f):
    if not _is_num(x):
        return ctx.fail(path, f.msg or "must be a finite number")
    return _bounded(ctx, float(x), path, f)


def _integer(ctx, x, path, f):
    if not _is_int(x):
        return ctx.fail(path, "must be an integer")
    return _bounded(ctx, int(x), path, f)


def _boolean(ctx, x, path, f):
    return x if isinstance(x, bool) \
        else ctx.fail(path, "must be true or false")


def _name(ctx, x, path, f):
    return x if _is_name(x) else ctx.fail(path, _NAME_OK)


def _choice_value(ctx, x, path, f):
    return x if x in f.choices else ctx.fail(path, f.msg)


def _point(ctx, x, path, f=None):
    """A number or list of numbers as a 1d float array."""
    if _is_num(x):
        x = [x]
    if not isinstance(x, list) or not x or not all(_is_num(v) for v in x):
        return ctx.fail(path, "must be a finite number or list of them")
    return np.array([float(v) for v in x])


def _coords(ctx, x, path, f):
    """A number as given, or a list of numbers as a float array."""
    return x if _is_num(x) else _point(ctx, x, path)


def _pair(ctx, x, path, f):
    if not isinstance(x, list) or len(x) != 2:
        return ctx.fail(path, f.msg)
    pts = tuple(_point(ctx, p, f"{path}[{i}]") for i, p in enumerate(x))
    return None if any(p is None for p in pts) else pts


def _interval(ctx, x, path, f):
    if not (isinstance(x, list) and len(x) == 2
            and all(_is_num(v) for v in x) and x[0] < x[1]):
        return ctx.fail(path, "must be [lo, hi] with lo < hi")
    return (float(x[0]), float(x[1]))


def _positives(ctx, x, path, f):
    if not isinstance(x, list) or not x \
            or not all(_is_num(s) and s > 0 for s in x):
        return ctx.fail(path, f.msg)
    return [float(s) for s in x]


def _values(ctx, x, path, f):
    values = _positive_values(x) \
        if isinstance(x, list) and len(x) >= asy.MIN_CAP else None
    return ctx.fail(path, f"must be a list of at least {asy.MIN_CAP} "
                    "positive numbers") if values is None else values


_VALUE_TYPES = {
    "number": (_number, "number"),
    "integer": (_integer, "integer"),
    "boolean": (_boolean, "boolean"),
    "name": (_name, "string: " + _NAME_OK),
    "choice": (_choice_value, "string"),
    "point": (_point, "number, or list of numbers"),
    "coords": (_coords, "number, or list of numbers"),
    "pair": (_pair, "[point, point]; a point is a number or list of numbers"),
    "interval": (_interval, "[number, number]"),
    "positives": (_positives, "nonempty list of positive numbers"),
    "values": (_values, f"list of >= {asy.MIN_CAP} positive numbers"),
    # the shape depends on the translation: the map's check tests it
    "matrix": (lambda ctx, x, path, f: x, "list of rows of numbers"),
}
_LIST_MSG = {"map[]": "must be a nonempty list of maps",
             "map[][]": "must be a nonempty list"}


def _value(ctx, x, path, f):
    """The checked value of one given field; None when it has a problem."""
    t = f.type
    if t.endswith("[]"):
        if not isinstance(x, list) or not x:
            return ctx.fail(path, _LIST_MSG[t])
        items = [_value(ctx, e, f"{path}[{i}]", _F(t[:-2]))
                 for i, e in enumerate(x)]
        return None if any(i is None for i in items) else items
    if t in _OBJECTS:
        if f.flag and isinstance(x, bool):
            if not x:
                return None
            x = {}
        if not isinstance(x, dict):
            return ctx.fail(path, f.msg or ("must be a flag or an object"
                                            if f.flag else "must be an object"))
        before = len(ctx.problems)
        out = _walk(ctx, x, path, t)
        return out if len(ctx.problems) == before else None
    return _VALUE_TYPES[t][0](ctx, x, path, f)


def _variant(ctx, obj, path, spec):
    if "|" in spec.tag:
        names = spec.tag.split("|")
        given = [k for k in names if k in obj]
        if len(given) != 1:
            return ctx.fail(path, "give exactly one of " + " and ".join(names))
        return given[0]
    return _value(ctx, obj.get(spec.tag), f"{path}.{spec.tag}",
                  spec.fields[spec.tag])


def _walk(ctx, obj, path, name):
    """Check ``obj`` against ``_OBJECTS[name]``: every problem goes to ctx
    with its JSON path.  Returns the value of the object's check (the
    checked fields when it has none), or None when the walk stopped."""
    spec = _OBJECTS[name]
    if not isinstance(obj, dict):
        return ctx.fail(path, "must be an object")
    fields = spec.fields
    tag_first = spec.tag is not None and spec.off is None
    if not tag_first:
        ctx.check_keys(obj, path, fields)
    variant = None
    if spec.tag is not None:
        variant = _variant(ctx, obj, path, spec)
        if variant is None:
            return None
    in_use = {k: f for k, f in fields.items()
              if f.when is None or variant in f.when}
    if tag_first:
        ctx.check_keys(obj, path, in_use)
    else:
        for key in fields:
            if key in obj and key not in in_use:
                ctx.fail(f"{path}.{key}", spec.off.format(variant))
    v = {}
    for key, f in in_use.items():
        if key == spec.tag:
            v[key] = variant
        elif key not in obj or (obj[key] is None and (f.null or f.flag)):
            if f.req and f.missing:
                ctx.fail(path, f.missing)
            elif f.req:
                ctx.fail(f"{path}.{key}", f.msg or "required")
            v[key] = min(f.default, ctx.budget.entries) if f.hi is _ENTRIES \
                else f.default
        else:
            if f.type == _PER_KIND:
                f = f._replace(type=variant)
            before = len(ctx.problems)
            v[key] = _value(ctx, obj[key], f"{path}.{key}", f)
            if len(ctx.problems) > before:
                ctx.invalid.add(f"{path}.{key}")
        if f.stop and v[key] is None:
            return None
    for key, f in in_use.items():
        if f.excludes and v[key] not in (None, False) \
                and v[f.excludes] not in (None, False):
            return ctx.fail(path,
                            f"give at most one of {f.excludes} and {key}")
    return spec.check(ctx, v, path) if spec.check else v


# -- named checks: the rules that are not local to one field ----------------

def _map(ctx, v, path):
    """flip needs a scalar translation
    orthogonal is a dim x dim matrix, dim that of the translation"""
    t, orth = v["translation"], v["orthogonal"]
    if t is None:
        return None
    try:
        if not isinstance(t, np.ndarray):
            return fg.interval_map(v["ratio"], t, flip=bool(v["flip"]))
        if v["flip"]:
            return ctx.fail(f"{path}.flip",
                            "only meaningful with a scalar translation")
        if orth is not None:
            n = len(t)
            if not isinstance(orth, list) or len(orth) != n \
                    or any(not isinstance(r, list) or len(r) != n
                           or not all(_is_num(x) for x in r) for r in orth):
                return ctx.fail(f"{path}.orthogonal",
                                f"must be a {n}x{n} matrix of numbers")
            orth = np.array(orth, dtype=float)
        return fg.Similarity(v["ratio"], t, orth)
    except (ValueError, TypeError) as e:
        return ctx.fail(path, str(e))


def _ifs(ctx, v, path):
    """every map has the same ambient dimension
    box has that dimension and lo < hi componentwise"""
    gen = v["generation"]
    body = v[{"stationary": "maps", "periodic": "blocks",
              "explicit": "levels"}[gen]]
    if body is None:
        return None
    try:
        return fg.LimitIfs([body] if gen == "stationary" else body,
                           repeats=gen != "explicit", osc_box=v["box"])
    except (ValueError, TypeError) as e:
        return ctx.fail(path, str(e))


def _functional(ctx, v, path):
    """box_indicator: lo < hi componentwise"""
    if any(x is None for x in v.values()):
        return None
    try:
        if v["type"] == "affine":
            f = st.affine_functional(v["slope"], v["intercept"])
        elif v["type"] == "box_indicator":
            f = st.box_indicator(v["lo"], v["hi"], margin=v["margin"])
        else:   # one value per tag point, whatever the dimension
            def f(points):
                return np.full(len(points), v["value"])
    except ValueError as e:
        return ctx.fail(path, str(e))
    return f, {k: x.tolist() if isinstance(x, np.ndarray) else x
               for k, x in v.items()}


def _sequence_rules(ctx, v, path):
    """values: at most the entry budget of them
    values: nonincreasing"""
    values = v.get("values")
    if values is not None:
        if len(values) > ctx.budget.entries:
            ctx.fail(f"{path}.values",
                     f"length exceeds the entry budget {ctx.budget.entries}")
        try:
            _scan_values(values, rtol=0.0)
        except ValueError as e:
            ctx.fail(f"{path}.values", str(e))
        v["cap"] = len(values)
    return v


def _exemplar_rules(ctx, v, path):
    """two_slope: beta <= alpha"""
    # the spec that runs; a gaps object's form and value are its gaps tuple
    spec, args = (ex.StepSpec, [v["q"]]) if v["family"] == "step" else (
        ex.TwoSlopeSpec, [v["alpha"], v["beta"],
                          v["gaps"] and tuple(v["gaps"].values())])
    if None not in args:
        try:
            v["spec"] = spec(*args)
        except (ValueError, FractraceError) as e:
            ctx.fail(path, str(e))
    return v


def _gaps_on(p) -> bool:
    """Whether the gap analysis runs: as asked, else on a 1d system."""
    return p["ifs"].dim == 1 if p["gaps"] is None else p["gaps"]


def _one_map_rule(ctx, ifs, given, path):
    """An exponent that defaults to the similarity dimension must be given
    on a repeating system of one map per level, where that dimension is 0."""
    if given is None and ifs is not None and set(map(len, ifs.period)) == {1}:
        ctx.fail(path, "required for a system of one map")


def _gap_rule(ctx, v, path):
    """Asks fractal_geometry._gap_frame whether the gap analysis of ``ifs``
    to ``depth`` in ``interval`` can run; skipped while one is invalid."""
    if v["ifs"] is None or v["depth"] is None \
            or f"{path}.interval" in ctx.invalid:
        return
    try:
        fg._gap_frame(v["ifs"], v["depth"], v["interval"])
    except (ValueError, FractraceError) as e:
        ctx.fail(path, str(e))


def _ifs_classical_rules(ctx, v, path):
    """gap analysis: 1d, depth within an explicit system, a bounding interval
    gap analysis: each level's images disjoint and inside the interval
    minkowski needs the gap analysis
    minkowski needs an exponent on an explicit system
    minkowski needs an exponent on a system of one map
    every depth a walk reads is within an explicit system's levels"""
    ifs, mink = v["ifs"], v["minkowski"]
    # does the gap analysis run? None if unknown: an invalid gaps is not unset
    on = None if f"{path}.gaps" in ctx.invalid \
        else v["gaps"] if ifs is None else _gaps_on(v)
    if on:
        _gap_rule(ctx, v, path)
    if mink is not None:
        if mink["exponent"] is None and ifs is not None and not ifs.period:
            ctx.fail(f"{path}.minkowski.exponent",
                     "required for an explicit system")
        _one_map_rule(ctx, ifs, mink["exponent"],
                      f"{path}.minkowski.exponent")
        if on is False:
            ctx.fail(f"{path}.minkowski", "needs the gap analysis enabled")
    # the depth of each other walk, at the path of the field that sets it
    walks = {f"{path}.depth": v["depth"]} if v["translation"] else {}
    for key, field in (("box_dimension", "cloud_depth"),
                       ("cylinder", "depth"), ("contraction", "depth")):
        if v[key] is not None:
            given = v[key][field]
            at = f"{path}.{key}.{field}" if given else f"{path}.depth"
            walks[at] = given or v["depth"]
    if on:   # the gap frame has asked for depth
        walks.pop(f"{path}.depth", None)
    for at, depth in walks.items():
        if ifs is not None and depth is not None:
            try:
                ifs.block_index(depth)
            except ValueError as e:
                ctx.fail(at, str(e))
    return v


def _model_rules(ctx, v, path, depth):
    """Residue at ``depth`` (None on a pair model); functional at one point."""
    ifs, func = v["ifs"], v["functional"]
    if ifs is None:
        return
    if v["residue"] and (problem := st._residue_problem(ifs, depth)):
        ctx.fail(f"{path}.residue", problem)
    if func is not None:
        _one_map_rule(ctx, ifs, v["exponent"], f"{path}.exponent")
        try:
            st._eval_callable(func[0], np.zeros((1, ifs.dim)))
        except ValueError as e:
            ctx.fail(f"{path}.functional", str(e))


def _gap_triple_rules(ctx, v, path):
    """gap analysis: 1d, depth within an explicit system, a bounding interval
    gap analysis: each level's images disjoint and inside the interval
    residue needs the gaps of one whole period of blocks that repeat
    functional has the dimension of the system
    functional needs an exponent on a system of one map"""
    _gap_rule(ctx, v, path)
    _model_rules(ctx, v, path, v["depth"])
    return v


def _pair_triple_rules(ctx, v, path):
    """seed_pair points have the ambient dimension and lie in the ifs box
    seed_pair points are distinct and a finite distance apart
    seed_pair is given when the first level has one map
    residue needs a system whose blocks repeat
    functional has the dimension of the system
    functional needs an exponent on a system of one map"""
    if v["ifs"] is not None:
        try:
            st._seed_pair(v["ifs"], v["seed_pair"])
        except (ValueError, FractraceError) as e:
            ctx.fail(f"{path}.seed_pair", str(e))
    _model_rules(ctx, v, path, None)
    return v


def _link_check_rules(ctx, v, path):
    """gap analysis: 1d, depth within an explicit system, a bounding interval
    gap analysis: each level's images disjoint and inside the interval
    exponent is given on a system of one map"""
    _gap_rule(ctx, v, path)
    _one_map_rule(ctx, v["ifs"], v["exponent"], f"{path}.exponent")
    return v


# -- the table ---------------------------------------------------------------

_POSITIVE = dict(lo=0.0, lo_open=True)
_IFS = _F("ifs", req=True)
_DEPTH = _F("integer", "word length of the construction", req=True, lo=1)
_INTERVAL = _F("interval", "bounding interval of the gap analysis; null: "
               "the default that fractal_geometry._gap_frame states, which "
               "an explicit system with no box lacks")
_ROWS = _F("integer", "rows written to the entries or gaps CSV",
           default=DEFAULT_SERIES_ROWS, lo=1)
_TOLERANCE = _F("number", "eccentricity tolerance", default=0.02, **_POSITIVE)
_SEQUENCE_CAP = _F("integer", "entries materialized; the default is capped "
                   "at the entry budget", default=10**5, lo=1000, hi=_ENTRIES)
_MODEL_FIELDS = {
    "zeta": _F("zeta", "zeta values to compute"),
    "residue": _F("boolean", "compute the zeta residue; null: true when "
                  "the model holds one whole period of a repeating "
                  "system, which the residue needs"),
    "functional": _F("functional", "a state to evaluate on the model"),
    "exponent": _F("number", "the functional's weight exponent; null: the "
                   "dimension estimate", **_POSITIVE),
    "tolerance": _F("number", "eccentricity tolerance of the functional; "
                    "null: adapts to the observed gap floor", null=True,
                    **_POSITIVE),
    "series_max_rows": _ROWS,
}

_OBJECTS = {
    "experiment": _Obj({
        "kind": _choice(*KINDS, msg="must be one of " + ", ".join(KINDS)),
        "name": _F("name", "report and file stem; null: the kind in lower "
                   "case, with '-<index>' in a batch"),
        "seed": _F("integer", "reserved: echoed as meta.rng_seed, no "
                   "operation draws random numbers", lo=0),
        "series": _F("boolean", "write CSV series", default=True),
        "output": _F("output"),
        "parameters": _F(_PER_KIND, "the kind's parameters", req=True,
                         msg="required object"),
    }, tag="kind"),
    "output": _Obj({"report": _F("name", "report file name; null: "
                                 "<name>.report.json")}),
    SEQUENCE_ANALYSIS: _Obj({
        "values": _F("values", "the eigenvalues, nonincreasing; a report "
                     "echoes them as {n, sha256}: their count and the SHA-256 "
                     "of their little-endian float64 bytes", req=True,
                     when=("values",)),
        "mu": _F("mu", "the eigenvalues as a function of n", req=True,
                 when=("mu",)),
        "cap": _SEQUENCE_CAP._replace(when=("mu",)),
        "tolerance": _TOLERANCE,
    }, tag="values|mu", off="not allowed with explicit {}",
        check=_sequence_rules),
    "mu": _Obj({
        "form": _choice("power"),
        "coefficient": _F("number", "c in c n^-exponent", default=1.0,
                          **_POSITIVE),
        "exponent": _F("number", req=True, **_POSITIVE),
    }),
    EXEMPLAR: _Obj({
        "family": _choice("two_slope", "step"),
        "cap": _SEQUENCE_CAP,
        "tolerance": _TOLERANCE,
        "gammas": _F("positives", "exponents to scan the powered sequence "
                     "at", default=[],
                     msg="must be a nonempty list of positive numbers"),
        "alpha": _F("number", "steeper slope", req=True, when=("two_slope",),
                    **_POSITIVE),
        "beta": _F("number", "shallower slope", req=True,
                   when=("two_slope",), **_POSITIVE),
        "gaps": _F("gaps", "lengths of the slope pieces",
                   default={"form": "constant", "value": 1.0},
                   when=("two_slope",)),
        "q": _F("number", "step exponent", req=True,
                when=("step",), lo=1.0, lo_open=True),
    }, tag="family", off="not a {} field", check=_exemplar_rules),
    "gaps": _Obj({
        "form": _choice("constant", "linear"),
        "value": _F("number", default=1.0, when=("constant",), **_POSITIVE),
    }, tag="form", off="not allowed with form '{}'"),
    IFS_CLASSICAL: _Obj({
        "ifs": _IFS,
        "depth": _DEPTH,
        "interval": _INTERVAL,
        "gaps": _F("boolean", "run the gap analysis; null: on for a 1d "
                   "system"),
        "box_dimension": _F("box_dimension", flag=True),
        "minkowski": _F("minkowski", flag=True),
        "cylinder": _F("cylinder"),
        "translation": _F("boolean", "the translation dimension formula",
                          default=False),
        "contraction": _F("contraction", flag=True),
        "series_max_rows": _ROWS,
    }, check=_ifs_classical_rules),
    "box_dimension": _Obj({"cloud_depth": _F(
        "integer", "null: the experiment's depth", lo=1)}),
    "minkowski": _Obj({"exponent": _F(
        "number", "null: the similarity dimension, so required on an "
        "explicit system", hi=1, **_POSITIVE)}),
    "cylinder": _Obj({
        "exponent": _F("number", req=True, **_POSITIVE),
        "depth": _F("integer", "null: the experiment's depth", lo=1),
    }),
    "contraction": _Obj({"depth": _F(
        "integer", "null: the experiment's depth", lo=1)}),
    GAP_TRIPLE: _Obj(dict({"ifs": _IFS, "depth": _DEPTH,
                           "interval": _INTERVAL}, **_MODEL_FIELDS),
                     check=_gap_triple_rules),
    PAIR_TRIPLE: _Obj(dict({
        "ifs": _IFS,
        "cap": _F("integer", "eigen-entries enumerated; the default is "
                  "capped at the entry budget", default=2 * 10**5,
                  lo=asy.MIN_CAP, hi=_ENTRIES),
        "max_depth": _F("integer", "longest word; null: no limit", lo=0),
        "seed_pair": _F("pair", "null: the fixed points of the first two "
                        "maps", msg="must be [x, y]"),
    }, **_MODEL_FIELDS), check=_pair_triple_rules),
    LINK_CHECK: _Obj({
        "ifs": _IFS, "depth": _DEPTH, "interval": _INTERVAL,
        "exponent": _F("number", "null: the similarity dimension, or "
                       "1 / ord on an explicit system", hi=1, **_POSITIVE),
    }, check=_link_check_rules),
    "ifs": _Obj({
        "generation": _choice(
            "stationary", "periodic", "explicit",
            doc="stationary: one block that repeats; periodic: blocks that "
            "repeat in turn; explicit: levels, then the system ends"),
        "maps": _F("map[]", req=True, when=("stationary",)),
        "blocks": _F("map[][]", "cycled level by level", req=True,
                     when=("periodic",)),
        "levels": _F("map[][]", "one block per level, then the system ends",
                     req=True, when=("explicit",)),
        "box": _F("pair", "[lo, hi] corners of an asserted open set",
                  msg="must be [lo, hi]"),
    }, tag="generation", off="not a {} field", check=_ifs),
    "map": _Obj({
        "ratio": _F("number", req=True, stop=True, lo=0, hi=1, lo_open=True,
                    hi_open=True, msg="must be a number in (0, 1)"),
        "translation": _F("coords", "fixes the ambient dimension",
                          req=True),
        "flip": _F("boolean", "1d orientation reversal", default=False),
        "orthogonal": _F("matrix", "orthogonal part, dim x dim", null=True,
                         excludes="flip"),
    }, check=_map),
    "functional": _Obj({
        "type": _choice("constant", "affine", "box_indicator",
                        msg="must be one of constant, affine, box_indicator"),
        "value": _F("number", default=1.0, when=("constant",)),
        "slope": _F("coords", "a number or a vector", req=True,
                    when=("affine",)),
        "intercept": _F("number", default=0.0, when=("affine",)),
        "lo": _F("point", "lower corner", req=True, stop=True,
                 when=("box_indicator",),
                 missing="box_indicator needs lo and hi"),
        "hi": _F("point", "upper corner", req=True, stop=True,
                 when=("box_indicator",),
                 missing="box_indicator needs lo and hi"),
        "margin": _F("number", "ramp width; 0 is the sharp indicator",
                     default=0.0, lo=0.0, when=("box_indicator",)),
    }, tag="type", check=_functional),
    "zeta": _Obj({"s": _F("positives", "exponents", req=True,
                          msg="must be a nonempty list of positive numbers")}),
}

@dataclass
class Experiment:
    kind: str
    name: str
    rng_seed: int | None
    series: bool
    report_name: str
    params: dict   # validated and normalized; holds built objects
    raw: dict      # the user's object, each values field as its validated
                   # array; the report echoes that as its digest
    budget: Budget  # validated against; the run and its report use it


def _experiment(ctx, obj, path, index):
    v = _walk(ctx, obj, path, "experiment")
    if v is None:
        return None
    kind = v["kind"]
    name = v["name"] if "name" in obj \
        else kind.lower() if index is None else f"{kind.lower()}-{index}"
    if name is None:
        return None
    report = (v["output"] or {}).get("report") or f"{name}.report.json"
    p = v["parameters"] or {}
    arrays = {k: p[k] for k, f in _OBJECTS[kind].fields.items()
              if f.type == "values" and k in p}
    raw = dict(obj, parameters=dict(obj["parameters"], **arrays)) \
        if arrays else obj
    # problems elsewhere still fail the parse; returning the experiment here
    # lets the name/report collision checks run over the whole batch
    return Experiment(kind, name, v["seed"], bool(v["series"]), report, p,
                      raw, ctx.budget)


def parse_config(doc, budget: Budget = Budget()) -> list:
    """Validate a config document; raises ValidationError listing every
    problem with its JSON path, or returns the experiments to run."""
    ctx = _Ctx(budget)
    if not isinstance(doc, dict):
        ctx.fail("$", "must be an object")
        raise ValidationError(ctx.problems)
    if "experiments" in doc:
        ctx.check_keys(doc, "$", {"experiments"})
        raw = doc["experiments"]
        if not isinstance(raw, list) or not raw:
            ctx.fail("$.experiments", "must be a nonempty list")
            raise ValidationError(ctx.problems)
        exps = [_experiment(ctx, e, f"$.experiments[{i}]", i)
                for i, e in enumerate(raw)]
    else:
        exps = [_experiment(ctx, doc, "$", None)]
    for attr, what in (("name", "experiment name"),
                       ("report_name", "report file")):
        given = [getattr(e, attr) for e in exps if e is not None]
        for n in sorted(set(given)):
            if given.count(n) > 1:
                ctx.fail("$", f"duplicate {what} '{n}'")
    if ctx.problems:
        raise ValidationError(ctx.problems)
    return exps


# ---------------------------------------------------------------------------
# CSV series

_CSV_BLOCK_ROWS = 4096
_SERIES_SAMPLES = 256  # geometric sample points of a sequence's series


def _csv_cells(col: np.ndarray) -> list:
    """Cell text of one column: integers by str, anything else by the
    shortest round-trip repr of its float64 value.

    Eigenvalue lists repeat values (every model entry is listed twice, and
    products of contraction ratios recur across words), so floats are
    formatted once per distinct bit pattern and indexed back; bit patterns
    keep -0.0 apart from 0.0, and every NaN prints as nan.
    """
    if col.dtype.kind in "iu":
        return list(map(str, col.tolist()))
    bits = np.ascontiguousarray(col, dtype=np.float64).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(repr, distinct.view(np.float64).tolist())),
                    dtype=object)
    return text[inverse].tolist()


def _write_csv(path, header: str, columns):
    """Write `header`, then row k of the CSV from element k of every column,
    stopping at the shortest column.

    Rows are formatted and written in blocks of _CSV_BLOCK_ROWS, so the cell
    text held at once stays bounded whatever the column length; distinct
    floats are found per block for the same reason.
    """
    cols = [np.asarray(c) for c in columns]
    n_rows = min((len(c) for c in cols), default=0)
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n_rows)
            cells = [_csv_cells(c[lo:hi]) for c in cols]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


class _Series:
    """The CSV series of one experiment.  ``files`` maps each key written to
    its file name, the report's ``series``; with the experiment's series
    off, nothing is written."""

    def __init__(self, exp, out_dir):
        self.on = exp.series
        self.name = exp.name
        self.out_dir = out_dir
        self.files = {}

    def write(self, key, header, columns, max_rows=None, numbered=False):
        """Write ``<name>.<key>.csv``: at most ``max_rows`` rows (all when
        None), behind a first column numbering them from 1 when
        ``numbered``."""
        if not self.on:
            return
        cols = [np.asarray(c)[:max_rows] for c in columns]
        if numbered:
            cols.insert(0, np.arange(1, min(map(len, cols)) + 1))
        fname = f"{self.name}.{key}.csv"
        _write_csv(f"{self.out_dir}/{fname}", header, cols)
        self.files[key] = fname


def _sample_indices(cap: int) -> np.ndarray:
    return _distinct(np.geomspace(1, cap, _SERIES_SAMPLES).astype(np.int64))


def _sequence_series(out, seq, scan):
    """A sequence's partial sums S_n at sampled n, and its eccentricity
    scan's ratio gaps."""
    if not out.on:   # the partial sums are computed for their CSV only
        return
    n = _sample_indices(seq.cap)
    out.write("partial_sums", "n,S_n",
              [n, asy.partial_sums(seq, NON_TRACE_CLASS, n).values])
    out.write("eccentricity", "log_n,ratio_gap", [scan.t_points, scan.gaps])


def _entries_table(model, max_rows):
    """Header and columns of a model's entries CSV: mu_k and the coordinates
    of both tags, one row per entry, for the first ``max_rows`` entries (all
    when None)."""
    tx, ty = model.tag_matrix(max_rows)
    dim = tx.shape[1]
    axes = [""] if dim == 1 else [f"_{i}" for i in range(1, dim + 1)]
    header = ",".join(["k", "mu_k"] + [f"tag_{t}{a}" for t in "xy"
                                       for a in axes])
    return header, [model.values, *tx.T, *ty.T]


def _dimension_ratios(values):
    """Partial dimension ratios log n / log(1/mu_n) along the enumeration."""
    n = _sample_indices(len(values))
    mu = np.asarray(values, dtype=float)[n - 1]
    ok = (mu > 0) & (mu < 1) & (n > 1)
    n, mu = n[ok], mu[ok]
    with np.errstate(over="ignore"):
        inv = 1.0 / mu
    # 1 / mu overflows on subnormal mu, where -log(mu) is still finite
    return [n, np.log(n) / np.where(np.isinf(inv), -np.log(mu), np.log(inv))]


# ---------------------------------------------------------------------------
# runners

def _entry(op, parameters, values) -> dict:
    """The report entry of the package function ``op`` that ran, named by
    the last part of its module and its own name."""
    return dict(module=op.__module__.rpartition(".")[2], op=op.__name__,
                parameters=parameters, values=values)


def _band(est) -> dict:
    """A ``sequences.Estimate`` with its interval."""
    return _val(est.value, est.lo, est.hi)


def _sequence_entries(p, out, seq, build, parameters):
    """A built sequence's entries, in report order: the ``build`` that made
    it, its analysis and the scans of its powers at ``gammas``; and its CSV
    series.  Returns them with the entries used."""
    tol = p["tolerance"]
    rep = asy.analyze_sequence(seq, tolerance=tol)
    cb, cls = rep.c_bounds, rep.classification
    se = cls.tail_exponent_se
    values = {
        "ord": _band(rep.ord_estimate),
        "ord_method": rep.ord_estimate.method,
        "dimension": _band(rep.dimension),
        "c_lower": _band(cb.c_lower),
        "c_upper": _band(cb.c_upper),
        "jump_regime": bool(cb.jump_regime),
        "classification": cls.label,
        "in_l1": cls.in_l1,
        "in_l1_weak": cls.in_l1_weak,
        # interval is +-1 standard error of the tail fit
        "tail_exponent": _val(cls.tail_exponent, cls.tail_exponent - se,
                              cls.tail_exponent + se),
        "eccentric_count": len(rep.scan),
        "scan_inf_gap": _val(rep.scan.inf_gap),
        "scan_route": rep.scan.route,
        "sandwich_holds": bool(rep.sandwich_holds()),
        "note": rep.note,
    }
    if rep.trace_value is not None:
        values["dixmier"] = _band(rep.trace_value)
        values["dixmier_measurable"] = bool(rep.trace_value.measurable)
    results = [_entry(build, parameters, {"cap": int(seq.cap)}),
               _entry(asy.analyze_sequence,
                      {"tolerance": tol, "cap": int(seq.cap)}, values)]
    for g in p.get("gammas", ()):
        powered = seq.power(g)
        kind = asy.resolve_kind(powered)
        scan = asy.eccentricity_scan(powered, kind, tol)
        results.append(_entry(
            asy.eccentricity_scan,
            {"gamma": g, "tolerance": tol, "kind": kind},
            {"eccentric_count": len(scan), "inf_gap": _val(scan.inf_gap),
             "nonempty": bool(scan.nonempty), "route": scan.route}))
    _sequence_series(out, seq, rep.scan)
    return results, int(seq.cap)


def _run_sequence_analysis(exp, out):
    p = exp.params
    if "values" in p:
        build = EigenvalueSequence.from_values
        seq, parameters = build(p["values"]), {"n": len(p["values"])}
    else:
        c, a = p["mu"]["coefficient"], p["mu"]["exponent"]
        def mu(n):   # c n^-a in the one float copy of the int64 indices
            x = n.astype(float)
            return np.multiply(np.power(x, -a, out=x), c, out=x)
        build = EigenvalueSequence.from_function
        seq = build(mu, cap=p["cap"])
        parameters = dict(p["mu"])
    return _sequence_entries(p, out, seq, build, parameters)


def _run_exemplar(exp, out):
    p = exp.params
    build = ex.step_sequence if p["family"] == "step" \
        else ex.two_slope_sequence
    return _sequence_entries(p, out, build(p["spec"], cap=p["cap"]), build,
                             dict(asdict(p["spec"]), cap=p["cap"]))


def _gap_parameters(p) -> dict:
    """The depth and bounding interval of a gap analysis, as echoed."""
    return {"depth": p["depth"],
            "interval": list(p["interval"]) if p["interval"] else None}


def _gap_list_entry(gaps, p) -> dict:
    width = gaps.b - gaps.a
    gap_sum = float(gaps.lengths.sum())
    residual = float(gaps.residual_lengths.sum())
    # gaps and residual intervals tile the hull, solid or not
    defect = width - gap_sum - residual
    return _entry(fg.gaps_from_interval_ifs, _gap_parameters(p), {
        "count": int(len(gaps.lengths)),
        "exact": bool(gaps.exact),
        "max_level": int(gaps.levels.max()) if len(gaps.lengths) else 0,
        "hull": [float(gaps.a), float(gaps.b)],
        "gap_sum": _val(gap_sum),
        "residual_sum": _val(residual),
        "conservation_defect": _val(defect),
        "min_gap": _val(gaps.min_gap()),
        "completeness_cutoff": _val(gaps.completeness_cutoff)})


def _similarity_val(d) -> dict:
    """A similarity dimension d as a measurement: the bisection's last
    bracket, of width at most _BISECTION_TOL, holds both the root and its
    midpoint d."""
    tol = fg._BISECTION_TOL
    return _val(d, d - tol, d + tol)


def _run_ifs_classical(exp, out):
    p = exp.params
    ifs, words = p["ifs"], exp.budget.words
    results = []
    dim = None   # an explicit system has no similarity dimension
    if ifs.period:
        dim = fg.similarity_dimension(ifs)
        results.append(_entry(fg.similarity_dimension, {},
                              {"dimension": _similarity_val(dim)}))
    gaps = None
    if _gaps_on(p):
        gaps = fg.gaps_from_interval_ifs(ifs, p["depth"], budget=words,
                                         interval=p["interval"])
        results.append(_gap_list_entry(gaps, p))
        out.write("gaps", "k,start,end,length,level",
                  [gaps.starts, gaps.ends, gaps.lengths, gaps.levels],
                  p["series_max_rows"], numbered=True)
    if p["box_dimension"] is not None:
        cd = p["box_dimension"].get("cloud_depth") or p["depth"]
        cloud = fg.attractor_cloud(ifs, cd, budget=words)
        est = fg.box_dimension_estimate(cloud)
        results.append(_entry(fg.box_dimension_estimate, {"cloud_depth": cd}, {
            "dimension": _band(est),
            "n_eps": int(len(est.eps)),
            "cloud_points": int(len(cloud.points))}))
        out.write("box_counts", "eps,count", [est.eps, est.counts])
    if p["minkowski"] is not None:
        # validation leaves the exponent unset only where dim is known
        d = p["minkowski"]["exponent"] or dim
        content = fg.minkowski_content_estimate(gaps, d)
        results.append(_entry(fg.minkowski_content_estimate, {"exponent": d}, {
            "content": _band(content),
            "measurable": bool(content.measurable),
            "oscillation": _val(content.oscillation),
            "oscillation_coarse": _val(content.oscillation_coarse),
            "n_eps": int(len(content.eps))}))
        out.write("tube", "eps,ratio_lo,ratio_hi",
                  [content.eps, content.ratio_lo, content.ratio_hi])
    if p["cylinder"] is not None:
        s = p["cylinder"]["exponent"]
        cd = p["cylinder"]["depth"] or p["depth"]
        cm = fg.cylinder_measure(ifs, s, cd, budget=words)
        results.append(_entry(
            fg.cylinder_measure, {"exponent": s, "depth": cd},
            {"n_words": int(len(cm.weights)),
             "total": _val(float(cm.weights.sum())),
             "max_weight": _val(float(cm.weights.max())),
             "min_weight": _val(float(cm.weights.min()))}))
    if p["translation"]:
        td = fg.translation_dimension_formula(ifs, p["depth"])
        results.append(_entry(
            fg.translation_dimension_formula, {"depth": p["depth"]},
            {"dimension": _band(td),
             "closed_form": bool(td.closed_form)}))
    if p["contraction"] is not None:
        cd = p["contraction"].get("depth") or p["depth"]
        run = fg.contraction_limit(ifs, np.zeros(ifs.dim), cd, budget=words)
        results.append(_entry(fg.contraction_limit, {"depth": cd}, {
            "bound_margin": _val(run.bound_margin()),
            "final_step": _val(float(run.rho[-1])),
            "steps": int(len(run.rho))}))
    entries_used = 0 if gaps is None else 2 * int(len(gaps.lengths))
    return results, entries_used


def _model_entries(p, out, model, build, parameters, values):
    """A built model's entries, in report order: the ``build`` that made it,
    whose ``values`` gain the model's size and truncation, then its spectral
    dimension, zeta values, residue and functional; and its CSV series.
    Returns them with the entries used."""
    results = [_entry(build, parameters, dict(
        values, entries=len(model), truncated=bool(model.truncated)))]
    sd = st.spectral_dimension(model)
    dim = {"dimension": _band(sd), "ord": _band(sd.ord_estimate)}
    if sd.length_scaling is not None:
        dim["length_scaling"] = _val(sd.length_scaling)
    results.append(_entry(st.spectral_dimension, {}, dim))
    for s in p["zeta"]["s"] if p["zeta"] else ():
        z = st.zeta_partial(model, s)
        err = z.tail_error
        zeta = {"s": _val(z.s),
                "value": _val(z.value, z.value - err, z.value + err),
                "head": _val(z.truncated_sum),
                "tail": _val(z.tail, z.tail - err, z.tail + err),
                "tail_route": z.tail_route,
                "n_terms": int(z.n_terms)}
        if z.closed_form is not None:
            zeta["closed_form"] = _val(z.closed_form)
            zeta["closed_within_error"] = bool(
                abs(z.value - z.closed_form) <= err)
        results.append(_entry(st.zeta_partial, {"s": s}, zeta))
    # unset, the residue is computed where zeta_residue finds a whole period
    if p["residue"] or p["residue"] is None and st._whole_period(model):
        r = st.zeta_residue(model)
        results.append(_entry(st.zeta_residue, {}, {
            "exponent": _similarity_val(r.d),
            "analytic": _val(r.analytic),
            "numeric": _val(r.numeric),
            "agreement": _val(abs(r.analytic - r.numeric))}))
    if p["functional"] is not None:
        func, echo = p["functional"]
        h = st.hausdorff_functional(model, func, d=p["exponent"],
                                    tolerance=p["tolerance"])
        results.append(_entry(
            st.hausdorff_functional,
            {"functional": echo, "exponent": h.exponent,
             "tolerance": p["tolerance"]},
            {"value": _band(h), "measurable": bool(h.measurable),
             "n_points": int(h.n_points)}))
    if out.on:   # the table and the ratios are computed for their CSVs only
        out.write("entries", *_entries_table(model, p["series_max_rows"]),
                  p["series_max_rows"], numbered=True)
        out.write("dimension_ratios", "n,dimension_ratio",
                  _dimension_ratios(model.values))
    return results, len(model)


def _gap_model(exp):
    """The gap list of the experiment's system and the gap triple over it,
    which must fit the entry budget.  (A pair model fits by validation: its
    cap is at most the entry budget.)"""
    p, budget = exp.params, exp.budget
    gaps = fg.gaps_from_interval_ifs(p["ifs"], p["depth"], budget=budget.words,
                                     interval=p["interval"])
    model = st.gap_triple(gaps)
    if len(model) > budget.entries:
        raise BudgetExceeded(
            f"model has {len(model)} entries, budget {budget.entries}")
    return gaps, model


def _run_gap_triple(exp, out):
    p = exp.params
    gaps, model = _gap_model(exp)
    return _model_entries(p, out, model, st.gap_triple, _gap_parameters(p), {
        "completeness_cutoff": _val(gaps.completeness_cutoff),
        "max_value": _val(model.values[0]),
        "min_value": _val(model.values[-1])})


def _run_pair_triple(exp, out):
    p = exp.params
    seed = p["seed_pair"]
    model = st.pair_triple(p["ifs"], seed=seed, cap=p["cap"],
                           max_depth=p["max_depth"])
    parameters = {"cap": p["cap"], "max_depth": p["max_depth"],
                  "seed_pair": None if seed is None
                  else [seed[0].tolist(), seed[1].tolist()]}
    return _model_entries(p, out, model, st.pair_triple, parameters, {
        "ambient_dim": int(model.dim),
        "seed_distance": _val(model.seed_distance),
        "max_depth_reached": int(model.depths.max(initial=0))})


def _run_link_check(exp, out):
    p = exp.params
    gaps, model = _gap_model(exp)
    link = st.minkowski_link_check(model, d=p["exponent"])
    # unset, the exponent is the similarity dimension of a repeating system
    # and 1 / (order of infinitesimal) on an explicit one
    similarity = p["exponent"] is None and bool(model.period)
    results = [_gap_list_entry(gaps, p), _entry(
        st.minkowski_link_check, {"exponent": p["exponent"]}, {
            "exponent": _similarity_val(link.d) if similarity
            else _val(link.d),
            "trace": _band(link.trace),
            "trace_measurable": bool(link.trace.measurable),
            "content": _band(link.content),
            "content_measurable": bool(link.content.measurable),
            "scaled_content": _band(link.scaled_content),
            "lattice": link.lattice,
            "asserted": bool(link.asserted),
            "overlap": bool(link.overlap),
            "entries": len(model)})]
    out.write("tube", "eps,ratio_lo,ratio_hi",
              [link.content.eps, link.content.ratio_lo, link.content.ratio_hi])
    out.write("trace_windows", "window,slope", [link.trace.window_slopes],
              numbered=True)
    return results, len(model)


_RUNNERS = {
    SEQUENCE_ANALYSIS: _run_sequence_analysis,
    EXEMPLAR: _run_exemplar,
    IFS_CLASSICAL: _run_ifs_classical,
    GAP_TRIPLE: _run_gap_triple,
    PAIR_TRIPLE: _run_pair_triple,
    LINK_CHECK: _run_link_check,
}


def _digest(values) -> dict:
    """A values field as a report echoes it: length and SHA-256 of the
    little-endian float64 bytes, read from the array's own buffer."""
    # imported here: hashlib loads OpenSSL, about 3.5 MB of resident memory
    # that every other run, and every import of the package, does without
    import hashlib
    data = np.ascontiguousarray(values, dtype="<f8")
    return {"n": len(values), "sha256": hashlib.sha256(data).hexdigest()}


def run_experiment(exp: Experiment, out_dir: str) -> dict:
    """Run one validated experiment within its budget; return its report."""
    t0 = time.perf_counter()
    out = _Series(exp, out_dir)
    results, entries_used = _RUNNERS[exp.kind](exp, out)
    wall = time.perf_counter() - t0
    return {
        "format": REPORT_FORMAT,
        "name": exp.name,
        "kind": exp.kind,
        # exp.raw, each values array as its digest, hashed where it runs
        "config": dict(exp.raw, parameters={
            k: _digest(x) if isinstance(x, np.ndarray) else x
            for k, x in exp.raw["parameters"].items()}),
        "budget": asdict(exp.budget),
        "results": results,
        "series": out.files,
        "meta": {"package": f"fractrace {__version__}",
                 "entries_used": entries_used,
                 "rng_seed": exp.rng_seed,
                 "wall_time_s": float(wall)},
    }


def run(config_path: str, out_dir: str = ".", budget: Budget = Budget(),
        quiet: bool = False, stdout=None, stderr=None) -> int:
    """Validate and run a config file; returns the process exit code.

    out_dir is created, parents included, before the first experiment runs.
    Experiments run round-robin on one process per CPU in the affinity mask.
    Each config value is held once, a ``values`` list as its validated
    array: the parsed document is released before the first experiment
    runs and before the helpers fork.
    """
    stdout, stderr = stdout or sys.stdout, stderr or sys.stderr
    try:
        with open(config_path) as fh:
            doc = json.load(fh)
    except OSError as e:
        print(f"$: cannot read config: {e}", file=stderr)
        return 2
    except ValueError as e:
        # a JSONDecodeError, or an integer literal past int()'s digit limit
        print(f"$: invalid JSON: {e}", file=stderr)
        return 2
    try:
        exps = parse_config(doc, budget)
    except ValidationError as e:
        for problem in e.problems:
            print(problem, file=stderr)
        return 2
    del doc
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"$: cannot write {out_dir}: {e}", file=stderr)
        return 2
    return _run_batch(exps, out_dir, quiet, stdout, stderr)


def _run_batch(exps, out_dir, quiet, stdout, stderr) -> int:
    """Run validated experiments round-robin on one process per CPU in the
    affinity mask, this one and forked helpers, and return the exit code.
    Every helper is reaped before this returns or raises."""
    n = len(exps)
    procs = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        procs = max(1, min(len(os.sched_getaffinity(0)), n))
    outcomes = [None] * n   # (failed, line) of each experiment once known
    helpers = {}            # pipe read end -> [pid, rank, unread bytes]
    printed = lost = 0

    def poll(selector, timeout):
        """Take what the helpers sent; reap each one whose pipe ended and
        mark the experiments it never reported as lost; print what is
        ready."""
        nonlocal printed, lost
        for key, _ in selector.select(timeout) if helpers else ():
            fd = key.fd
            chunk = os.read(fd, 1 << 16)
            pid, rank, buf = helpers[fd]
            *messages, helpers[fd][2] = (buf + chunk).split(b"\n")
            for message in messages:
                i, failed, line = json.loads(message)
                outcomes[i] = (failed, line)
            if chunk:
                continue
            selector.unregister(fd)
            os.close(fd)
            del helpers[fd]
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            how = (f"exited with status {code}" if code >= 0 else
                   f"was killed by signal {signal.Signals(-code).name}")
            for i in range(rank, n, procs):
                if outcomes[i] is None:
                    outcomes[i] = (True, f"{exps[i].name}: LOST: helper "
                                         f"process {pid} {how}")
                    lost += 1
        while printed < n and outcomes[printed] is not None:
            failed, line = outcomes[printed]
            if failed or not quiet:
                print(line, file=stderr if failed else stdout)
            printed += 1

    stdout.flush()
    stderr.flush()
    try:
        for rank in range(1, procs):
            read_end, write_end = os.pipe()
            pid = os.fork()
            if pid == 0:   # a helper: never returns
                status = 1
                try:
                    for fd in [read_end, *helpers]:
                        os.close(fd)
                    status = _helper(exps, rank, procs, out_dir, write_end)
                finally:
                    os._exit(status)
            os.close(write_end)
            helpers[read_end] = [pid, rank, b""]
        with selectors.DefaultSelector() as selector:
            for fd in helpers:
                selector.register(fd, selectors.EVENT_READ)
            for i in range(0, n, procs):
                outcomes[i] = _outcome(exps[i], out_dir)
                poll(selector, 0)
            while helpers:
                poll(selector, None)
    finally:
        for fd, (pid, _, _) in helpers.items():
            os.close(fd)
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    if lost:
        return 1
    return 3 if any(failed for failed, _ in outcomes) else 0


def _outcome(exp, out_dir) -> tuple:
    """Run one experiment and write its report; return (failed, line), the
    line ``run`` prints for it, on stderr when failed."""
    try:
        report = run_experiment(exp, out_dir)
    except FractraceError as e:
        return True, f"{exp.name}: {e.code}: {e}"
    except (ValueError, ArithmeticError) as e:
        return True, f"{exp.name}: PRECONDITION: {e}"
    path = f"{out_dir}/{exp.report_name}"
    with open(path, "w") as fh:
        fh.write(dumps_canonical(report))
    wall = report["meta"]["wall_time_s"]
    return False, f"{exp.name}: {exp.kind} ok ({wall:.2f} s) -> {path}"


def _helper(exps, rank, procs, out_dir, fd) -> int:
    """Body of a forked helper: run experiments rank, rank + procs, …, send
    one JSON line [index, failed, line] per experiment down ``fd``, and
    return the helper's exit status."""
    try:
        with open(fd, "w") as pipe:
            for i in range(rank, len(exps), procs):
                pipe.write(json.dumps([i, *_outcome(exps[i], out_dir)])
                           + "\n")
                pipe.flush()
    except Exception:
        traceback.print_exc()
        sys.stderr.flush()
        return 1
    return 0


# ---------------------------------------------------------------------------
# report comparison

def _is_measurement(x) -> bool:
    return isinstance(x, dict) and set(x) == {"value", "interval"}


def _num_or_none(x):
    return float(x) if isinstance(x, (int, float)) \
        and not isinstance(x, bool) else None


_INFINITE_ENDS = {"inf": math.inf, "-inf": -math.inf}


def _end_or_none(x):
    """An interval end as a float, reading the "inf"/"-inf" that the report
    writes for infinite ends; None for anything else that is not a number
    ("nan" included)."""
    return _INFINITE_ENDS.get(x) if isinstance(x, str) else _num_or_none(x)


def _diff_measurement(a, b, path, rows):
    av, bv = _num_or_none(a["value"]), _num_or_none(b["value"])
    ai, bi = a["interval"], b["interval"]
    if av is None or bv is None:
        # non-finite values arrive as strings; equality is all we can test
        rows.append({"path": path, "a": a["value"], "b": b["value"],
                     "significant": a["value"] != b["value"]})
        return
    lo_a, hi_a = (_end_or_none(v) for v in ai)
    lo_b, hi_b = (_end_or_none(v) for v in bi)
    if None in (lo_a, hi_a, lo_b, hi_b):
        disjoint = av != bv
    else:
        disjoint = hi_a < lo_b or hi_b < lo_a
    rows.append({"path": path, "a": av, "b": bv, "diff": bv - av,
                 "significant": bool(disjoint)})


def _diff_walk(a, b, path, rows):
    if _is_measurement(a) and _is_measurement(b):
        _diff_measurement(a, b, path, rows)
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for k in sorted(set(a) | set(b)):
            sub = f"{path}.{k}"
            if k not in a or k not in b:
                rows.append({"path": sub, "a": a.get(k, "<missing>"),
                             "b": b.get(k, "<missing>"), "significant": True})
            else:
                _diff_walk(a[k], b[k], sub, rows)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            rows.append({"path": path, "a": f"<{len(a)} items>",
                         "b": f"<{len(b)} items>", "significant": True})
        for i in range(min(len(a), len(b))):
            _diff_walk(a[i], b[i], f"{path}[{i}]", rows)
        return
    na, nb = _num_or_none(a), _num_or_none(b)
    if na is not None and nb is not None:
        # bare numbers are exact metadata (counts, flags); any change counts
        if na != nb:
            rows.append({"path": path, "a": a, "b": b, "diff": nb - na,
                         "significant": True})
        return
    if a != b:
        rows.append({"path": path, "a": a, "b": b, "significant": True})


def compare_reports(doc_a: dict, doc_b: dict) -> dict:
    """Field-by-field diff of two reports' results.

    Measurements are compared through their intervals: the difference is
    flagged significant only when the intervals are disjoint.  Bare values
    (counts, labels, routes) must match exactly.  Wall time and the rest of
    the meta block are not compared.  ``config_identical`` holds when both
    reports have one format and the same config echo; a values list is
    echoed as its digest, so equal digests stand for equal lists.  A
    fractrace-report/1 report, which echoed the list itself, and a /2
    report never have identical configs.  Raises KindMismatch when the
    reports describe different experiment kinds.
    """
    ka, kb = doc_a.get("kind"), doc_b.get("kind")
    if ka != kb:
        raise KindMismatch(f"cannot compare {ka} with {kb}")
    rows = []
    _diff_walk(doc_a.get("results"), doc_b.get("results"), "$.results", rows)
    same_config = doc_a.get("format") == doc_b.get("format") \
        and dumps_canonical(doc_a.get("config")) \
        == dumps_canonical(doc_b.get("config"))
    return {
        "format": DIFF_FORMAT,
        "kind": ka,
        "a": doc_a.get("name"),
        "b": doc_b.get("name"),
        "config_identical": same_config,
        "entries": rows,
        "n_compared": len(rows),
        "n_significant": sum(1 for r in rows if r["significant"]),
    }


def compare(path_a: str, path_b: str, out_path: str | None = None,
            quiet: bool = False, stdout=None, stderr=None) -> int:
    """CLI face of compare_reports; returns the process exit code."""
    stdout, stderr = stdout or sys.stdout, stderr or sys.stderr
    docs = []
    for path in (path_a, path_b):
        try:
            with open(path) as fh:
                doc = json.load(fh)
            if not isinstance(doc, dict):
                raise ValueError("expected a JSON object, got a "
                                 f"{type(doc).__name__}")
        except (OSError, ValueError) as e:
            print(f"$: cannot read report {path}: {e}", file=stderr)
            return 2
        docs.append(doc)
    try:
        diff = compare_reports(docs[0], docs[1])
    except KindMismatch as e:
        print(f"{KindMismatch.code}: {e}", file=stderr)
        return 2
    text = dumps_canonical(diff)
    if out_path is not None:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as e:
            print(f"$: cannot write {out_path}: {e}", file=stderr)
            return 2
        if not quiet:
            print(f"{diff['n_significant']} significant of "
                  f"{diff['n_compared']} compared -> {out_path}", file=stdout)
    else:
        stdout.write(text)
    return 0


# ---------------------------------------------------------------------------
# schema document

def config_schema() -> dict:
    """Machine-readable description of the accepted config layout.

    The document is rendered from ``_OBJECTS``, the field table that
    ``parse_config`` walks, so every field, bound and default shown here is
    the one enforced.  A key without '?' is required (for the variants in
    its ``for`` list, when it has one); ``default`` is what an absent
    optional field means, null standing for the value its ``doc`` names.
    ``rules`` lists the checks of each object that span several fields.
    """
    def field(f):
        t = f.type
        doc = {"type": "object: the parameters of the kind" if t == _PER_KIND
               else ("boolean or " if f.flag else "") + t
               if t in _OBJECTS or t.endswith("[]") else _VALUE_TYPES[t][1]}
        if f.choices:
            doc["enum"] = list(f.choices)
        if f.lo is not None:
            doc["exclusiveMinimum" if f.lo_open else "minimum"] = f.lo
        if f.hi is not None:
            doc["exclusiveMaximum" if f.hi_open else "maximum"] = f.hi
        if not f.req:
            doc["default"] = f.default
        for key, value in (("for", f.when), ("nullable", f.null or f.flag),
                           ("excludes", f.excludes), ("doc", f.doc)):
            if value:
                doc[key] = list(value) if key == "for" else value
        return doc

    objects = {name: {k if f.req else k + "?": field(f)
                      for k, f in spec.fields.items()}
               for name, spec in _OBJECTS.items()}
    return {
        "format": "fractrace-config/1",
        "root": "an experiment object, or {experiments: [experiment, ...]}",
        "notation": "T[] is a nonempty list of T; a discriminator 'a|b' "
                    "means exactly one of a and b is given",
        "experiment": objects.pop("experiment"),
        "kinds": {kind: objects.pop(kind) for kind in KINDS},
        "types": objects,
        "discriminators": {name: spec.tag for name, spec in _OBJECTS.items()
                           if spec.tag},
        "rules": {name: [line.strip() for line in
                         spec.check.__doc__.strip().splitlines()]
                  for name, spec in _OBJECTS.items() if spec.check},
        "budgets": {"entries": DEFAULT_ENTRY_BUDGET,
                    "words": DEFAULT_WORD_BUDGET,
                    "flag": "--budget ENTRIES[,WORDS]"},
        "exit_codes": {"0": "success",
                       "1": "a helper process died and took experiments "
                            "with it",
                       "2": "config or schema violation",
                       "3": "numeric precondition failure"},
    }
