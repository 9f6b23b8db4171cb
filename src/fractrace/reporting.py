"""Configuration-driven experiment runner with replayable JSON reports.

A config file describes one experiment (or a batch under "experiments"); the
runner validates it, executes the requested operations, and writes one
report per experiment plus optional CSV series.  These rules shape
everything here:

* Validation is exhaustive.  Every schema violation is collected with its
  JSON path before anything runs, so a config is fixed in one round trip.
  One field table, ``_OBJECTS``, drives the validation and renders the
  ``schema`` document.
* Every float measurement in a report carries an interval.  Point values get
  the degenerate [v, v]; estimates carry the band the producing operation
  reported.  ``compare`` then has a uniform significance test: two values
  differ significantly iff their intervals are disjoint.
* Report bytes are deterministic.  Keys are sorted, floats are written with
  17 significant digits (enough to round-trip exactly), and the only fields
  a replay can change are meta.wall_time_s and meta.package, which names
  the installed fractrace distribution.  A list whose elements are all
  finite Python floats is formatted in one pass with that same 17-digit
  rule, so a long echoed ``values`` list costs one format call, not one
  recursive call per element.
* CSV series are plain columns.  Integer cells are written with ``str`` and
  float cells with ``repr``, the shortest text that round-trips the float64
  (so ``0.1`` stays ``0.1``, where the report JSON writes 17 significant
  digits and quotes nan and infinities; CSV writes them bare).  A model's
  entries CSV has one row per entry, so each repeated eigenvalue repeats
  its row.
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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import asymptotics as asy
from . import exemplars as ex
from . import fractal_geometry as fg
from . import spectral_triples as st
from .errors import (BudgetExceeded, FractraceError, KindMismatch,
                     ValidationError)
from .sequences import NON_TRACE_CLASS, EigenvalueSequence, _write_csv

SEQUENCE_ANALYSIS = "SEQUENCE_ANALYSIS"
EXEMPLAR = "EXEMPLAR"
IFS_CLASSICAL = "IFS_CLASSICAL"
GAP_TRIPLE = "GAP_TRIPLE"
PAIR_TRIPLE = "PAIR_TRIPLE"
LINK_CHECK = "LINK_CHECK"
KINDS = (SEQUENCE_ANALYSIS, EXEMPLAR, IFS_CLASSICAL, GAP_TRIPLE, PAIR_TRIPLE,
         LINK_CHECK)

DEFAULT_ENTRY_BUDGET = 2 * 10**6
DEFAULT_WORD_BUDGET = 10**7
DEFAULT_SERIES_ROWS = 10**5
REPORT_FORMAT = "fractrace-report/1"
DIFF_FORMAT = "fractrace-diff/1"

try:
    from importlib.metadata import version as _dist_version
    _VERSION = _dist_version("fractrace")
except Exception:  # running from a source tree without the dist installed
    _VERSION = "unknown"


@dataclass(frozen=True)
class Budget:
    """Global resource caps shared by every experiment in a run."""

    entries: int = DEFAULT_ENTRY_BUDGET
    words: int = DEFAULT_WORD_BUDGET


# ---------------------------------------------------------------------------
# deterministic JSON

_FLOAT_ONLY = frozenset({float})


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s:
        s += ".0"
    return s


def _emit_floats(xs, pad: str) -> str:
    """``_emit`` of a nonempty list of finite Python floats, in one pass.

    One %-format over the whole list writes every text with the 17-digit
    rule of ``_format_float``.  Its '.0' suffix goes where that text has
    neither '.' nor 'e', which for a finite float is exactly an integral
    value below 1e17 in magnitude: larger integers take the exponent form,
    and a non-integer lies at least one ulp (more than |x| 2**-53) from
    every integer, farther than rounding to 17 significant digits can move
    it.
    """
    fmt = "\n".join(["%.17g.0" if x.is_integer() and -1e17 < x < 1e17
                      else "%.17g" for x in xs])
    text = fmt % tuple(xs)
    if len(text) - (len(xs) - 1) < 72:
        return "[" + text.replace("\n", ", ") + "]"
    inner = pad + "  "
    return "[\n" + inner + text.replace("\n", ",\n" + inner) + "\n" + pad + "]"


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
        if set(map(type, obj)) == _FLOAT_ONLY and all(map(math.isfinite, obj)):
            return _emit_floats(obj, pad)
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
    """A measured float with its interval; [v, v] when exact."""
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
    """Problem accumulator; each entry is '<json path>: <message>'."""

    def __init__(self):
        self.problems = []

    def fail(self, path, msg):
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
    unknown.  ``check(ctx, values, path, budget)`` returns the object's
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


def _bounded(ctx, x, path, f, budget):
    hi = budget.entries if f.hi is _ENTRIES else f.hi
    if f.lo is not None and (x <= f.lo if f.lo_open else x < f.lo):
        op = ">" if f.lo_open else ">="
        return ctx.fail(path, f.msg or f"must be {op} {f.lo}")
    if hi is not None and (x >= hi if f.hi_open else x > hi):
        op = "<" if f.hi_open else "<="
        return ctx.fail(path, f.msg or f"must be {op} {hi}")
    return x


def _number(ctx, x, path, f, budget):
    if not _is_num(x):
        return ctx.fail(path, f.msg or "must be a finite number")
    return _bounded(ctx, float(x), path, f, budget)


def _integer(ctx, x, path, f, budget):
    if not _is_int(x):
        return ctx.fail(path, "must be an integer")
    return _bounded(ctx, int(x), path, f, budget)


def _boolean(ctx, x, path, f, budget):
    return x if isinstance(x, bool) \
        else ctx.fail(path, "must be true or false")


def _name(ctx, x, path, f, budget):
    return x if _is_name(x) else ctx.fail(path, _NAME_OK)


def _choice_value(ctx, x, path, f, budget):
    return x if x in f.choices else ctx.fail(path, f.msg)


def _point(ctx, x, path, f=None, budget=None):
    """A number or list of numbers as a 1d float array."""
    if _is_num(x):
        x = [x]
    if not isinstance(x, list) or not x or not all(_is_num(v) for v in x):
        return ctx.fail(path, "must be a finite number or list of them")
    return np.array([float(v) for v in x])


def _coords(ctx, x, path, f, budget):
    """A number as given, or a list of numbers as a float array."""
    return x if _is_num(x) else _point(ctx, x, path)


def _pair(ctx, x, path, f, budget):
    if not isinstance(x, list) or len(x) != 2:
        return ctx.fail(path, f.msg)
    pts = tuple(_point(ctx, p, f"{path}[{i}]") for i, p in enumerate(x))
    return None if any(p is None for p in pts) else pts


def _interval(ctx, x, path, f, budget):
    if not (isinstance(x, list) and len(x) == 2
            and all(_is_num(v) for v in x) and x[0] < x[1]):
        return ctx.fail(path, "must be [lo, hi] with lo < hi")
    return (float(x[0]), float(x[1]))


def _positives(ctx, x, path, f, budget):
    if not isinstance(x, list) or not x \
            or not all(_is_num(s) and s > 0 for s in x):
        return ctx.fail(path, f.msg)
    return [float(s) for s in x]


def _values(ctx, x, path, f, budget):
    values = _positive_values(x) \
        if isinstance(x, list) and len(x) >= 4 else None
    return ctx.fail(path, "must be a list of at least 4 positive numbers") \
        if values is None else values


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
    "values": (_values, "list of >= 4 positive numbers"),
    # the shape depends on the translation: the map's check tests it
    "matrix": (lambda ctx, x, path, f, budget: x, "list of rows of numbers"),
}
_LIST_MSG = {"map[]": "must be a nonempty list of maps",
             "map[][]": "must be a nonempty list"}


def _value(ctx, x, path, f, budget):
    """The checked value of one given field; None when it has a problem."""
    t = f.type
    if t.endswith("[]"):
        if not isinstance(x, list) or not x:
            return ctx.fail(path, _LIST_MSG[t])
        items = [_value(ctx, e, f"{path}[{i}]", _F(t[:-2]), budget)
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
        out = _walk(ctx, x, path, t, budget)
        return out if len(ctx.problems) == before else None
    return _VALUE_TYPES[t][0](ctx, x, path, f, budget)


def _variant(ctx, obj, path, spec, budget):
    if "|" in spec.tag:
        names = spec.tag.split("|")
        given = [k for k in names if k in obj]
        if len(given) != 1:
            return ctx.fail(path, "give exactly one of " + " and ".join(names))
        return given[0]
    return _value(ctx, obj.get(spec.tag), f"{path}.{spec.tag}",
                  spec.fields[spec.tag], budget)


def _walk(ctx, obj, path, name, budget):
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
        variant = _variant(ctx, obj, path, spec, budget)
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
            v[key] = min(f.default, budget.entries) if f.hi is _ENTRIES \
                else f.default
        else:
            if f.type == _PER_KIND:
                f = f._replace(type=variant)
            v[key] = _value(ctx, obj[key], f"{path}.{key}", f, budget)
        if f.stop and v[key] is None:
            return None
    for key, f in in_use.items():
        if f.excludes and v[key] not in (None, False) \
                and v[f.excludes] not in (None, False):
            return ctx.fail(path,
                            f"give at most one of {f.excludes} and {key}")
    return spec.check(ctx, v, path, budget) if spec.check else v


# -- named checks: the rules that are not local to one field ----------------

_GENERATIONS = {"stationary": fg.STATIONARY, "periodic": fg.PERIODIC,
                "explicit": fg.EXPLICIT}


def _map(ctx, v, path, budget):
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


def _ifs(ctx, v, path, budget):
    """box has lo < hi componentwise
    every map has the same ambient dimension"""
    box = v["box"]
    if box is not None and (len(box[0]) != len(box[1])
                            or not np.all(box[0] < box[1])):
        return ctx.fail(f"{path}.box", "needs lo < hi componentwise")
    gen = v["generation"]
    body = v[{"stationary": "maps", "periodic": "blocks",
              "explicit": "levels"}[gen]]
    if body is None:
        return None
    try:
        return fg.LimitIfs(_GENERATIONS[gen],
                           [body] if gen == "stationary" else body,
                           osc_box=box)
    except (ValueError, TypeError) as e:
        return ctx.fail(path, str(e))


def _functional(ctx, v, path, budget):
    """box_indicator: lo <= hi componentwise, and a box of positive width"""
    ftype = v["type"]
    if ftype == "constant":
        if v["value"] is None:
            return None
        value = float(v["value"])
        # one value per tag point, whatever the dimension of the points
        return (lambda points: np.full(len(points), value)), v
    if ftype == "affine":
        slope, intercept = v["slope"], v["intercept"]
        if slope is None or intercept is None:
            return None
        if isinstance(slope, np.ndarray):
            slope = slope.tolist()
        return (st.affine_functional(slope, intercept),
                {"type": ftype, "slope": slope, "intercept": intercept})
    lo, hi, margin = v["lo"], v["hi"], v["margin"]
    if lo is None or hi is None:
        return None
    if len(lo) != len(hi) or not np.all(lo <= hi):
        return ctx.fail(path, "needs lo <= hi componentwise")
    if margin is None:
        return None
    try:
        func = st.box_indicator(lo, hi, margin=margin)
    except ValueError as e:
        return ctx.fail(path, str(e))
    return func, {"type": ftype, "lo": lo.tolist(), "hi": hi.tolist(),
                  "margin": margin}


def _sequence_rules(ctx, v, path, budget):
    """values: at most the entry budget of them"""
    values = v.get("values")
    if values is not None:
        if len(values) > budget.entries:
            ctx.fail(f"{path}.values",
                     f"length exceeds the entry budget {budget.entries}")
        v["cap"] = len(values)
    return v


def _exemplar_rules(ctx, v, path, budget):
    """two_slope: beta <= alpha"""
    if v.get("alpha") is not None and v.get("beta") is not None \
            and v["beta"] > v["alpha"]:
        ctx.fail(f"{path}.beta", "must be <= alpha")
    return v


def _gaps_on(p) -> bool:
    """Whether the gap analysis runs: as asked, else on a 1d system."""
    return p["ifs"].dim == 1 if p["gaps"] is None else p["gaps"]


def _ifs_classical_rules(ctx, v, path, budget):
    """gaps needs a 1d system
    minkowski needs the gap analysis
    minkowski needs an exponent on a non-stationary system"""
    ifs, mink = v["ifs"], v["minkowski"]
    if v["gaps"] and ifs is not None and ifs.dim != 1:
        ctx.fail(f"{path}.gaps", "gap analysis needs a 1d system")
    if mink is not None:
        if mink["exponent"] is None and ifs is not None \
                and ifs.generation != fg.STATIONARY:
            ctx.fail(f"{path}.minkowski.exponent",
                     "required for a non-stationary system")
        if v["gaps"] is False or (ifs is not None and not _gaps_on(v)):
            ctx.fail(f"{path}.minkowski", "needs the gap analysis enabled")
    return v


def _one_dim(ctx, v, path, msg):
    if v["ifs"] is not None and v["ifs"].dim != 1:
        ctx.fail(f"{path}.ifs", msg)
        v["ifs"] = None


def _residue_rule(ctx, v, path):
    if v["residue"] and v["ifs"] is not None \
            and v["ifs"].generation != fg.STATIONARY:
        ctx.fail(f"{path}.residue", "needs a stationary system")


def _gap_triple_rules(ctx, v, path, budget):
    """ifs is a 1d system
    residue needs a stationary system"""
    _one_dim(ctx, v, path, "gap models need a 1d system")
    _residue_rule(ctx, v, path)
    return v


def _pair_triple_rules(ctx, v, path, budget):
    """seed_pair points have the ambient dimension
    residue needs a stationary system"""
    ifs, seed = v["ifs"], v["seed_pair"]
    if ifs is not None and seed is not None:
        for i, pt in enumerate(seed):
            if len(pt) != ifs.dim:
                ctx.fail(f"{path}.seed_pair[{i}]",
                         f"must have {ifs.dim} coordinates")
    _residue_rule(ctx, v, path)
    return v


def _link_check_rules(ctx, v, path, budget):
    """ifs is a 1d system"""
    _one_dim(ctx, v, path, "the link check needs a 1d system")
    return v


# -- the table ---------------------------------------------------------------

_POSITIVE = dict(lo=0.0, lo_open=True)
_IFS = _F("ifs", req=True)
_DEPTH = _F("integer", "word length of the construction", req=True, lo=1)
_INTERVAL = _F("interval", "bounding interval of the gap analysis; null: "
               "the ifs box, else the smallest invariant interval")
_ROWS = _F("integer", "rows written to the entries or gaps CSV",
           default=DEFAULT_SERIES_ROWS, lo=1)
_TOLERANCE = _F("number", "eccentricity tolerance", default=0.02, **_POSITIVE)
_SEQUENCE_CAP = _F("integer", "entries materialized; the default is capped "
                   "at the entry budget", default=10**5, lo=1000, hi=_ENTRIES)
_MODEL_FIELDS = {
    "zeta": _F("zeta", "zeta values to compute"),
    "residue": _F("boolean", "compute the zeta residue; null: true for a "
                  "stationary system"),
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
        "values": _F("values", "the eigenvalues, nonincreasing", req=True,
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
        "number", "null: the similarity dimension", hi=1, **_POSITIVE)}),
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
                  "capped at the entry budget", default=2 * 10**5, lo=2,
                  hi=_ENTRIES),
        "max_depth": _F("integer", "longest word; null: no limit", lo=0),
        "seed_pair": _F("pair", "null: the fixed points of the first two "
                        "maps", msg="must be [x, y]"),
    }, **_MODEL_FIELDS), check=_pair_triple_rules),
    LINK_CHECK: _Obj({
        "ifs": _IFS, "depth": _DEPTH, "interval": _INTERVAL,
        "exponent": _F("number", "null: the similarity dimension", hi=1,
                       **_POSITIVE),
    }, check=_link_check_rules),
    "ifs": _Obj({
        "generation": _choice(*_GENERATIONS),
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
    raw: dict      # the user's object, echoed into the report


def _experiment(ctx, obj, path, budget, index):
    v = _walk(ctx, obj, path, "experiment", budget)
    if v is None:
        return None
    kind = v["kind"]
    name = v["name"] if "name" in obj \
        else kind.lower() if index is None else f"{kind.lower()}-{index}"
    if name is None:
        return None
    report = (v["output"] or {}).get("report") or f"{name}.report.json"
    # problems elsewhere still fail the parse; returning the experiment here
    # lets the name/report collision checks run over the whole batch
    return Experiment(kind, name, v["seed"], bool(v["series"]), report,
                      v["parameters"], obj)


def parse_config(doc, budget: Budget = Budget()) -> list:
    """Validate a config document; raises ValidationError listing every
    problem with its JSON path, or returns the experiments to run."""
    ctx = _Ctx()
    if not isinstance(doc, dict):
        ctx.fail("$", "must be an object")
        raise ValidationError(ctx.problems)
    if "experiments" in doc:
        ctx.check_keys(doc, "$", {"experiments"})
        raw = doc["experiments"]
        if not isinstance(raw, list) or not raw:
            ctx.fail("$.experiments", "must be a nonempty list")
            raise ValidationError(ctx.problems)
        exps = [_experiment(ctx, e, f"$.experiments[{i}]", budget, i)
                for i, e in enumerate(raw)]
    else:
        exps = [_experiment(ctx, doc, "$", budget, None)]
    names = [e.name for e in exps if e is not None]
    for n in sorted(set(names)):
        if names.count(n) > 1:
            ctx.fail("$", f"duplicate experiment name '{n}'")
    reports = [e.report_name for e in exps if e is not None]
    for r in sorted(set(reports)):
        if reports.count(r) > 1:
            ctx.fail("$", f"duplicate report file '{r}'")
    if ctx.problems:
        raise ValidationError(ctx.problems)
    return exps


# ---------------------------------------------------------------------------
# CSV series

def _sample_indices(cap: int, n: int = 256) -> np.ndarray:
    return np.unique(np.geomspace(1, cap, n).astype(np.int64))


def _series_partial_sums(path, seq: EigenvalueSequence):
    n = _sample_indices(seq.cap)
    s = asy.partial_sums(seq, NON_TRACE_CLASS, n).values
    _write_csv(path, "n,S_n", [n, s])


def _series_scan(path, scan):
    _write_csv(path, "log_n,ratio_gap", [scan.t_points, scan.gaps])


def _series_dimension_ratios(path, values):
    """Partial dimension ratios log n / log(1/mu_n) along the enumeration."""
    n = _sample_indices(len(values))
    mu = np.asarray(values, dtype=float)[n - 1]
    ok = (mu > 0) & (mu < 1) & (n > 1)
    r = np.log(n[ok]) / np.log(1.0 / mu[ok])
    _write_csv(path, "n,dimension_ratio", [n[ok], r])


# ---------------------------------------------------------------------------
# runners

def _analyze_entry(seq, tolerance) -> dict:
    rep = asy.analyze_sequence(seq, tolerance=tolerance)
    cb = rep.c_bounds
    cls = rep.classification
    se = cls.tail_exponent_se
    values = {
        "ord": _val(rep.ord_estimate.value, rep.ord_estimate.lo,
                    rep.ord_estimate.hi),
        "ord_method": rep.ord_estimate.method,
        "dimension": _val(rep.dimension, rep.dimension_lo, rep.dimension_hi),
        "c_lower": _val(cb.c_lower, cb.c_lower_lo, cb.c_lower_hi),
        "c_upper": _val(cb.c_upper, cb.c_upper_lo, cb.c_upper_hi),
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
        tv = rep.trace_value
        values["dixmier"] = _val(tv.value, tv.lo, tv.hi)
        values["dixmier_measurable"] = bool(tv.measurable)
    entry = {"module": "asymptotics", "op": "analyze_sequence",
             "parameters": {"tolerance": tolerance, "cap": int(seq.cap)},
             "values": values}
    return entry, rep


def _run_sequence_analysis(exp, budget, out_dir):
    p = exp.params
    if "values" in p:
        seq = EigenvalueSequence.from_values(p["values"], name=exp.name)
        build = {"module": "sequences", "op": "from_values",
                 "parameters": {"n": len(p["values"])},
                 "values": {"cap": int(seq.cap)}}
    else:
        c, a = p["mu"]["coefficient"], p["mu"]["exponent"]
        seq = EigenvalueSequence.from_function(
            lambda n: c * np.asarray(n, dtype=float) ** (-a),
            cap=p["cap"], name=exp.name)
        build = {"module": "sequences", "op": "from_function",
                 "parameters": dict(p["mu"]),
                 "values": {"cap": int(seq.cap)}}
    entry, rep = _analyze_entry(seq, p["tolerance"])
    series = {}
    if exp.series:
        series = _sequence_series(exp, out_dir, seq, rep.scan)
    return [build, entry], series, int(seq.cap)


def _sequence_series(exp, out_dir, seq, scan):
    f1 = f"{exp.name}.partial_sums.csv"
    _series_partial_sums(f"{out_dir}/{f1}", seq)
    f2 = f"{exp.name}.eccentricity.csv"
    _series_scan(f"{out_dir}/{f2}", scan)
    return {"partial_sums": f1, "eccentricity": f2}


def _run_exemplar(exp, budget, out_dir):
    p = exp.params
    if p["family"] == "two_slope":
        g = p["gaps"]
        gaps = (ex.CONSTANT, g["value"]) if g["form"] == ex.CONSTANT \
            else (ex.LINEAR,)
        spec = ex.TwoSlopeSpec(p["alpha"], p["beta"], gaps)
        seq = ex.two_slope_sequence(spec, cap=p["cap"])
        build = {"module": "exemplars", "op": "two_slope_sequence",
                 "parameters": {"alpha": p["alpha"], "beta": p["beta"],
                                "gaps": list(gaps), "cap": p["cap"]},
                 "values": {"cap": int(seq.cap)}}
    else:
        seq = ex.step_sequence(ex.StepSpec(q=p["q"]), cap=p["cap"])
        build = {"module": "exemplars", "op": "step_sequence",
                 "parameters": {"q": p["q"], "cap": p["cap"]},
                 "values": {"cap": int(seq.cap)}}
    entry, rep = _analyze_entry(seq, p["tolerance"])
    results = [build, entry]
    for g in p["gammas"]:
        powered = seq.power(g)
        kind = asy.resolve_kind(powered)
        scan = asy.eccentricity_scan(powered, kind, p["tolerance"])
        results.append({
            "module": "asymptotics", "op": "eccentricity_scan",
            "parameters": {"gamma": g, "tolerance": p["tolerance"],
                           "kind": kind},
            "values": {"eccentric_count": len(scan),
                       "inf_gap": _val(scan.inf_gap),
                       "nonempty": bool(scan.nonempty),
                       "route": scan.route}})
    series = {}
    if exp.series:
        series = _sequence_series(exp, out_dir, seq, rep.scan)
    return results, series, int(seq.cap)


def _gap_list_entry(gaps, depth, interval) -> dict:
    width = gaps.b - gaps.a
    gap_sum = float(gaps.lengths.sum())
    residual = float(gaps.residual_lengths.sum())
    # gaps and residual intervals tile the hull, solid or not
    defect = width - gap_sum - residual
    return {
        "module": "fractal_geometry", "op": "gaps_from_interval_ifs",
        "parameters": {"depth": depth,
                       "interval": list(interval) if interval else None},
        "values": {"count": int(len(gaps.lengths)),
                   "exact": bool(gaps.exact),
                   "max_level": int(gaps.levels.max()) if len(gaps.lengths) else 0,
                   "hull": [float(gaps.a), float(gaps.b)],
                   "gap_sum": _val(gap_sum),
                   "residual_sum": _val(residual),
                   "conservation_defect": _val(defect),
                   "min_gap": _val(gaps.min_gap()),
                   "completeness_cutoff": _val(gaps.completeness_cutoff)}}


def _similarity_val(d) -> dict:
    """A similarity dimension d as a measurement: the bisection's last
    bracket, of width at most _BISECTION_TOL, holds both the root and its
    midpoint d."""
    tol = fg._BISECTION_TOL
    return _val(d, d - tol, d + tol)


def _run_ifs_classical(exp, budget, out_dir):
    p = exp.params
    ifs = p["ifs"]
    results = []
    series = {}
    if ifs.generation == fg.STATIONARY:
        results.append({"module": "fractal_geometry",
                        "op": "similarity_dimension", "parameters": {},
                        "values": {"dimension": _similarity_val(
                            fg.similarity_dimension(ifs))}})
    gaps = None
    if _gaps_on(p):
        gaps = fg.gaps_from_interval_ifs(ifs, p["depth"],
                                         interval=p["interval"],
                                         budget=budget.words)
        results.append(_gap_list_entry(gaps, p["depth"], p["interval"]))
        if exp.series:
            rows = min(len(gaps.lengths), p["series_max_rows"])
            fname = f"{exp.name}.gaps.csv"
            _write_csv(f"{out_dir}/{fname}", "k,start,end,length,level",
                       [np.arange(1, rows + 1), gaps.starts[:rows],
                        gaps.ends[:rows], gaps.lengths[:rows],
                        gaps.levels[:rows]])
            series["gaps"] = fname
    if p["box_dimension"] is not None:
        cd = p["box_dimension"].get("cloud_depth") or p["depth"]
        cloud = fg.attractor_cloud(ifs, cd, budget=budget.words)
        est = fg.box_dimension_estimate(cloud)
        results.append({"module": "fractal_geometry",
                        "op": "box_dimension_estimate",
                        "parameters": {"cloud_depth": cd},
                        "values": {"dimension": _val(est.value, est.lower,
                                                     est.upper),
                                   "n_eps": int(len(est.eps)),
                                   "cloud_points": int(len(cloud.points))}})
        if exp.series:
            fname = f"{exp.name}.box_counts.csv"
            _write_csv(f"{out_dir}/{fname}", "eps,count",
                       [est.eps, est.counts])
            series["box_counts"] = fname
    if p["minkowski"] is not None:
        d = p["minkowski"]["exponent"]
        if d is None:
            d = fg.similarity_dimension(ifs)
        content = fg.minkowski_content_estimate(gaps, d)
        results.append({"module": "fractal_geometry",
                        "op": "minkowski_content_estimate",
                        "parameters": {"exponent": d},
                        "values": {"content": _val(content.value,
                                                   *content.band),
                                   "measurable": bool(content.measurable),
                                   "oscillation": _val(content.oscillation),
                                   "oscillation_coarse":
                                       _val(content.oscillation_coarse),
                                   "n_eps": int(len(content.eps))}})
        if exp.series:
            fname = f"{exp.name}.tube.csv"
            _write_csv(f"{out_dir}/{fname}", "eps,ratio_lo,ratio_hi",
                       [content.eps, content.ratio_lo, content.ratio_hi])
            series["tube"] = fname
    if p["cylinder"] is not None:
        s = p["cylinder"]["exponent"]
        cd = p["cylinder"]["depth"] or p["depth"]
        cm = fg.cylinder_measure(ifs, s, cd, budget=budget.words)
        results.append({"module": "fractal_geometry", "op": "cylinder_measure",
                        "parameters": {"exponent": s, "depth": cd},
                        "values": {"n_words": int(len(cm.weights)),
                                   "total": _val(float(cm.weights.sum())),
                                   "max_weight": _val(float(cm.weights.max())),
                                   "min_weight": _val(float(cm.weights.min()))}})
    if p["translation"]:
        td = fg.translation_dimension_formula(ifs, p["depth"])
        results.append({"module": "fractal_geometry",
                        "op": "translation_dimension_formula",
                        "parameters": {"depth": p["depth"]},
                        "values": {"dimension": _val(td.value, td.lower,
                                                     td.upper),
                                   "closed_form": bool(td.closed_form)}})
    if p["contraction"] is not None:
        cd = p["contraction"].get("depth") or p["depth"]
        run = fg.contraction_limit(ifs, np.zeros(ifs.dim), cd,
                                   budget=budget.words)
        results.append({"module": "fractal_geometry", "op": "contraction_limit",
                        "parameters": {"depth": cd},
                        "values": {"bound_margin": _val(run.bound_margin()),
                                   "final_step": _val(float(run.rho[-1])),
                                   "steps": int(len(run.rho))}})
    entries_used = 0 if gaps is None else 2 * int(len(gaps.lengths))
    return results, series, entries_used


def _spectral_dim_entry(model) -> dict:
    sd = st.spectral_dimension(model)
    values = {"dimension": _val(sd.value, sd.lo, sd.hi),
              "ord": _val(sd.ord_estimate.value, sd.ord_estimate.lo,
                          sd.ord_estimate.hi)}
    if sd.length_scaling is not None:
        values["length_scaling"] = _val(sd.length_scaling)
    return {"module": "spectral_triples", "op": "spectral_dimension",
            "parameters": {}, "values": values}


def _zeta_entries(model, s_list) -> list:
    out = []
    for s in s_list:
        z = st.zeta_partial(model, s)
        values = {"s": _val(z.s),
                  "value": _val(z.value, z.value - z.tail_error,
                                z.value + z.tail_error),
                  "head": _val(z.truncated_sum),
                  "tail": _val(z.tail, z.tail - z.tail_error,
                               z.tail + z.tail_error),
                  "tail_route": z.tail_route,
                  "n_terms": int(z.n_terms)}
        if z.closed_form is not None:
            values["closed_form"] = _val(z.closed_form)
            values["closed_within_error"] = bool(
                abs(z.value - z.closed_form) <= z.tail_error)
        out.append({"module": "spectral_triples", "op": "zeta_partial",
                    "parameters": {"s": s}, "values": values})
    return out


def _residue_entry(model) -> dict:
    r = st.zeta_residue(model)
    return {"module": "spectral_triples", "op": "zeta_residue",
            "parameters": {}, "values": {
                "exponent": _similarity_val(r.d),
                "analytic": _val(r.analytic),
                "numeric": _val(r.numeric),
                "agreement": _val(abs(r.analytic - r.numeric))}}


def _functional_entry(model, func, echo, exponent, tolerance) -> dict:
    h = st.hausdorff_functional(model, func, d=exponent, tolerance=tolerance)
    return {"module": "spectral_triples", "op": "hausdorff_functional",
            "parameters": {"functional": echo, "exponent": h.exponent,
                           "tolerance": tolerance},
            "values": {"value": _val(h.value, h.lo, h.hi),
                       "measurable": bool(h.measurable),
                       "n_points": int(h.n_points)}}


def _residue_wanted(p, model) -> bool:
    if p["residue"] is not None:
        return p["residue"]
    if isinstance(model, st.GapTripleModel):
        return bool(model.gaps.stationary_ratios)
    return model.ifs.generation == fg.STATIONARY


def _model_entries(exp, model, out_dir):
    """Operations shared by the two model kinds, in report order."""
    p = exp.params
    results = [_spectral_dim_entry(model)]
    if p["zeta"]:
        results.extend(_zeta_entries(model, p["zeta"]["s"]))
    if _residue_wanted(p, model):
        results.append(_residue_entry(model))
    if p["functional"] is not None:
        func, echo = p["functional"]
        results.append(_functional_entry(model, func, echo, p["exponent"],
                                         p["tolerance"]))
    series = {}
    if exp.series:
        fname = f"{exp.name}.entries.csv"
        model.to_csv(f"{out_dir}/{fname}", max_rows=p["series_max_rows"])
        series["entries"] = fname
        fname = f"{exp.name}.dimension_ratios.csv"
        _series_dimension_ratios(f"{out_dir}/{fname}", model.values)
        series["dimension_ratios"] = fname
    return results, series


def _gap_model(p, budget):
    """The gap list of the experiment's system and the gap triple over it,
    which must fit the entry budget.  (A pair model fits by validation: its
    cap is at most the entry budget.)"""
    gaps = fg.gaps_from_interval_ifs(p["ifs"], p["depth"],
                                     interval=p["interval"],
                                     budget=budget.words)
    model = st.gap_triple(gaps)
    if len(model) > budget.entries:
        raise BudgetExceeded(
            f"model has {len(model)} entries, budget {budget.entries}")
    return gaps, model


def _run_gap_triple(exp, budget, out_dir):
    p = exp.params
    gaps, model = _gap_model(p, budget)
    build = {"module": "spectral_triples", "op": "gap_triple",
             "parameters": {"depth": p["depth"],
                            "interval": list(p["interval"])
                            if p["interval"] else None},
             "values": {"entries": len(model),
                        "truncated": bool(model.truncated),
                        "completeness_cutoff": _val(gaps.completeness_cutoff),
                        "max_value": _val(model.values[0]),
                        "min_value": _val(model.values[-1])}}
    results, series = _model_entries(exp, model, out_dir)
    return [build] + results, series, len(model)


def _run_pair_triple(exp, budget, out_dir):
    p = exp.params
    seed = p["seed_pair"]
    model = st.pair_triple(p["ifs"], seed=seed, cap=p["cap"],
                           max_depth=p["max_depth"])
    build = {"module": "spectral_triples", "op": "pair_triple",
             "parameters": {"cap": p["cap"], "max_depth": p["max_depth"],
                            "seed_pair": None if seed is None else
                            [seed[0].tolist(), seed[1].tolist()]},
             "values": {"entries": len(model),
                        "truncated": bool(model.truncated),
                        "ambient_dim": int(model.dim),
                        "seed_distance": _val(model.seed_distance),
                        "max_depth_reached": int(model.depths.max())}}
    results, series = _model_entries(exp, model, out_dir)
    return [build] + results, series, len(model)


def _run_link_check(exp, budget, out_dir):
    p = exp.params
    gaps, model = _gap_model(p, budget)
    link = st.minkowski_link_check(model, d=p["exponent"])
    # unset, the exponent is the similarity dimension of a stationary system
    # and 1 / (order of infinitesimal) otherwise
    similarity = p["exponent"] is None and bool(gaps.stationary_ratios)
    results = [
        _gap_list_entry(gaps, p["depth"], p["interval"]),
        {"module": "spectral_triples", "op": "minkowski_link_check",
         "parameters": {"exponent": p["exponent"]},
         "values": {"exponent": _similarity_val(link.d) if similarity
                    else _val(link.d),
                    "trace": _val(link.trace.value, *link.trace.band),
                    "trace_measurable": bool(link.trace.measurable),
                    "content": _val(link.content.value, *link.content.band),
                    "content_measurable": bool(link.content.measurable),
                    "scaled_content": _val(link.scaled_value, link.scaled_lo,
                                           link.scaled_hi),
                    "lattice": link.lattice,
                    "asserted": bool(link.asserted),
                    "overlap": bool(link.overlap),
                    "entries": len(model)}}]
    series = {}
    if exp.series:
        fname = f"{exp.name}.tube.csv"
        _write_csv(f"{out_dir}/{fname}", "eps,ratio_lo,ratio_hi",
                   [link.content.eps, link.content.ratio_lo,
                    link.content.ratio_hi])
        series["tube"] = fname
        fname = f"{exp.name}.trace_windows.csv"
        _write_csv(f"{out_dir}/{fname}", "window,slope",
                   [np.arange(1, len(link.trace.window_slopes) + 1),
                    link.trace.window_slopes])
        series["trace_windows"] = fname
    return results, series, len(model)


_RUNNERS = {
    SEQUENCE_ANALYSIS: _run_sequence_analysis,
    EXEMPLAR: _run_exemplar,
    IFS_CLASSICAL: _run_ifs_classical,
    GAP_TRIPLE: _run_gap_triple,
    PAIR_TRIPLE: _run_pair_triple,
    LINK_CHECK: _run_link_check,
}


def run_experiment(exp: Experiment, budget: Budget, out_dir: str) -> dict:
    """Execute one validated experiment and return its report document."""
    t0 = time.perf_counter()
    results, series, entries_used = _RUNNERS[exp.kind](exp, budget, out_dir)
    wall = time.perf_counter() - t0
    return {
        "format": REPORT_FORMAT,
        "name": exp.name,
        "kind": exp.kind,
        "config": exp.raw,
        "budget": {"entries": budget.entries, "words": budget.words},
        "results": results,
        "series": series,
        "meta": {"package": f"fractrace {_VERSION}",
                 "entries_used": entries_used,
                 "rng_seed": exp.rng_seed,
                 "wall_time_s": float(wall)},
    }


def run(config_path: str, out_dir: str = ".", budget: Budget = Budget(),
        quiet: bool = False, stdout=None, stderr=None) -> int:
    """Validate and run a config file; returns the process exit code.

    out_dir is created, parents included, before the first experiment runs.
    Experiments run round-robin on one process per CPU in the affinity mask.
    """
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
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
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        print(f"$: cannot write {out_dir}: {e}", file=stderr)
        return 2
    return _run_batch(exps, budget, out_dir, quiet, stdout, stderr)


def _run_batch(exps, budget, out_dir, quiet, stdout, stderr) -> int:
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
                    status = _helper(exps, rank, procs, budget, out_dir,
                                     write_end)
                finally:
                    os._exit(status)
            os.close(write_end)
            helpers[read_end] = [pid, rank, b""]
        with selectors.DefaultSelector() as selector:
            for fd in helpers:
                selector.register(fd, selectors.EVENT_READ)
            for i in range(0, n, procs):
                outcomes[i] = _outcome(exps[i], budget, out_dir)
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


def _outcome(exp, budget, out_dir) -> tuple:
    """Run one experiment and write its report; return (failed, line), the
    line ``run`` prints for it, on stderr when failed."""
    try:
        report = run_experiment(exp, budget, out_dir)
    except FractraceError as e:
        return True, f"{exp.name}: {e.code}: {e}"
    except (ValueError, ArithmeticError) as e:
        return True, f"{exp.name}: PRECONDITION: {e}"
    path = f"{out_dir}/{exp.report_name}"
    with open(path, "w") as fh:
        fh.write(dumps_canonical(report))
    wall = report["meta"]["wall_time_s"]
    return False, f"{exp.name}: {exp.kind} ok ({wall:.2f} s) -> {path}"


def _helper(exps, rank, procs, budget, out_dir, fd) -> int:
    """Body of a forked helper: run experiments rank, rank + procs, …, send
    one JSON line [index, failed, line] per experiment down ``fd``, and
    return the helper's exit status."""
    try:
        with open(fd, "w") as pipe:
            for i in range(rank, len(exps), procs):
                pipe.write(json.dumps([i, *_outcome(exps[i], budget,
                                                    out_dir)]) + "\n")
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
    the meta block are not compared.  Raises KindMismatch when the reports
    describe different experiment kinds.
    """
    ka, kb = doc_a.get("kind"), doc_b.get("kind")
    if ka != kb:
        raise KindMismatch(f"cannot compare {ka} with {kb}")
    rows = []
    _diff_walk(doc_a.get("results"), doc_b.get("results"), "$.results", rows)
    same_config = dumps_canonical(doc_a.get("config")) \
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
    stdout = stdout or sys.stdout
    stderr = stderr or sys.stderr
    docs = []
    for path in (path_a, path_b):
        try:
            with open(path) as fh:
                docs.append(json.load(fh))
        except (OSError, ValueError) as e:
            print(f"$: cannot read report {path}: {e}", file=stderr)
            return 2
    try:
        diff = compare_reports(docs[0], docs[1])
    except KindMismatch as e:
        print(f"{KindMismatch.code}: {e}", file=stderr)
        return 2
    text = dumps_canonical(diff)
    if out_path is not None:
        with open(out_path, "w") as fh:
            fh.write(text)
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
                       "2": "config or schema violation",
                       "3": "numeric precondition failure"},
    }
