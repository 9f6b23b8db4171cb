"""Configuration-driven experiment runner with replayable JSON reports.

A config file describes one experiment (or a batch under "experiments"); the
runner validates it against the schema, executes the requested operations,
and writes one report per experiment plus optional CSV series.  Three rules
shape everything here:

* Validation is exhaustive.  Every schema violation is collected with its
  JSON path before anything runs, so a config is fixed in one round trip.
* Every float measurement in a report carries an interval.  Point values get
  the degenerate [v, v]; estimates carry the band the producing operation
  reported.  ``compare`` then has a uniform significance test: two values
  differ significantly iff their intervals are disjoint.
* Report bytes are deterministic.  Keys are sorted, floats are written with
  17 significant digits (enough to round-trip exactly), and the only field a
  replay can change is meta.wall_time_s.  A list whose elements are all
  finite Python floats is formatted in one pass with that same 17-digit
  rule, so a long echoed ``values`` list costs one format call, not one
  recursive call per element.
* CSV series are plain columns.  Integer cells are written with ``str`` and
  float cells with ``repr``, the shortest text that round-trips the float64
  (so ``0.1`` stays ``0.1``, where the report JSON writes 17 significant
  digits and quotes nan and infinities; CSV writes them bare).  A model's
  entries CSV has one row per entry, so each repeated eigenvalue repeats
  its row.

Exit codes, used by the CLI and mirrored in ``run``'s return value: 0 on
success, 2 for config or schema violations, 3 for numeric precondition
failures raised by the underlying operations.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass

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
# config schema and validation

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


def _opt_num(ctx, obj, path, key, default=None, lo=None, hi=None,
             lo_open=False):
    if key not in obj:
        return default
    x = obj[key]
    if not _is_num(x):
        return ctx.fail(f"{path}.{key}", "must be a finite number")
    if lo is not None and (x <= lo if lo_open else x < lo):
        op = ">" if lo_open else ">="
        return ctx.fail(f"{path}.{key}", f"must be {op} {lo}")
    if hi is not None and x > hi:
        return ctx.fail(f"{path}.{key}", f"must be <= {hi}")
    return float(x)


def _opt_int(ctx, obj, path, key, default=None, lo=None, hi=None):
    if key not in obj:
        return default
    x = obj[key]
    if not _is_int(x):
        return ctx.fail(f"{path}.{key}", "must be an integer")
    if lo is not None and x < lo:
        return ctx.fail(f"{path}.{key}", f"must be >= {lo}")
    if hi is not None and x > hi:
        return ctx.fail(f"{path}.{key}", f"must be <= {hi}")
    return int(x)


def _opt_bool(ctx, obj, path, key, default=None):
    if key not in obj:
        return default
    if not isinstance(obj[key], bool):
        return ctx.fail(f"{path}.{key}", "must be true or false")
    return obj[key]


def _point(ctx, x, path, dim=None):
    """A number or list of numbers -> 1d float array, or None."""
    if _is_num(x):
        x = [x]
    if not isinstance(x, list) or not x or not all(_is_num(v) for v in x):
        return ctx.fail(path, "must be a finite number or list of them")
    if dim is not None and len(x) != dim:
        return ctx.fail(path, f"must have {dim} coordinates")
    return np.array([float(v) for v in x])


def _check_map(ctx, obj, path):
    if not isinstance(obj, dict):
        return ctx.fail(path, "must be an object")
    ctx.check_keys(obj, path, {"ratio", "translation", "flip", "orthogonal"})
    ratio = obj.get("ratio")
    if not _is_num(ratio) or not 0 < ratio < 1:
        return ctx.fail(f"{path}.ratio", "must be a number in (0, 1)")
    if "translation" not in obj:
        return ctx.fail(f"{path}.translation", "required")
    trans = obj["translation"]
    flip = _opt_bool(ctx, obj, path, "flip", False)
    orth = obj.get("orthogonal")
    if flip and orth is not None:
        return ctx.fail(path, "give at most one of flip and orthogonal")
    if _is_num(trans):
        try:
            return fg.interval_map(ratio, trans, flip=bool(flip))
        except (ValueError, TypeError) as e:
            return ctx.fail(path, str(e))
    pt = _point(ctx, trans, f"{path}.translation")
    if pt is None:
        return None
    if flip:
        return ctx.fail(f"{path}.flip", "only meaningful with a scalar translation")
    if orth is not None:
        if (not isinstance(orth, list)
                or any(not isinstance(r, list) or len(r) != len(pt)
                       or not all(_is_num(v) for v in r) for r in orth)
                or len(orth) != len(pt)):
            return ctx.fail(f"{path}.orthogonal",
                            f"must be a {len(pt)}x{len(pt)} matrix of numbers")
        orth = np.array(orth, dtype=float)
    try:
        return fg.Similarity(ratio, pt, orth)
    except (ValueError, TypeError) as e:
        return ctx.fail(path, str(e))


def _check_map_list(ctx, obj, path):
    if not isinstance(obj, list) or not obj:
        return ctx.fail(path, "must be a nonempty list of maps")
    maps = [_check_map(ctx, m, f"{path}[{i}]") for i, m in enumerate(obj)]
    return None if any(m is None for m in maps) else maps


def _check_ifs(ctx, obj, path):
    if not isinstance(obj, dict):
        return ctx.fail(path, "must be an object")
    ctx.check_keys(obj, path, {"generation", "maps", "blocks", "levels", "box"})
    gen = obj.get("generation")
    if gen not in ("stationary", "periodic", "explicit"):
        return ctx.fail(f"{path}.generation",
                        "must be 'stationary', 'periodic' or 'explicit'")
    body_key = {"stationary": "maps", "periodic": "blocks",
                "explicit": "levels"}[gen]
    for k in ("maps", "blocks", "levels"):
        if k in obj and k != body_key:
            ctx.fail(f"{path}.{k}", f"not a {gen} field")
    if body_key not in obj:
        return ctx.fail(f"{path}.{body_key}", "required")
    if gen == "stationary":
        maps = _check_map_list(ctx, obj["maps"], f"{path}.maps")
        blocks = None if maps is None else [maps]
    else:
        raw = obj[body_key]
        if not isinstance(raw, list) or not raw:
            return ctx.fail(f"{path}.{body_key}", "must be a nonempty list")
        blocks = [_check_map_list(ctx, b, f"{path}.{body_key}[{i}]")
                  for i, b in enumerate(raw)]
        if any(b is None for b in blocks):
            blocks = None
    box = None
    if "box" in obj:
        raw = obj["box"]
        if not isinstance(raw, list) or len(raw) != 2:
            return ctx.fail(f"{path}.box", "must be [lo, hi]")
        lo = _point(ctx, raw[0], f"{path}.box[0]")
        hi = _point(ctx, raw[1], f"{path}.box[1]")
        if lo is None or hi is None:
            return None
        if len(lo) != len(hi) or not np.all(lo < hi):
            return ctx.fail(f"{path}.box", "needs lo < hi componentwise")
        box = (lo, hi)
    if blocks is None:
        return None
    try:
        if gen == "stationary":
            return fg.LimitIfs.stationary(blocks[0], osc_box=box)
        if gen == "periodic":
            return fg.LimitIfs.periodic(blocks, osc_box=box)
        return fg.LimitIfs.explicit(blocks, osc_box=box)
    except (ValueError, TypeError) as e:
        return ctx.fail(path, str(e))


_FUNCTIONAL_TYPES = ("constant", "affine", "box_indicator")


def _check_functional(ctx, obj, path):
    """Returns (callable, echo dict) or None."""
    if not isinstance(obj, dict):
        return ctx.fail(path, "must be an object")
    ftype = obj.get("type")
    if ftype not in _FUNCTIONAL_TYPES:
        return ctx.fail(f"{path}.type",
                        "must be one of " + ", ".join(_FUNCTIONAL_TYPES))
    if ftype == "constant":
        ctx.check_keys(obj, path, {"type", "value"})
        value = _opt_num(ctx, obj, path, "value", 1.0)
        if value is None:
            return None
        return st.affine_functional(0.0, value), {"type": ftype, "value": value}
    if ftype == "affine":
        ctx.check_keys(obj, path, {"type", "slope", "intercept"})
        if "slope" not in obj:
            return ctx.fail(f"{path}.slope", "required")
        slope = obj["slope"]
        if not _is_num(slope):
            slope = _point(ctx, slope, f"{path}.slope")
            if slope is None:
                return None
            slope = list(map(float, slope))
        intercept = _opt_num(ctx, obj, path, "intercept", 0.0)
        if intercept is None:
            return None
        return (st.affine_functional(np.asarray(slope, dtype=float)
                                     if isinstance(slope, list) else slope,
                                     intercept),
                {"type": ftype, "slope": slope, "intercept": intercept})
    ctx.check_keys(obj, path, {"type", "lo", "hi", "margin"})
    if "lo" not in obj or "hi" not in obj:
        return ctx.fail(path, "box_indicator needs lo and hi")
    lo = _point(ctx, obj["lo"], f"{path}.lo")
    hi = _point(ctx, obj["hi"], f"{path}.hi")
    margin = _opt_num(ctx, obj, path, "margin", 0.0, lo=0.0)
    if lo is None or hi is None or margin is None:
        return None
    if len(lo) != len(hi) or not np.all(lo <= hi):
        return ctx.fail(path, "needs lo <= hi componentwise")
    return (st.box_indicator(lo, hi, margin=margin),
            {"type": ftype, "lo": list(map(float, lo)),
             "hi": list(map(float, hi)), "margin": margin})


def _check_zeta(ctx, obj, path):
    if not isinstance(obj, dict):
        return ctx.fail(path, "must be an object")
    ctx.check_keys(obj, path, {"s"})
    raw = obj.get("s")
    if not isinstance(raw, list) or not raw \
            or not all(_is_num(s) and s > 0 for s in raw):
        return ctx.fail(f"{path}.s", "must be a nonempty list of positive numbers")
    return [float(s) for s in raw]


def _check_interval(ctx, obj, path):
    if not (isinstance(obj, list) and len(obj) == 2
            and all(_is_num(v) for v in obj) and obj[0] < obj[1]):
        return ctx.fail(path, "must be [lo, hi] with lo < hi")
    return (float(obj[0]), float(obj[1]))


@dataclass
class Experiment:
    kind: str
    name: str
    rng_seed: int | None
    series: bool
    report_name: str
    params: dict   # validated and normalized; holds built objects
    raw: dict      # the user's object, echoed into the report


_COMMON_KEYS = {"kind", "name", "seed", "series", "output", "parameters"}


def _check_experiment(ctx, obj, path, budget, index):
    if not isinstance(obj, dict):
        return ctx.fail(path, "must be an object")
    kind = obj.get("kind")
    if kind not in KINDS:
        ctx.fail(f"{path}.kind", "must be one of " + ", ".join(KINDS))
        return None
    ctx.check_keys(obj, path, _COMMON_KEYS)
    name = obj.get("name", kind.lower() if index is None
                   else f"{kind.lower()}-{index}")
    if not _is_name(name):
        ctx.fail(f"{path}.name", _NAME_OK)
        name = "invalid"
    rng_seed = _opt_int(ctx, obj, path, "seed", None, lo=0)
    series = _opt_bool(ctx, obj, path, "series", True)
    report_name = f"{name}.report.json"
    if "output" in obj:
        out = obj["output"]
        if not isinstance(out, dict):
            ctx.fail(f"{path}.output", "must be an object")
        else:
            ctx.check_keys(out, f"{path}.output", {"report"})
            rn = out.get("report", report_name)
            if not _is_name(rn):
                ctx.fail(f"{path}.output.report", _NAME_OK)
            else:
                report_name = rn
    praw = obj.get("parameters")
    ppath = f"{path}.parameters"
    if not isinstance(praw, dict):
        ctx.fail(ppath, "required object")
        return None
    params = _KIND_VALIDATORS[kind](ctx, praw, ppath, budget)
    if params is None:
        return None
    # problems elsewhere still fail the parse; returning the experiment here
    # lets the name/report collision checks run over the whole batch
    return Experiment(kind, name, rng_seed, bool(series), report_name,
                      params, obj)


def _check_sequence_params(ctx, obj, path, budget):
    ctx.check_keys(obj, path, {"values", "mu", "cap", "tolerance"})
    tolerance = _opt_num(ctx, obj, path, "tolerance", 0.02, lo=0.0, lo_open=True)
    has_values = "values" in obj
    has_mu = "mu" in obj
    if has_values == has_mu:
        return ctx.fail(path, "give exactly one of values and mu")
    if has_values:
        raw = obj["values"]
        values = _positive_values(raw) \
            if isinstance(raw, list) and len(raw) >= 4 else None
        if values is None:
            return ctx.fail(f"{path}.values",
                            "must be a list of at least 4 positive numbers")
        if len(raw) > budget.entries:
            return ctx.fail(f"{path}.values",
                            f"length exceeds the entry budget {budget.entries}")
        if "cap" in obj:
            ctx.fail(f"{path}.cap", "not allowed with explicit values")
        return {"values": values, "tolerance": tolerance, "cap": len(raw)}
    mu = obj["mu"]
    if not isinstance(mu, dict):
        return ctx.fail(f"{path}.mu", "must be an object")
    ctx.check_keys(mu, f"{path}.mu", {"form", "coefficient", "exponent"})
    if mu.get("form") != "power":
        return ctx.fail(f"{path}.mu.form", "must be 'power'")
    coeff = _opt_num(ctx, mu, f"{path}.mu", "coefficient", 1.0, lo=0.0,
                     lo_open=True)
    expo = _opt_num(ctx, mu, f"{path}.mu", "exponent", None, lo=0.0,
                    lo_open=True)
    if expo is None and "exponent" not in mu:
        return ctx.fail(f"{path}.mu.exponent", "required")
    cap = _opt_int(ctx, obj, path, "cap", min(10**5, budget.entries),
                   lo=1000, hi=budget.entries)
    if None in (coeff, expo, cap, tolerance):
        return None
    return {"mu": {"form": "power", "coefficient": coeff, "exponent": expo},
            "cap": cap, "tolerance": tolerance}


def _check_exemplar_params(ctx, obj, path, budget):
    ctx.check_keys(obj, path, {"family", "alpha", "beta", "gaps", "q", "cap",
                               "tolerance", "gammas"})
    family = obj.get("family")
    if family not in ("two_slope", "step"):
        return ctx.fail(f"{path}.family", "must be 'two_slope' or 'step'")
    cap = _opt_int(ctx, obj, path, "cap", min(10**5, budget.entries),
                   lo=1000, hi=budget.entries)
    tolerance = _opt_num(ctx, obj, path, "tolerance", 0.02, lo=0.0,
                         lo_open=True)
    gammas = []
    if "gammas" in obj:
        raw = obj["gammas"]
        if not isinstance(raw, list) or not raw \
                or not all(_is_num(g) and g > 0 for g in raw):
            ctx.fail(f"{path}.gammas",
                     "must be a nonempty list of positive numbers")
        else:
            gammas = [float(g) for g in raw]
    out = {"family": family, "cap": cap, "tolerance": tolerance,
           "gammas": gammas}
    if family == "two_slope":
        for k in ("q",):
            if k in obj:
                ctx.fail(f"{path}.{k}", "not a two_slope field")
        alpha = _opt_num(ctx, obj, path, "alpha", None, lo=0.0, lo_open=True)
        beta = _opt_num(ctx, obj, path, "beta", None, lo=0.0, lo_open=True)
        if "alpha" not in obj:
            ctx.fail(f"{path}.alpha", "required")
        if "beta" not in obj:
            ctx.fail(f"{path}.beta", "required")
        if alpha is not None and beta is not None and beta > alpha:
            ctx.fail(f"{path}.beta", "must be <= alpha")
        gaps = (ex.CONSTANT, 1.0)
        if "gaps" in obj:
            g = obj["gaps"]
            if not isinstance(g, dict):
                ctx.fail(f"{path}.gaps", "must be an object")
            else:
                ctx.check_keys(g, f"{path}.gaps", {"form", "value"})
                form = g.get("form")
                if form == "constant":
                    v = _opt_num(ctx, g, f"{path}.gaps", "value", 1.0,
                                 lo=0.0, lo_open=True)
                    gaps = None if v is None else (ex.CONSTANT, v)
                elif form == "linear":
                    if "value" in g:
                        ctx.fail(f"{path}.gaps.value",
                                 "not allowed with form 'linear'")
                    gaps = (ex.LINEAR,)
                else:
                    ctx.fail(f"{path}.gaps.form",
                             "must be 'constant' or 'linear'")
                    gaps = None
        if None in (alpha, beta, cap, tolerance) or gaps is None:
            return None
        out.update(alpha=alpha, beta=beta, gaps=gaps)
        return out
    for k in ("alpha", "beta", "gaps"):
        if k in obj:
            ctx.fail(f"{path}.{k}", "not a step field")
    q = _opt_num(ctx, obj, path, "q", None, lo=1.0, lo_open=True)
    if "q" not in obj:
        return ctx.fail(f"{path}.q", "required")
    if None in (q, cap, tolerance):
        return None
    out.update(q=q)
    return out


def _check_ifs_classical_params(ctx, obj, path, budget):
    ctx.check_keys(obj, path, {"ifs", "depth", "interval", "gaps",
                               "box_dimension", "minkowski", "cylinder",
                               "translation", "contraction",
                               "series_max_rows"})
    if "ifs" not in obj:
        return ctx.fail(f"{path}.ifs", "required")
    ifs = _check_ifs(ctx, obj["ifs"], f"{path}.ifs")
    depth = _opt_int(ctx, obj, path, "depth", None, lo=1)
    if "depth" not in obj:
        ctx.fail(f"{path}.depth", "required")
    interval = None
    if "interval" in obj:
        interval = _check_interval(ctx, obj["interval"], f"{path}.interval")
    rows = _opt_int(ctx, obj, path, "series_max_rows", DEFAULT_SERIES_ROWS,
                    lo=1)
    params = {"ifs": ifs, "depth": depth, "interval": interval,
              "series_max_rows": rows}

    do_gaps = _opt_bool(ctx, obj, path, "gaps", None)
    if ifs is not None:
        if do_gaps is None:
            do_gaps = ifs.dim == 1
        elif do_gaps and ifs.dim != 1:
            ctx.fail(f"{path}.gaps", "gap analysis needs a 1d system")
    params["gaps"] = bool(do_gaps)

    box = None
    if "box_dimension" in obj:
        b = obj["box_dimension"]
        if isinstance(b, bool):
            box = {} if b else None
        elif isinstance(b, dict):
            ctx.check_keys(b, f"{path}.box_dimension", {"cloud_depth"})
            cd = _opt_int(ctx, b, f"{path}.box_dimension", "cloud_depth",
                          None, lo=1)
            box = {"cloud_depth": cd}
        else:
            ctx.fail(f"{path}.box_dimension", "must be a flag or an object")
    params["box_dimension"] = box

    mink = None
    if "minkowski" in obj:
        m = obj["minkowski"]
        if isinstance(m, bool):
            m = {} if m else None
        if m is not None:
            if not isinstance(m, dict):
                ctx.fail(f"{path}.minkowski", "must be a flag or an object")
                m = None
            else:
                ctx.check_keys(m, f"{path}.minkowski", {"exponent"})
                d = _opt_num(ctx, m, f"{path}.minkowski", "exponent", None,
                             lo=0.0, lo_open=True)
                if d is not None and d > 1:
                    ctx.fail(f"{path}.minkowski.exponent", "must be <= 1")
                    d = None
                if "exponent" in m and d is None:
                    m = None
                else:
                    if d is None and ifs is not None \
                            and ifs.generation != fg.STATIONARY:
                        ctx.fail(f"{path}.minkowski.exponent",
                                 "required for a non-stationary system")
                    m = {"exponent": d}
        mink = m
        if mink is not None and not params["gaps"]:
            ctx.fail(f"{path}.minkowski", "needs the gap analysis enabled")
    params["minkowski"] = mink

    cyl = None
    if "cylinder" in obj:
        c = obj["cylinder"]
        if not isinstance(c, dict):
            ctx.fail(f"{path}.cylinder", "must be an object")
        else:
            ctx.check_keys(c, f"{path}.cylinder", {"exponent", "depth"})
            s = _opt_num(ctx, c, f"{path}.cylinder", "exponent", None,
                         lo=0.0, lo_open=True)
            cd = _opt_int(ctx, c, f"{path}.cylinder", "depth", None, lo=1)
            if "exponent" not in c:
                ctx.fail(f"{path}.cylinder.exponent", "required")
            if s is not None:
                cyl = {"exponent": s, "depth": cd if cd is not None else depth}
    params["cylinder"] = cyl

    params["translation"] = bool(_opt_bool(ctx, obj, path, "translation",
                                           False))
    contr = None
    if "contraction" in obj:
        c = obj["contraction"]
        if isinstance(c, bool):
            contr = {} if c else None
        elif isinstance(c, dict):
            ctx.check_keys(c, f"{path}.contraction", {"depth"})
            contr = {"depth": _opt_int(ctx, c, f"{path}.contraction",
                                       "depth", None, lo=1)}
        else:
            ctx.fail(f"{path}.contraction", "must be a flag or an object")
    params["contraction"] = contr
    if ifs is None or depth is None:
        return None
    return params


def _check_model_common(ctx, obj, path, budget, params):
    """Shared zeta / residue / functional / series knobs of the two models."""
    zeta = None
    if "zeta" in obj:
        zeta = _check_zeta(ctx, obj["zeta"], f"{path}.zeta")
    params["zeta"] = zeta
    params["residue"] = _opt_bool(ctx, obj, path, "residue", None)
    func = None
    if "functional" in obj:
        func = _check_functional(ctx, obj["functional"], f"{path}.functional")
    params["functional"] = func
    params["exponent"] = _opt_num(ctx, obj, path, "exponent", None,
                                  lo=0.0, lo_open=True)
    tol = None
    if "tolerance" in obj and obj["tolerance"] is not None:
        tol = _opt_num(ctx, obj, path, "tolerance", None, lo=0.0, lo_open=True)
    params["tolerance"] = tol
    params["series_max_rows"] = _opt_int(ctx, obj, path, "series_max_rows",
                                         DEFAULT_SERIES_ROWS, lo=1)


def _check_gap_triple_params(ctx, obj, path, budget):
    ctx.check_keys(obj, path, {"ifs", "depth", "interval", "zeta", "residue",
                               "functional", "exponent", "tolerance",
                               "series_max_rows"})
    if "ifs" not in obj:
        return ctx.fail(f"{path}.ifs", "required")
    ifs = _check_ifs(ctx, obj["ifs"], f"{path}.ifs")
    if ifs is not None and ifs.dim != 1:
        ctx.fail(f"{path}.ifs", "gap models need a 1d system")
        ifs = None
    depth = _opt_int(ctx, obj, path, "depth", None, lo=1)
    if "depth" not in obj:
        ctx.fail(f"{path}.depth", "required")
    interval = None
    if "interval" in obj:
        interval = _check_interval(ctx, obj["interval"], f"{path}.interval")
    params = {"ifs": ifs, "depth": depth, "interval": interval}
    _check_model_common(ctx, obj, path, budget, params)
    if params["residue"] and ifs is not None \
            and ifs.generation != fg.STATIONARY:
        ctx.fail(f"{path}.residue", "needs a stationary system")
    if ifs is None or depth is None:
        return None
    return params


def _check_pair_triple_params(ctx, obj, path, budget):
    ctx.check_keys(obj, path, {"ifs", "cap", "max_depth", "seed_pair", "zeta",
                               "residue", "functional", "exponent",
                               "tolerance", "series_max_rows"})
    if "ifs" not in obj:
        return ctx.fail(f"{path}.ifs", "required")
    ifs = _check_ifs(ctx, obj["ifs"], f"{path}.ifs")
    cap = _opt_int(ctx, obj, path, "cap", min(2 * 10**5, budget.entries),
                   lo=2, hi=budget.entries)
    max_depth = _opt_int(ctx, obj, path, "max_depth", None, lo=0)
    seed = None
    if "seed_pair" in obj:
        raw = obj["seed_pair"]
        if not isinstance(raw, list) or len(raw) != 2:
            ctx.fail(f"{path}.seed_pair", "must be [x, y]")
        else:
            dim = ifs.dim if ifs is not None else None
            x = _point(ctx, raw[0], f"{path}.seed_pair[0]", dim)
            y = _point(ctx, raw[1], f"{path}.seed_pair[1]", dim)
            if x is not None and y is not None:
                seed = (x, y)
    params = {"ifs": ifs, "cap": cap, "max_depth": max_depth, "seed": seed}
    _check_model_common(ctx, obj, path, budget, params)
    if params["residue"] and ifs is not None \
            and ifs.generation != fg.STATIONARY:
        ctx.fail(f"{path}.residue", "needs a stationary system")
    if ifs is None or cap is None:
        return None
    return params


def _check_link_params(ctx, obj, path, budget):
    ctx.check_keys(obj, path, {"ifs", "depth", "interval", "exponent"})
    if "ifs" not in obj:
        return ctx.fail(f"{path}.ifs", "required")
    ifs = _check_ifs(ctx, obj["ifs"], f"{path}.ifs")
    if ifs is not None and ifs.dim != 1:
        ctx.fail(f"{path}.ifs", "the link check needs a 1d system")
        ifs = None
    depth = _opt_int(ctx, obj, path, "depth", None, lo=1)
    if "depth" not in obj:
        ctx.fail(f"{path}.depth", "required")
    interval = None
    if "interval" in obj:
        interval = _check_interval(ctx, obj["interval"], f"{path}.interval")
    expo = _opt_num(ctx, obj, path, "exponent", None, lo=0.0, lo_open=True)
    if expo is not None and expo > 1:
        ctx.fail(f"{path}.exponent", "must be <= 1")
        expo = None
    if ifs is None or depth is None:
        return None
    return {"ifs": ifs, "depth": depth, "interval": interval,
            "exponent": expo}


_KIND_VALIDATORS = {
    SEQUENCE_ANALYSIS: _check_sequence_params,
    EXEMPLAR: _check_exemplar_params,
    IFS_CLASSICAL: _check_ifs_classical_params,
    GAP_TRIPLE: _check_gap_triple_params,
    PAIR_TRIPLE: _check_pair_triple_params,
    LINK_CHECK: _check_link_params,
}


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
        exps = [_check_experiment(ctx, e, f"$.experiments[{i}]", budget, i)
                for i, e in enumerate(raw)]
    else:
        exps = [_check_experiment(ctx, doc, "$", budget, None)]
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
        spec = ex.TwoSlopeSpec(p["alpha"], p["beta"], p["gaps"])
        seq = ex.two_slope_sequence(spec, cap=p["cap"])
        build = {"module": "exemplars", "op": "two_slope_sequence",
                 "parameters": {"alpha": p["alpha"], "beta": p["beta"],
                                "gaps": list(p["gaps"]), "cap": p["cap"]},
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


def _run_ifs_classical(exp, budget, out_dir):
    p = exp.params
    ifs = p["ifs"]
    results = []
    series = {}
    if ifs.generation == fg.STATIONARY:
        sdim = fg.similarity_dimension(ifs)
        results.append({"module": "fractal_geometry",
                        "op": "similarity_dimension", "parameters": {},
                        "values": {"dimension": _val(sdim)}})
    gaps = None
    if p["gaps"]:
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
        s, cd = p["cylinder"]["exponent"], p["cylinder"]["depth"]
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
                "exponent": _val(r.d),
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


def _model_entries(exp, model, budget, out_dir):
    """Operations shared by the two model kinds, in report order."""
    p = exp.params
    if len(model) > budget.entries:
        raise BudgetExceeded(
            f"model has {len(model)} entries, budget {budget.entries}")
    results = [_spectral_dim_entry(model)]
    if p["zeta"]:
        results.extend(_zeta_entries(model, p["zeta"]))
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


def _run_gap_triple(exp, budget, out_dir):
    p = exp.params
    gaps = fg.gaps_from_interval_ifs(p["ifs"], p["depth"],
                                     interval=p["interval"],
                                     budget=budget.words)
    model = st.gap_triple(gaps)
    build = {"module": "spectral_triples", "op": "gap_triple",
             "parameters": {"depth": p["depth"],
                            "interval": list(p["interval"])
                            if p["interval"] else None},
             "values": {"entries": len(model),
                        "truncated": bool(model.truncated),
                        "completeness_cutoff": _val(gaps.completeness_cutoff),
                        "max_value": _val(model.values[0]),
                        "min_value": _val(model.values[-1])}}
    results, series = _model_entries(exp, model, budget, out_dir)
    return [build] + results, series, len(model)


def _run_pair_triple(exp, budget, out_dir):
    p = exp.params
    model = st.pair_triple(p["ifs"], seed=p["seed"], cap=p["cap"],
                           max_depth=p["max_depth"])
    build = {"module": "spectral_triples", "op": "pair_triple",
             "parameters": {"cap": p["cap"], "max_depth": p["max_depth"],
                            "seed_pair": None if p["seed"] is None else
                            [list(map(float, p["seed"][0])),
                             list(map(float, p["seed"][1]))]},
             "values": {"entries": len(model),
                        "truncated": bool(model.truncated),
                        "ambient_dim": int(model.dim),
                        "seed_distance": _val(model.seed_distance),
                        "max_depth_reached": int(model.depths.max())}}
    results, series = _model_entries(exp, model, budget, out_dir)
    return [build] + results, series, len(model)


def _run_link_check(exp, budget, out_dir):
    p = exp.params
    gaps = fg.gaps_from_interval_ifs(p["ifs"], p["depth"],
                                     interval=p["interval"],
                                     budget=budget.words)
    model = st.gap_triple(gaps)
    if len(model) > budget.entries:
        raise BudgetExceeded(
            f"model has {len(model)} entries, budget {budget.entries}")
    link = st.minkowski_link_check(model, d=p["exponent"])
    results = [
        _gap_list_entry(gaps, p["depth"], p["interval"]),
        {"module": "spectral_triples", "op": "minkowski_link_check",
         "parameters": {"exponent": p["exponent"]},
         "values": {"exponent": _val(link.d),
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
    failures = 0
    for exp in exps:
        try:
            report = run_experiment(exp, budget, out_dir)
        except FractraceError as e:
            print(f"{exp.name}: {e.code}: {e}", file=stderr)
            failures += 1
            continue
        except (ValueError, ArithmeticError) as e:
            print(f"{exp.name}: PRECONDITION: {e}", file=stderr)
            failures += 1
            continue
        path = f"{out_dir}/{exp.report_name}"
        with open(path, "w") as fh:
            fh.write(dumps_canonical(report))
        if not quiet:
            wall = report["meta"]["wall_time_s"]
            print(f"{exp.name}: {exp.kind} ok ({wall:.2f} s) -> {path}",
                  file=stdout)
    return 3 if failures else 0


# ---------------------------------------------------------------------------
# report comparison

def _is_measurement(x) -> bool:
    return isinstance(x, dict) and set(x) == {"value", "interval"}


def _num_or_none(x):
    return float(x) if isinstance(x, (int, float)) \
        and not isinstance(x, bool) else None


def _diff_measurement(a, b, path, rows):
    av, bv = _num_or_none(a["value"]), _num_or_none(b["value"])
    ai, bi = a["interval"], b["interval"]
    if av is None or bv is None:
        # non-finite values arrive as strings; equality is all we can test
        rows.append({"path": path, "a": a["value"], "b": b["value"],
                     "significant": a["value"] != b["value"]})
        return
    lo_a, hi_a = (_num_or_none(v) for v in ai)
    lo_b, hi_b = (_num_or_none(v) for v in bi)
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

    Types are described as strings; every constraint here is enforced by
    ``parse_config`` with the violation reported at its JSON path.
    """
    interval = "[lo, hi], numbers, lo < hi"
    ifs_doc = {
        "generation": "'stationary' | 'periodic' | 'explicit'",
        "maps": "stationary only: nonempty list of map",
        "blocks": "periodic only: nonempty list of list of map",
        "levels": "explicit only: nonempty list of list of map",
        "box?": "[lo, hi] points bounding an asserted open set",
    }
    map_doc = {
        "ratio": "number in (0, 1)",
        "translation": "number, or list of numbers (the ambient dimension)",
        "flip?": "bool, 1d orientation reversal (scalar translation only)",
        "orthogonal?": "dim x dim matrix; exclusive with flip",
    }
    functional_doc = {
        "type": "'constant' | 'affine' | 'box_indicator'",
        "value?": "constant: the value (default 1)",
        "slope?": "affine: number or vector",
        "intercept?": "affine: number (default 0)",
        "lo?/hi?": "box_indicator: corner points, lo <= hi",
        "margin?": "box_indicator: ramp width >= 0 (default 0, sharp)",
    }
    model_common = {
        "zeta?": "{s: nonempty list of positive numbers}",
        "residue?": "bool; defaults to true for stationary systems",
        "functional?": "functional object",
        "exponent?": "positive number; functional weight exponent",
        "tolerance?": "positive number; eccentricity tolerance "
                      "(default adapts to the observed gap floor)",
        "series_max_rows?": f"int >= 1 (default {DEFAULT_SERIES_ROWS})",
    }
    return {
        "format": "fractrace-config/1",
        "root": "an experiment object, or {experiments: [experiment, ...]}",
        "experiment": {
            "kind": "one of " + ", ".join(KINDS),
            "name?": "report/file stem; " + _NAME_OK,
            "seed?": "int >= 0, reserved: echoed as meta.rng_seed, "
                     "no operation draws random numbers",
            "series?": "bool, write CSV series (default true)",
            "output?": {"report": "report file name"},
            "parameters": "kind-specific object, see kinds",
        },
        "kinds": {
            SEQUENCE_ANALYSIS: {
                "values|mu": "explicit list of >= 4 positive numbers, or "
                             "{form: 'power', coefficient > 0, exponent > 0}; "
                             "every number finite and within float64 range",
                "cap?": "int in [1000, entry budget]; mu form only",
                "tolerance?": "positive number (default 0.02)",
            },
            EXEMPLAR: {
                "family": "'two_slope' | 'step'",
                "alpha/beta": "two_slope: slopes, 0 < beta <= alpha",
                "gaps?": "two_slope: {form: 'constant', value > 0} or "
                         "{form: 'linear'}",
                "q": "step: exponent > 1",
                "cap?": "int in [1000, entry budget]",
                "tolerance?": "positive number (default 0.02)",
                "gammas?": "nonempty list of positive exponents to scan",
            },
            IFS_CLASSICAL: {
                "ifs": "ifs object",
                "depth": "int >= 1",
                "interval?": interval,
                "gaps?": "bool (default: ambient dimension is 1)",
                "box_dimension?": "bool or {cloud_depth?: int >= 1}",
                "minkowski?": "bool or {exponent?: number in (0, 1]}; "
                              "needs gaps",
                "cylinder?": "{exponent: number > 0, depth?: int >= 1}",
                "translation?": "bool",
                "contraction?": "bool or {depth?: int >= 1}",
                "series_max_rows?": f"int >= 1 (default {DEFAULT_SERIES_ROWS})",
            },
            GAP_TRIPLE: dict({
                "ifs": "ifs object, ambient dimension 1",
                "depth": "int >= 1",
                "interval?": interval,
            }, **model_common),
            PAIR_TRIPLE: dict({
                "ifs": "ifs object",
                "cap": "int in [2, entry budget]",
                "max_depth?": "int >= 0",
                "seed_pair?": "[x, y] points in the ambient dimension",
            }, **model_common),
            LINK_CHECK: {
                "ifs": "ifs object, ambient dimension 1",
                "depth": "int >= 1",
                "interval?": interval,
                "exponent?": "number in (0, 1] (default: similarity dimension)",
            },
        },
        "types": {"ifs": ifs_doc, "map": map_doc,
                  "functional": functional_doc},
        "budgets": {"entries": DEFAULT_ENTRY_BUDGET,
                    "words": DEFAULT_WORD_BUDGET,
                    "flag": "--budget ENTRIES[,WORDS]"},
        "exit_codes": {"0": "success",
                       "2": "config or schema violation",
                       "3": "numeric precondition failure"},
    }
