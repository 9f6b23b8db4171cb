"""The ``schema`` document against the validator.

Starting from a minimal accepted config of each kind (and variant): deleting
a field the schema marks required must give a problem at that field's path,
an optional field left out must show up in ``params`` with its documented
default, and every field the schema lists must be accepted by some config.
A key without '?' is required, for the variants in its ``for`` list when it
has one.
"""

import copy

import pytest

from fractrace.errors import ValidationError
from fractrace.reporting import (EXEMPLAR, GAP_TRIPLE, IFS_CLASSICAL, KINDS,
                                 LINK_CHECK, PAIR_TRIPLE, SEQUENCE_ANALYSIS,
                                 config_schema, parse_config)

SCHEMA = config_schema()
OBJECTS = dict(SCHEMA["types"], experiment=SCHEMA["experiment"],
               **SCHEMA["kinds"])


def _map(r, t, **kw):
    return dict({"ratio": r, "translation": t}, **kw)


LINE = {"generation": "stationary", "maps": [_map(0.3, 0.0), _map(0.4, 0.6)]}
VALUES = [1.0 / k for k in range(1, 17)]   # the shortest list accepted

# (kind, variant, parameters); the variant is the discriminator's value
MINIMAL = [
    (SEQUENCE_ANALYSIS, "values", {"values": VALUES}),
    (SEQUENCE_ANALYSIS, "mu", {"mu": {"form": "power", "exponent": 1.5}}),
    (EXEMPLAR, "two_slope", {"family": "two_slope", "alpha": 1.6,
                             "beta": 0.8}),
    (EXEMPLAR, "step", {"family": "step", "q": 2.0}),
    (IFS_CLASSICAL, None, {"ifs": LINE, "depth": 6}),
    (GAP_TRIPLE, None, {"ifs": LINE, "depth": 6}),
    (PAIR_TRIPLE, None, {"ifs": LINE}),
    (LINK_CHECK, None, {"ifs": LINE, "depth": 6}),
]
# objects inside the minimal configs: (kind, key path, schema object)
NESTED = [(kind, ("ifs",), "ifs") for kind in KINDS[2:]] \
    + [(kind, ("ifs", "maps", 0), "map") for kind in KINDS[2:]] \
    + [(SEQUENCE_ANALYSIS, ("mu",), "mu")]


def _fields(name, variant):
    """(field, required, doc) of the schema object for one variant."""
    out = []
    for key, doc in OBJECTS.get(name, {}).items():
        # a field documented by a plain string applies to every variant
        uses = doc.get("for") if isinstance(doc, dict) else None
        if uses is not None and variant not in uses:
            continue
        out.append((key.rstrip("?"), not key.endswith("?"), doc))
    return out


def _problem_paths(doc):
    with pytest.raises(ValidationError) as info:
        parse_config(doc)
    return {p.split(": ")[0] for p in info.value.problems}


def _get(obj, keys):
    for k in keys:
        obj = obj[k]
    return obj


def _plain(x):
    """params values as JSON-like data, for comparison with the schema."""
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return {k: _plain(v) for k, v in x.items()}
    return x


CASES = [(kind, variant, params, (), kind)
         for kind, variant, params in MINIMAL]
for _kind, _keys, _name in NESTED:
    for _k, _variant, _params in MINIMAL:
        if _k == _kind and (_keys[0] in _params):
            _inner = _get(_params, _keys)
            CASES.append((_kind, _inner.get("generation"), _params, _keys,
                          _name))
FIELD_CASES = [(kind, variant, params, keys, name, field, req, doc)
               for kind, variant, params, keys, name in CASES
               for field, req, doc in _fields(name, variant)]


def _id(case):
    kind, variant, _, keys, name, field = case[:6]
    where = ".".join(map(str, keys)) or "parameters"
    return f"{kind}-{variant}-{where}.{field}" if variant \
        else f"{kind}-{where}.{field}"


@pytest.mark.parametrize("kind, variant, params", MINIMAL,
                         ids=[f"{k}-{v}" for k, v, _ in MINIMAL])
def test_minimal_configs_are_accepted(kind, variant, params):
    (exp,) = parse_config({"kind": kind, "parameters": params})
    assert exp.kind == kind


@pytest.mark.parametrize("kind, variant, params, keys, name, field, req, doc",
                         FIELD_CASES, ids=[_id(c) for c in FIELD_CASES])
def test_schema_fields_match_the_validator(kind, variant, params, keys, name,
                                           field, req, doc):
    config = {"kind": kind, "parameters": copy.deepcopy(params)}
    obj = _get(config["parameters"], keys)
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}"
                   for k in ("parameters",) + keys)
    if req:
        assert field in obj, "required by the schema, absent from a config " \
                             "the validator accepts"
        del obj[field]
        # a field that picks the variant by its presence is missed as a whole
        presence = "|" in SCHEMA["discriminators"].get(name, "")
        assert ("$" + (path if presence else f"{path}.{field}")) \
            in _problem_paths(config)
        return
    assert field not in obj
    if name in ("ifs", "map"):
        return  # built into objects; their defaults show in the reports
    (exp,) = parse_config(config)
    value = _get(exp.params, keys)
    assert _plain(value[field]) == doc["default"]


FULL = [
    {"kind": SEQUENCE_ANALYSIS, "name": "seq", "seed": 3, "series": False,
     "output": {"report": "seq.json"},
     "parameters": {"mu": {"form": "power", "coefficient": 2.0,
                           "exponent": 1.5}, "cap": 2000, "tolerance": 0.05}},
    {"kind": SEQUENCE_ANALYSIS,
     "parameters": {"values": VALUES}},
    {"kind": EXEMPLAR,
     "parameters": {"family": "two_slope", "alpha": 1.6, "beta": 0.8,
                    "gaps": {"form": "constant", "value": 2.0}, "cap": 2000,
                    "tolerance": 0.05, "gammas": [1.0]}},
    {"kind": EXEMPLAR, "parameters": {"family": "step", "q": 2.0}},
    {"kind": IFS_CLASSICAL,
     "parameters": {"ifs": dict(LINE, box=[0.0, 1.0]), "depth": 6,
                    "interval": [0.0, 1.0], "gaps": True,
                    "box_dimension": {"cloud_depth": 4},
                    "minkowski": {"exponent": 0.6},
                    "cylinder": {"exponent": 0.6, "depth": 3},
                    "translation": True, "contraction": {"depth": 3},
                    "series_max_rows": 10}},
    {"kind": IFS_CLASSICAL,
     "parameters": {"ifs": {"generation": "periodic",
                            "blocks": [[_map(0.3, 0.0), _map(0.3, 0.7)]]},
                    "depth": 4, "interval": [0.0, 1.0]}},
    {"kind": GAP_TRIPLE,
     "parameters": {"ifs": {"generation": "explicit",
                            "levels": [[_map(0.3, 0.0),
                                        _map(0.3, 1.0, flip=True)]]},
                    "depth": 1, "interval": [0.0, 1.0],
                    "zeta": {"s": [1.0]}, "residue": False,
                    "functional": {"type": "constant", "value": 2.0},
                    "exponent": 0.6, "tolerance": 0.1,
                    "series_max_rows": 10}},
    {"kind": GAP_TRIPLE,
     "parameters": {"ifs": LINE, "depth": 6,
                    "functional": {"type": "affine", "slope": 0.5,
                                   "intercept": 1.0}}},
    {"kind": PAIR_TRIPLE,
     "parameters": {"ifs": {"generation": "stationary",
                            "maps": [_map(0.5, [0.0, 0.0],
                                          orthogonal=[[0.0, 1.0],
                                                      [1.0, 0.0]]),
                                     _map(0.5, [0.5, 0.5])]},
                    "cap": 2000, "max_depth": 5,
                    "seed_pair": [[0.0, 0.0], [1.0, 1.0]],
                    "zeta": {"s": [1.5]}, "residue": True, "exponent": 1.0,
                    "tolerance": None, "series_max_rows": 10,
                    "functional": {"type": "box_indicator", "lo": [0.0, 0.0],
                                   "hi": [0.5, 0.5], "margin": 0.1}}},
    {"kind": LINK_CHECK,
     "parameters": {"ifs": LINE, "depth": 6, "interval": [0.0, 1.0],
                    "exponent": 0.6}},
]


def _used(obj, name, acc, kind=None):
    for key, value in obj.items():
        doc = OBJECTS[name][key if key in OBJECTS[name] else key + "?"]
        acc.add((name, key))
        t = doc["type"].removeprefix("boolean or ")
        if t == "object: the parameters of the kind":
            _used(value, kind, acc)
        elif t.endswith("[][]"):
            for block in value:
                for item in block:
                    _used(item, t[:-4], acc)
        elif t.endswith("[]"):
            for item in value:
                _used(item, t[:-2], acc)
        elif t in OBJECTS and isinstance(value, dict):
            _used(value, t, acc)


def test_every_schema_field_is_accepted_somewhere():
    used = set()
    for config in FULL:
        parse_config(config)
        _used(config, "experiment", used, config["kind"])
    listed = {(name, key.rstrip("?")) for name, fields in OBJECTS.items()
              for key in fields}
    assert listed - used == set()


EXPERIMENT_FIELDS = [(key.rstrip("?"), doc)
                     for key, doc in SCHEMA["experiment"].items()]


def _accepted(config) -> bool:
    try:
        parse_config(config)
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("kind, variant, params, keys, name, field, req, doc",
                         FIELD_CASES, ids=[_id(c) for c in FIELD_CASES])
def test_a_field_takes_null_exactly_when_the_schema_says_nullable(
        kind, variant, params, keys, name, field, req, doc):
    config = {"kind": kind, "parameters": copy.deepcopy(params)}
    _get(config["parameters"], keys)[field] = None
    assert _accepted(config) is bool(doc.get("nullable"))


@pytest.mark.parametrize("field, doc", EXPERIMENT_FIELDS,
                         ids=[f for f, _ in EXPERIMENT_FIELDS])
def test_an_experiment_field_takes_null_exactly_when_nullable(field, doc):
    kind, _, params = MINIMAL[0]
    config = {"kind": kind, "parameters": copy.deepcopy(params), field: None}
    assert _accepted(config) is bool(doc.get("nullable"))


def test_every_flag_object_is_nullable():
    params = OBJECTS[IFS_CLASSICAL]
    flags = {k.rstrip("?") for k, doc in params.items()
             if doc["type"].startswith("boolean or ")}
    assert flags == {"box_dimension", "minkowski", "contraction"}
    assert all(params[k + "?"].get("nullable") for k in flags)


@pytest.mark.parametrize("field", ["box_dimension", "minkowski",
                                   "contraction"])
def test_a_null_flag_object_is_off(field):
    on = {"ifs": LINE, "depth": 6, field: True}
    (exp,) = parse_config({"kind": IFS_CLASSICAL, "parameters": on})
    assert exp.params[field] is not None
    for off in (False, None):
        (exp,) = parse_config({"kind": IFS_CLASSICAL,
                               "parameters": dict(on, **{field: off})})
        assert exp.params[field] is None
